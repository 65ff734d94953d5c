"""Frame-synchronous lattices: dense intersection and dynamic programming.

A lattice is the intersection of a training graph with a T x (V+1) grid of
per-frame log-probabilities (column 0 is the blank). Every path consumes
exactly T frames and then one terminal sentinel arc, so the machine is
acyclic and its states are numbered in topological order by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoPathError
from .fsa import LOG_ZERO, TERMINAL, Arc, Fst, _trim, log_add


@dataclass
class Lattice:
    """An Fst whose arcs carry frame/column provenance.

    ``frame_of_arc[i]`` is the frame consumed by arc id ``i`` (or ``TERMINAL``
    for the sentinel step); the grid column it read is the arc's ``ilabel``.
    """

    fst: Fst = field(default_factory=Fst)
    frame_of_arc: list[int] = field(default_factory=list)
    num_frames: int = 0

    @property
    def is_empty(self) -> bool:
        return self.fst.is_empty


def _as_grid(grid) -> np.ndarray:
    out = np.asarray(grid, dtype=float)
    if out.ndim != 2 or out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"grid must be a T x (V+1) matrix, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError("grid entries must be finite")
    return out


def intersect_dense(graph: Fst, grid) -> Lattice:
    """Intersect a training graph with dense per-frame scores.

    Lattice states are (graph state, frame) pairs; each arc at frame t adds
    ``grid[t][ilabel]`` to the graph arc weight. After the last frame a
    terminal step consumes the -1 sentinel with weight 0. The result is
    connected; an infeasible combination yields an empty lattice rather than
    an error.
    """
    grid = _as_grid(grid)
    num_frames, num_cols = grid.shape
    if graph.is_empty:
        return Lattice(num_frames=num_frames)
    for arc in graph.arcs():
        if arc.ilabel != TERMINAL and not (0 <= arc.ilabel < num_cols):
            raise ValueError(
                f"graph input label {arc.ilabel} outside grid columns 0..{num_cols - 1}"
            )

    # Frame-layered expansion; only states reachable at each layer are kept.
    layers: list[list[int]] = [[graph.start]]
    for _ in range(num_frames):
        nxt: set[int] = set()
        for g in layers[-1]:
            for arc in graph.arcs_from(g):
                if arc.ilabel != TERMINAL:
                    nxt.add(arc.dst)
        layers.append(sorted(nxt))

    raw = Fst()
    state_of: dict[tuple[int, int], int] = {}
    for t, layer in enumerate(layers):
        for g in layer:
            state_of[(g, t)] = raw.add_state()
    final = raw.add_state()
    raw.start = state_of[(graph.start, 0)]
    raw.final = final

    frames: list[int] = []
    for t in range(num_frames):
        for g in layers[t]:
            src = state_of[(g, t)]
            for arc in graph.arcs_from(g):
                if arc.ilabel == TERMINAL:
                    continue
                raw.add_arc(
                    src,
                    state_of[(arc.dst, t + 1)],
                    arc.ilabel,
                    arc.olabel,
                    arc.weight + grid[t, arc.ilabel],
                )
                frames.append(t)
    for g in layers[num_frames]:
        src = state_of[(g, num_frames)]
        for arc in graph.arcs_from(g):
            if arc.ilabel == TERMINAL:
                raw.add_arc(src, final, TERMINAL, arc.olabel, arc.weight)
                frames.append(TERMINAL)

    trimmed, kept = _trim(raw)
    if trimmed.is_empty:
        return Lattice(num_frames=num_frames)
    return Lattice(
        fst=trimmed,
        frame_of_arc=[frames[i] for i in kept],
        num_frames=num_frames,
    )


def _incoming(fst: Fst) -> list[list[tuple[int, Arc]]]:
    ins: list[list[tuple[int, Arc]]] = [[] for _ in range(fst.num_states)]
    for arc_id, arc in enumerate(fst.arcs()):
        ins[arc.dst].append((arc_id, arc))
    return ins


def forward_scores(lat: Lattice, mode: str = "log") -> list[float]:
    """Per-state forward scores from the start state.

    ``mode`` selects the semiring: "log" sums paths (log-sum-exp), "tropical"
    keeps the best path (max). States are already topologically numbered.
    """
    if mode not in ("log", "tropical"):
        raise ValueError(f"unknown mode {mode!r}")
    fst = lat.fst
    if fst.is_empty:
        return []
    plus = log_add if mode == "log" else max
    scores = [LOG_ZERO] * fst.num_states
    scores[fst.start] = 0.0
    incoming = _incoming(fst)
    for s in range(fst.num_states):
        if s == fst.start:
            continue
        acc = LOG_ZERO
        for _, arc in incoming[s]:
            acc = plus(acc, scores[arc.src] + arc.weight)
        scores[s] = acc
    return scores


def backward_scores(lat: Lattice, mode: str = "log") -> list[float]:
    """Per-state backward scores to the final state (mirror of forward)."""
    if mode not in ("log", "tropical"):
        raise ValueError(f"unknown mode {mode!r}")
    fst = lat.fst
    if fst.is_empty:
        return []
    plus = log_add if mode == "log" else max
    scores = [LOG_ZERO] * fst.num_states
    scores[fst.final] = 0.0
    for s in range(fst.num_states - 1, -1, -1):
        if s == fst.final:
            continue
        acc = LOG_ZERO
        for arc in fst.arcs_from(s):
            acc = plus(acc, arc.weight + scores[arc.dst])
        scores[s] = acc
    return scores


def total_score(lat: Lattice, mode: str = "log") -> float:
    """Semiring total over all paths (forward score of the final state)."""
    if lat.is_empty:
        raise NoPathError("empty lattice has no paths")
    return forward_scores(lat, mode)[lat.fst.final]


def best_path(lat: Lattice) -> tuple[list[int], float]:
    """Tropical-best alignment: the frame-consuming input labels and score.

    Ties are broken toward the lowest arc id, which makes the result
    deterministic on score plateaus.
    """
    if lat.is_empty:
        raise NoPathError("empty lattice has no paths")
    fst = lat.fst
    scores = [LOG_ZERO] * fst.num_states
    back: list[tuple[int, Arc] | None] = [None] * fst.num_states
    scores[fst.start] = 0.0
    incoming = _incoming(fst)
    for s in range(fst.num_states):
        if s == fst.start:
            continue
        for arc_id, arc in incoming[s]:
            cand = scores[arc.src] + arc.weight
            if cand > scores[s]:
                scores[s] = cand
                back[s] = (arc_id, arc)
    if scores[fst.final] == LOG_ZERO:
        raise NoPathError("final state unreachable")
    alignment: list[int] = []
    s = fst.final
    while s != fst.start:
        arc_id, arc = back[s]
        if lat.frame_of_arc[arc_id] != TERMINAL:
            alignment.append(arc.ilabel)
        s = arc.src
    alignment.reverse()
    return alignment, scores[fst.final]


def arc_posteriors(lat: Lattice) -> np.ndarray:
    """Posterior probability of each arc under the log-semiring path measure.

    For every frame the posteriors of that frame's arcs sum to 1.
    """
    if lat.is_empty:
        raise NoPathError("empty lattice has no paths")
    fwd = forward_scores(lat, "log")
    bwd = backward_scores(lat, "log")
    total = fwd[lat.fst.final]
    post = np.empty(lat.fst.num_arcs, dtype=float)
    for arc_id, arc in enumerate(lat.fst.arcs()):
        post[arc_id] = np.exp(fwd[arc.src] + arc.weight + bwd[arc.dst] - total)
    return post


def iterate_paths(lat: Lattice):
    """Yield (alignment, score) for every path; exponential, diagnostics only.

    The alignment is the tuple of frame-consuming input labels. Independent of
    the forward/backward recursions, so tests can use it as an oracle.
    """
    if lat.is_empty:
        return
    fst = lat.fst
    stack: list[tuple[int, list[int], float]] = [(fst.start, [], 0.0)]
    while stack:
        state, labels, score = stack.pop()
        if state == fst.final:
            yield tuple(labels), score
            continue
        for arc in fst.arcs_from(state):
            ext = labels if arc.ilabel == TERMINAL else labels + [arc.ilabel]
            stack.append((arc.dst, ext, score + arc.weight))
