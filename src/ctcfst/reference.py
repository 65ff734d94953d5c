"""Test oracles, beside the dense forward-backward of :mod:`ctcfst.lattice`.

Nothing here runs behind the ``ctcfst`` command or the trainer. The topology
composed with the transcript (:func:`build_training_graph`) checks
``topology.build_chain``; every string that collapses to the transcript
(:func:`brute_force_alignments`) checks ``topology.enumerate_alignments``; the
classic alpha recursion (:func:`ctc_loss_alpha`) and a sum over those strings
(:func:`brute_force_loss`) check ``loss.ctc_loss``. None reads the CTC chain.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .errors import InfeasibleAlignmentError
from .fsa import BLANK, EPSILON, TERMINAL, Fst, parse_float, parse_int
from .topology import (
    MAX_ENUM_FRAMES, STANDARD, TopologyVariant, _validate_labels, build_topology, collapse_ctc
)

MAX_ENUM_SYMBOLS = 4  # the brute force tries (symbols + 1) ** frames strings


def _reachable(seed: int, edges: list[list[int]]) -> list[bool]:
    """Which states a walk from ``seed`` along ``edges[state]`` reaches."""
    seen = [False] * len(edges)
    seen[seed] = True
    stack = [seed]
    while stack:
        for state in edges[stack.pop()]:
            if not seen[state]:
                seen[state] = True
                stack.append(state)
    return seen


def connect(fst: Fst) -> Fst:
    """Trim states unreachable from start or not co-reachable to final.

    The result accepts the same weighted language with densely renumbered
    states; an empty language comes back as the empty Fst (0 states), which
    callers must treat as "no valid path".
    """
    if fst.is_empty or fst.start is None or fst.final is None:
        return Fst()
    outgoing: list[list[int]] = [[] for _ in range(fst.num_states)]
    incoming: list[list[int]] = [[] for _ in range(fst.num_states)]
    for arc in fst.arcs():
        outgoing[arc.src].append(arc.dst)
        incoming[arc.dst].append(arc.src)
    forward, backward = _reachable(fst.start, outgoing), _reachable(fst.final, incoming)
    useful = [f and b for f, b in zip(forward, backward)]
    if not useful[fst.start]:  # then no path reaches final either
        return Fst()

    keep = [s for s, u in enumerate(useful) if u]
    remap = {old: new for new, old in enumerate(keep)}
    out = Fst()
    for _ in keep:
        out.add_state()
    out.start, out.final = remap[fst.start], remap[fst.final]
    for old in keep:
        for arc in fst.arcs_from(old):
            if useful[arc.dst]:
                out.add_arc(remap[old], remap[arc.dst], arc.ilabel, arc.olabel, arc.weight)
    return out


def compose(a: Fst, b: Fst) -> Fst:
    """Weighted composition of ``a`` with an input-epsilon-free ``b``.

    Output-epsilon arcs of ``a`` advance ``a`` alone. Terminal sentinel arcs
    (ilabel -1) of the two operands are taken together, so the composed
    machine keeps the single-final-state convention. Weights combine by
    log-semiring multiplication (real addition). States are numbered in the
    breadth-first order that the walk from the start pair finds them.
    """
    if a.is_empty or b.is_empty:
        return Fst()
    for arc in b.arcs():
        if arc.ilabel == EPSILON:
            raise ValueError("compose: right operand must be epsilon-free on its input side")

    out = Fst()
    state_of: dict[tuple[int, int], int] = {}
    queue: list[tuple[int, int]] = []

    def state(pair: tuple[int, int]) -> int:
        """The pair's state, made and queued for the walk on first sight."""
        sid = state_of.get(pair)
        if sid is None:
            sid = state_of[pair] = out.add_state()
            queue.append(pair)
        return sid

    out.start = state((a.start, b.start))
    for sa, sb in queue:  # the walk appends to the queue as it goes
        here = state_of[sa, sb]
        for arc_a in a.arcs_from(sa):
            if arc_a.ilabel != TERMINAL and arc_a.olabel == EPSILON:
                out.add_arc(here, state((arc_a.dst, sb)), arc_a.ilabel, EPSILON, arc_a.weight)
                continue
            # A terminal arc pairs with b's terminal arcs, any other with the
            # arcs of b that read its output.
            terminal = arc_a.ilabel == TERMINAL
            reads = TERMINAL if terminal else arc_a.olabel
            for arc_b in b.arcs_from(sb):
                if arc_b.ilabel == reads:
                    olabel = EPSILON if terminal else arc_b.olabel
                    weight = arc_a.weight + arc_b.weight
                    out.add_arc(here, state((arc_a.dst, arc_b.dst)), arc_a.ilabel, olabel, weight)

    final = state_of.get((a.final, b.final))
    if final is None:
        return Fst()
    out.final = final
    return out


def fst_from_text(text: str) -> Fst:
    """Parse the text format produced by :func:`ctcfst.fsa.fst_to_text`.

    The start state is the source of the first arc line. State ids are
    non-negative and labels may be negative, all in ASCII digits.
    """
    arcs: list[tuple[int, int, int, int, float]] = []
    final: int | None = None
    for raw in text.splitlines():
        fields = raw.split()
        if not fields:
            continue
        try:
            if len(fields) == 1:
                final = parse_int(fields[0])
                continue
            src, dst, ilabel, olabel, weight = fields
            arcs.append((parse_int(src), parse_int(dst), parse_int(ilabel, signed=True),
                         parse_int(olabel, signed=True), parse_float(weight)))
        except ValueError:
            raise ValueError(f"malformed FST line: {raw.strip()!r}") from None
    if not arcs:
        return Fst()
    if final is None:
        raise ValueError("missing final-state line")
    if any(src == final for src, *_ in arcs):
        raise ValueError(f"final state {final} has outgoing arcs")
    out = Fst()
    for _ in range(max(final, *(max(src, dst) for src, dst, *_ in arcs)) + 1):
        out.add_state()
    for src, dst, ilabel, olabel, weight in arcs:
        out.add_arc(src, dst, ilabel, olabel, weight)
    out.start = arcs[0][0]
    out.final = final
    return out


def build_linear_graph(labels: Sequence[int], vocab_size: int | None = None) -> Fst:
    """Linear acceptor of a token sequence: a U+1-state chain plus the final
    sentinel arc. All weights are 0; the empty sequence accepts epsilon."""
    _validate_labels(labels, vocab_size)
    fst = Fst()
    chain = [fst.add_state() for _ in range(len(labels) + 1)]
    fst.start, fst.final = chain[0], fst.add_state()
    for i, tok in enumerate(labels):
        fst.add_arc(chain[i], chain[i + 1], tok, tok)
    fst.add_arc(chain[-1], fst.final, TERMINAL, EPSILON)
    return fst


def build_training_graph(
    labels: Sequence[int], vocab_size: int, variant: TopologyVariant = STANDARD
) -> Fst:
    """Training graph for one utterance: topology composed with the label
    chain, trimmed. Identical adjacent labels force a mandatory blank in
    between."""
    topo, linear = build_topology(vocab_size, variant), build_linear_graph(labels, vocab_size)
    return connect(compose(topo, linear))


def ctc_loss_alpha(labels: Sequence[int], grid) -> float:
    """Standard-topology CTC loss via the classic forward recursion.

    Works over the blank-interleaved state sequence of length 2U+1; kept as
    an independent cross-check of :func:`ctcfst.loss.ctc_loss`.
    """
    grid = np.asarray(grid, dtype=float)
    num_frames = grid.shape[0]
    ext = [0]
    for tok in labels:
        ext.extend((tok, 0))
    m = len(ext)
    alpha = np.full(m, -np.inf)
    alpha[0] = grid[0, 0]
    if m > 1:
        alpha[1] = grid[0, ext[1]]
    for t in range(1, num_frames):
        prev = alpha
        alpha = np.full(m, -np.inf)
        for s in range(m):
            acc = prev[s]
            if s >= 1:
                acc = np.logaddexp(acc, prev[s - 1])
            if s >= 2 and ext[s] != 0 and ext[s] != ext[s - 2]:
                acc = np.logaddexp(acc, prev[s - 2])
            alpha[s] = acc + grid[t, ext[s]]
    total = alpha[m - 1]
    if m > 1:
        total = np.logaddexp(total, alpha[m - 2])
    if not np.isfinite(total):
        raise InfeasibleAlignmentError(num_frames, len(labels), STANDARD)
    return float(-total)


def _max_nonblank_run(alignment: Sequence[int]) -> int:
    return max((len(list(g)) for k, g in itertools.groupby(alignment) if k != BLANK), default=0)


def brute_force_alignments(
    labels: Sequence[int], frames: int, variant: TopologyVariant = STANDARD
) -> set[tuple[int, ...]]:
    """The alignment set by definition: every length-``frames`` string over
    blank and the transcript's symbols that collapses to the transcript, with
    no non-blank run over a hard bound. Guarded to ``frames`` <= 12, the bound
    of ``enumerate_alignments``, and to <= 4 distinct symbols, its own.
    """
    _validate_labels(labels, None)
    if frames < 0:
        raise ValueError(f"frames must be >= 0, got {frames}")
    if frames > MAX_ENUM_FRAMES or len(set(labels)) > MAX_ENUM_SYMBOLS:
        raise ValueError(f"enumeration guard: need frames <= {MAX_ENUM_FRAMES} and "
                         f"<= {MAX_ENUM_SYMBOLS} distinct symbols")
    bound = variant.max_run if variant.kind == "hard" else frames
    return {
        candidate
        for candidate in itertools.product([BLANK, *sorted(set(labels))], repeat=frames)
        if collapse_ctc(candidate) == list(labels) and _max_nonblank_run(candidate) <= bound
    }


def _soft_penalty(alignment: Sequence[int], penalty: float) -> float:
    # One penalty per non-blank self-loop traversal: run length minus one.
    return sum((penalty for prev, k in zip(alignment, alignment[1:]) if k != 0 and k == prev), 0.0)


def brute_force_loss(
    labels: Sequence[int], grid, variant: TopologyVariant = STANDARD
) -> float:
    """Loss by direct summation over :func:`brute_force_alignments` (test oracle).

    Inherits the enumeration guard (frames <= 12, <= 4 distinct symbols).
    """
    grid = np.asarray(grid, dtype=float)
    num_frames = grid.shape[0]
    alignments = brute_force_alignments(labels, num_frames, variant)
    if not alignments:
        raise InfeasibleAlignmentError(num_frames, len(labels), variant)
    scores = []
    for pi in alignments:
        score = sum(grid[t, k] for t, k in enumerate(pi))
        if variant.kind == "soft":
            score -= _soft_penalty(pi, variant.penalty)
        scores.append(score)
    shift = max(scores)
    return float(-(shift + np.log(sum(np.exp(s - shift) for s in scores))))
