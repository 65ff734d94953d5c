"""Dense oracle: forward-backward of any training graph over a score grid.

:func:`intersect_dense` folds an Fst into an (S, S, C) tensor of arc weights
beside a T x C grid of per-frame scores; a path reads one symbol per frame,
then takes its last state's terminal arc. :func:`total_score` and
:func:`occupancy` run the log-domain forward-backward of Graves et al. 2006
(section 4.1) over it, assuming no chain structure and no state order. It
reads only the Fst, so it checks the engine of :mod:`ctcfst.loss` independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPathError
from .fsa import TERMINAL, Fst


@dataclass(frozen=True)
class Lattice:
    """A graph's arcs as dense log-weights, with the grid they score."""

    arcs: np.ndarray  # (S, S, C) log-sum of the arcs i -> j reading c, -inf if none
    final: np.ndarray  # (S,) weight of the state's terminal arc, -inf if none
    start: int
    grid: np.ndarray  # (T, C) finite per-frame scores


def intersect_dense(graph: Fst, grid) -> Lattice:
    """Pair a training graph with dense per-frame scores. Arcs that join the
    same two states on the same symbol become one entry, log-summed; the empty
    graph becomes one state with no way out, so its scores raise ``NoPathError``."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[0] < 1 or grid.shape[1] < 1:
        raise ValueError(f"grid must be a T x (V+1) matrix, got shape {grid.shape}")
    if not np.isfinite(grid).all():
        raise ValueError("grid entries must be finite")
    size, cols = max(graph.num_states, 1), grid.shape[1]
    arcs = np.full((size, size, cols), -np.inf)
    final = np.full(size, -np.inf)
    for arc in graph.arcs():
        if arc.ilabel == TERMINAL:
            final[arc.src] = np.logaddexp(final[arc.src], arc.weight)
        elif 0 <= arc.ilabel < cols:
            cell = (arc.src, arc.dst, arc.ilabel)
            arcs[cell] = np.logaddexp(arcs[cell], arc.weight)
        else:
            raise ValueError(f"graph input label {arc.ilabel} outside grid columns 0..{cols - 1}")
    return Lattice(arcs, final, graph.start or 0, grid)


def _logsumexp(x: np.ndarray, axis) -> np.ndarray:
    """log(sum(exp(x))) over ``axis``, max-shifted; -inf where x is all -inf or empty."""
    peak = np.max(x, axis=axis, keepdims=True, initial=-np.inf)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return np.squeeze(np.log(np.exp(x - peak).sum(axis=axis, keepdims=True)) + peak, axis)


def _forward(lat: Lattice) -> tuple[np.ndarray, float]:
    """(T+1, S) forward scores, row t stepping only from the states live after t
    frames, and the total; raises ``NoPathError`` if no path ends at frame T."""
    alpha = np.full((len(lat.grid) + 1, len(lat.final)), -np.inf)
    alpha[0, lat.start] = 0.0
    for t, scores in enumerate(lat.grid):
        live = alpha[t] > -np.inf
        alpha[t + 1] = _logsumexp(alpha[t, live, None, None] + lat.arcs[live] + scores, axis=(0, 2))
    total = float(_logsumexp(alpha[-1] + lat.final, axis=0))
    if total == -np.inf:
        raise NoPathError(f"no path through the graph consumes {len(lat.grid)} frames")
    return alpha, total


def total_score(lat: Lattice) -> float:
    """Log-semiring total over all paths."""
    return _forward(lat)[1]


def occupancy(lat: Lattice) -> np.ndarray:
    """(T, C) posterior of reading each symbol at each frame; every row sums to 1."""
    alpha, total = _forward(lat)
    beta = lat.final  # over the states live at the frame, -inf elsewhere
    out = np.empty_like(lat.grid)
    for t in range(len(lat.grid) - 1, -1, -1):
        live, ahead = alpha[t] > -np.inf, beta > -np.inf
        step = lat.arcs[np.ix_(live, ahead)] + lat.grid[t] + beta[None, ahead, None]
        out[t] = _logsumexp(alpha[t, live, None, None] + step, axis=(0, 1))
        beta = np.full_like(beta, -np.inf)
        beta[live] = _logsumexp(step, axis=(1, 2))
    return np.exp(out - total)


def iterate_paths(lat: Lattice):
    """Yield (alignment, score) for every path, the alignment being the symbols
    it reads: a depth-first walk, exponential in T, apart from the recursion."""
    moves = [np.argwhere(row > -np.inf).tolist() for row in lat.arcs]
    stack = [(lat.start, (), 0.0)]
    while stack:
        state, labels, score = stack.pop()
        t = len(labels)
        if t == len(lat.grid):
            if lat.final[state] > -np.inf:
                yield labels, float(score + lat.final[state])
            continue
        for j, c in moves[state]:
            stack.append((j, labels + (c,), score + lat.arcs[state, j, c] + lat.grid[t, c]))
