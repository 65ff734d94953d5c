"""CTC negative log-likelihood and analytic gradients under any topology.

One call, :func:`batch_loss`, on one batched forward-backward engine gives
per-row losses, occupancy and masked logit gradients. The engine has two
stages: :func:`pack` writes graphs once, :meth:`GraphBatch.layout` lays
them out for a keep mask, and :meth:`Layout.run` runs forward and backward
fused, one log-add per step, over grids. Its callers pack the CTC chains of
:func:`ctcfst.topology._chain`: :func:`ctc_loss`, a batch of one with every
frame kept, :func:`grad_check`, one chain whose bumped grids for every frame
share one layout, and the toy trainer, which masks out its padding and
skipped frames and lays the batch out again only when the mask changes.
Each graph steps only through its own kept frames over its own states, so
the work is the sum over graphs of states times kept frames, whatever the
padding. The tests cross-check it against the dense forward-backward of
:mod:`ctcfst.lattice` and the oracles of :mod:`ctcfst.reference`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleAlignmentError, NoPathError
from .fsa import first_bad, format_number
from .topology import STANDARD, TopologyVariant, _chain, collapse_ctc
# benchmarks/run.py reads ctc_loss_alpha here. After .topology: reference imports it.
from .reference import ctc_loss_alpha  # noqa: F401


@dataclass(frozen=True)
class GraphBatch:
    """CTC chains packed by :func:`pack` for batched forward-backward.

    All arcs entering a state carry one input symbol, so a state scores its
    symbol's grid entry at each frame: the state-emitting recursion of Graves
    et al. 2006 (section 4.1), generalised from the 2U+1 chain to soft and
    hard runs. The graphs' N states lie end to end in batch order. One
    arc-major (J, 2N) slot table holds each arc twice, as source minus
    destination: column n holds state n's out-arcs, column N + n its in-arcs,
    an offset that holds however a layout reorders whole graphs; padding is
    0, -inf. The engine has two stages: :meth:`layout` does all the work that
    depends only on a keep mask, and :meth:`Layout.run` the recursion over
    the grids, so a caller whose mask holds builds one layout for many runs.
    """

    sym: np.ndarray  # (N,) input symbol of every arc entering the state
    offset: np.ndarray  # (J, 2N) src - dst of state n's out-arcs at n, in-arcs at N + n
    weight: np.ndarray  # (J, 2N) their weights
    fin: np.ndarray  # (N,) final weight of the state, -inf if it is not final
    states: np.ndarray  # (B,) state count of each graph
    classes: int  # C, the symbol count of the grids

    def layout(self, keep) -> Layout:
        """The batch laid out for a (B, T) boolean mask of the frames each
        graph consumes."""
        return Layout(self, keep)


class Layout:
    """A :class:`GraphBatch` laid out for one keep mask, with its storage.

    A dropped frame, whether past an utterance's end or skipped, has no
    effect on its graph's total and its occupancy is 0, so each graph steps
    only through its own kept frames, in order, and only over its own states.
    The graphs are ordered by kept count and their states laid end to end;
    step t then runs over the W_t states whose graphs keep more than t
    frames, a prefix. A cell is one (step, live state) pair, so the work is
    the sum over graphs of states times kept frames.

    Forward and backward run fused, over s steps: iteration i computes alpha
    at step i and beta at step s-2-i in one log-add. The storage is one
    (s+1, 2N) array whose row k holds [beta + emit at step s-1-k, states
    reversed | alpha at step k-1], centred on column N. Both halves read a
    row through the batch's slot table, each offset added to its column:
    column N-1-n holds state n's out-arcs as N-1 minus their destination,
    column N+n its in-arcs as N plus their source. So iteration i reads row
    i through the columns [N - W_(s-1-i), N + W_i) and writes the same
    columns of row i+1. A row spans every state, so a padded batch reserves
    columns that it never writes. Pure alpha and beta are copied out, cells
    in time-major order, for the occupancy. A graph's total is read after
    its last kept frame, where its beta is seeded with the final weights.

    The buffers belong to the layout and each run overwrites all it reads,
    so one layout serves any number of runs in turn, but not two at once.
    """

    def __init__(self, batch: GraphBatch, keep):
        self.keep = np.array(keep, dtype=bool)
        if self.keep.ndim != 2 or len(self.keep) != len(batch.states):
            raise ValueError(f"keep must be a ({len(batch.states)}, T) mask, not {self.keep.shape}")
        self.keep.flags.writeable = False
        self.shape = (*self.keep.shape, batch.classes)
        kept = self.keep.sum(axis=1)
        row_start = np.cumsum(kept) - kept  # each row's first entry in flatnonzero(keep)
        order = np.argsort(-kept, kind="stable")
        self.unorder = np.argsort(order)
        kept, states = kept[order], batch.states[order]
        # The graphs' states end to end in ``order``: the n-th is packed
        # state node[n].
        nodes = int(states.sum())
        self.starts = np.cumsum(states) - states
        packed = np.cumsum(batch.states) - batch.states
        state = np.arange(nodes)
        node = state + np.repeat(packed[order] - self.starts, states)
        sym, self.fin = batch.sym[node], batch.fin[node]
        # The slot table: pack's columns in the layout's order, each offset
        # added to its own column. ``take`` keeps the tables C-ordered.
        column = np.concatenate([node[::-1], nodes + node])
        index = np.arange(2 * nodes) + batch.offset.take(column, axis=1)
        weight = batch.weight.take(column, axis=1)

        steps = int(kept[0])
        live = np.arange(steps)[:, None] < kept  # (steps, B)
        step_of, self.graph_of = np.nonzero(live)  # the live (step, graph) pairs, time-major
        self.count, width = states[self.graph_of], live @ states
        first = np.concatenate(([0], np.cumsum(width)))  # each step's first cell
        # Each cell's flat index into the (B, T, C) grids: its graph's kept
        # frame at its step, read from the kept frames' flat indices listed
        # row by row, then its state's symbol. The leading 0 keeps the list
        # non-empty when no graph keeps a frame.
        frame = np.flatnonzero(self.keep)[row_start[order[self.graph_of]] + step_of]
        self.cell = np.repeat(frame * batch.classes, self.count)
        self.cell += np.concatenate([sym[:n] for n in [0, *width.tolist()]])
        self.emit, self.alpha, self.beta = (np.empty(first[-1]) for _ in range(3))

        # Row k is [beta + emit at step s-1-k | alpha at step k-1], centred
        # on column N; row 0's alpha, over every state, is the initial one.
        self.fused = np.empty((steps + 1, 2 * nodes))
        self.fused[0, nodes:] = -np.inf
        self.fused[0, nodes + self.starts] = 0.0
        # A graph's beta at its last kept frame is its final weights, and its
        # total is read from alpha there; both by flat index into the rows.
        state_kept = np.repeat(kept, states)
        self.end = state_kept * 2 * nodes + nodes + state
        ends = state_kept > 0
        self.last = first[state_kept[ends] - 1] + state[ends]
        self.last_at = (steps - state_kept[ends]) * 2 * nodes + nodes - 1 - state[ends]
        self.last_fin = self.fin[ends]
        self.beta[self.last] = self.last_fin

        # Iteration i's table columns and output row, the output split into
        # its backward and forward halves, and the cells of each half.
        self.sweep = []
        for i, ahead_w in enumerate(width.tolist()):
            back_w = int(width[steps - 1 - i]) if i < steps - 1 else 0
            cols = slice(nodes - back_w, nodes + ahead_w)
            out = self.fused[i + 1, cols]
            prior = first[steps - 2 - i] if back_w else 0  # the first cell of step s-2-i
            behind = slice(prior, prior + back_w)
            here = slice(first[i], first[i + 1])
            self.sweep.append((
                self.fused[i], index[:, cols], weight[:, cols], out,
                out[:back_w], self.beta[behind][::-1], self.emit[behind][::-1],
                out[back_w:], self.alpha[here], self.emit[here],
            ))

    def run(self, grids) -> tuple[np.ndarray, np.ndarray]:
        """Log-total per graph and (B, T, C) symbol occupancy of (B, T, C)
        grids over the kept frames; a dropped frame's occupancy is 0. Raises
        :class:`NoPathError` if a graph has no path through its kept frames."""
        grids = np.asarray(grids, dtype=float)
        if grids.shape != self.shape:
            raise ValueError(f"grids must be {self.shape}, not {grids.shape}")
        emit = np.take(grids, self.cell, out=self.emit, mode="clip")
        flat = self.fused.reshape(-1)
        flat[self.last_at] = self.last_fin + emit[self.last]
        # The only NaN is a dead state's shifted slot, -inf - -inf, in
        # _log_add_arcs; its clamp absorbs it.
        with np.errstate(invalid="ignore"):
            for step in self.sweep:
                src, index, weight, out, back, beta, back_emit, ahead, alpha, ahead_emit = step
                _log_add_arcs(src, index, weight, out)
                beta[...] = back
                back += back_emit
                ahead += ahead_emit
                alpha[...] = ahead
        total = np.logaddexp.reduceat(flat[self.end] + self.fin, self.starts)
        # Checked before occupancy is formed, where -inf - -inf would be NaN.
        if (total == -np.inf).any():
            raise NoPathError("a graph in the batch has no path through its kept frames")
        post = self.alpha  # not read again before the next run writes it
        post += self.beta
        post -= np.repeat(total[self.graph_of], self.count)
        np.exp(post, out=post)
        occupancy = np.bincount(self.cell, post, minlength=grids.size).reshape(grids.shape)
        return total[self.unorder], occupancy


def _log_add_arcs(src, index, weight, out) -> None:
    """Write ``log(sum_j exp(src[index[j]] + weight[j]))`` into ``out``.

    The arc slots j are shifted by their max, so the largest term is
    exp(0) = 1 and the sum is at least 1, and clamped at -50 nats before
    ``np.exp``. A term of e^-50 (about 2^-72) cannot move a bit of a sum of
    at least 1 unless there are 2^18 such terms, and the clamp keeps -inf
    out of ``np.exp``, where it is slow. A state whose slots are all -inf
    shifts to NaN, clamps to -50 and comes out exactly -inf. Callers silence
    the "invalid" warning of that NaN.
    """
    arcs = src.take(index)
    arcs += weight
    top = arcs.max(axis=0)
    arcs -= top
    np.fmax(arcs, -50.0, out=arcs)
    np.exp(arcs, out=arcs)
    np.log(arcs.sum(axis=0), out=out)
    out += top


def _slots(column, offset, weight, width) -> tuple[np.ndarray, np.ndarray]:
    """Arc-major (J, width) tables of the arcs' offsets and weights, each arc
    slotted in its column in the given order; padding is offset 0, -inf."""
    order = np.argsort(column, kind="stable")
    column = column[order]
    slot = np.arange(len(column)) - np.searchsorted(column, column)  # rank within the column
    # At least one row, all padding when no graph has an arc.
    offsets = np.zeros((slot.max(initial=0) + 1, width), dtype=np.intp)
    weights = np.full(offsets.shape, -np.inf)
    offsets[slot, column] = offset[order]
    weights[slot, column] = weight[order]
    return offsets, weights


def pack(chains: Sequence[tuple], num_classes: int) -> GraphBatch:
    """Pack state-emitting graphs for grids of ``num_classes`` symbols. Each
    is ``(arcs, syms, finals)`` as :func:`ctcfst.topology._chain` writes the
    CTC chain it decides: arcs ``(src, dst, weight)`` out of start state 0,
    the symbol each state's in-arcs read and the final states. One
    :func:`_slots` call over the arcs listed twice writes the slot table, in
    the arcs' order. A graph may have no arc; its only path reads 0 frames.
    Raises ``ValueError`` for an empty batch or a symbol outside 0..C-1.
    """
    if not chains:
        raise ValueError("pack needs at least one graph")
    arcs, syms, finals = zip(*chains)
    states = np.array([len(s) for s in syms])
    base = np.cumsum(states) - states
    nodes = int(states.sum())
    sym = np.fromiter(itertools.chain.from_iterable(syms), np.intp, nodes)
    bad = sym[(sym < 0) | (sym >= num_classes)]
    if bad.size:
        raise ValueError(f"chain symbol {bad[0]} outside 0..{num_classes - 1}")
    # ``_chain`` sorts its arcs by (source, destination), and the slots keep that order.
    src, dst, weight = np.array(list(itertools.chain.from_iterable(arcs)), float).reshape(-1, 3).T
    shift = np.repeat(base, [len(a) for a in arcs])
    src, dst = src.astype(np.intp) + shift, dst.astype(np.intp) + shift
    column = np.concatenate([src, nodes + dst])  # leaving src, entering dst
    offset, weight = _slots(column, np.tile(src - dst, 2), np.tile(weight, 2), 2 * nodes)
    fin = np.full(nodes, -np.inf)
    final = np.fromiter(itertools.chain.from_iterable(finals), np.intp)
    fin[final + np.repeat(base, [len(f) for f in finals])] = 0.0
    return GraphBatch(sym, offset, weight, fin, states, num_classes)


@dataclass
class LossResult:
    """Loss plus its analytic derivatives.

    ``occupancy[t][k]`` is the posterior probability that a valid alignment
    emits symbol k at frame t; rows sum to 1. ``grad_logits`` is the gradient
    of the loss w.r.t. pre-softmax logits (softmax minus occupancy), valid
    when the grid came from :func:`log_softmax`; rows sum to 0.
    """

    loss: float
    grad_logits: np.ndarray
    occupancy: np.ndarray


def log_softmax(logits) -> np.ndarray:
    """Log-softmax over the last axis of an array of any rank >= 1, shifted by
    the max so +-700 inputs are safe; the result keeps the input's layout."""
    logits = np.asarray(logits, dtype=float)
    if logits.ndim == 0:
        raise ValueError("logits must have at least one axis, got a scalar")
    finite = np.isfinite(logits)
    if not finite.all():
        raise ValueError(f"logits must be finite: {first_bad(finite, logits)}")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def batch_loss(layout: Layout, logp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row loss, logit gradient and occupancy of (B, T, C) log-softmax
    grids over the layout's kept frames, as in :meth:`Layout.run`. The
    gradient is softmax minus occupancy on kept frames, 0 on dropped ones."""
    total, occupancy = layout.run(logp)
    return -total, np.where(layout.keep[:, :, None], np.exp(logp) - occupancy, 0.0), occupancy


def ctc_loss(
    labels: Sequence[int], grid, variant: TopologyVariant = STANDARD
) -> LossResult:
    """Exact CTC loss with occupancy and logit gradients.

    Raises :class:`InfeasibleAlignmentError` when no alignment of the labels
    fits in the grid's frames (e.g. too few frames), mirroring practical CTC
    implementations that expect callers to filter such utterances.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError(f"grid must be a T x (V+1) matrix, not {grid.shape}")
    finite = np.isfinite(grid)
    if not finite.all():
        raise ValueError(f"grid must be finite: {first_bad(finite, grid)}")
    num_frames, num_cols = grid.shape
    chain = _chain(labels, variant, num_frames, num_cols - 1)
    layout = pack([chain], num_cols).layout(np.ones((1, num_frames), bool))
    try:
        loss, grad, occupancy = batch_loss(layout, grid[None])
    except NoPathError:
        raise InfeasibleAlignmentError(num_frames, len(labels), variant) from None
    return LossResult(float(loss[0]), grad[0], occupancy[0])


def grad_check(
    labels: Sequence[int],
    logits,
    variant: TopologyVariant = STANDARD,
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The chain is built once, packed and laid out as 2C copies; each frame t
    runs that layout on its C up- and C down-bumped logit grids and reads
    only the totals, the loss being minus the total. Each quotient divides
    by the step the rounded bumps made, not by 2 epsilon.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be a finite positive number, got {format_number(epsilon)}")
    logits = np.asarray(logits, dtype=float)
    analytic = ctc_loss(labels, log_softmax(logits), variant).grad_logits
    with np.errstate(over="ignore", invalid="ignore"):
        up = logits + epsilon
        down = up - 2 * epsilon
        step = up - down
    moved = (0 < step) & (step < np.inf)  # not rounded away, not overflowed
    if not moved.all():
        raise ValueError(
            f"epsilon {format_number(epsilon)} leaves a logit unmoved or past the float "
            f"range: {first_bad(moved, logits)}"
        )
    frames, classes = logits.shape
    chain = _chain(labels, variant, frames, classes - 1)
    layout = pack([chain] * 2 * classes, classes).layout(np.ones((2 * classes, frames), bool))
    cols = np.arange(classes)
    numeric = np.empty_like(analytic)
    for t in range(frames):
        bumped = np.repeat(logits[None], 2 * classes, axis=0)
        bumped[cols, t, cols] = up[t]
        bumped[classes + cols, t, cols] = down[t]
        total = layout.run(log_softmax(bumped))[0]
        numeric[t] = (total[classes:] - total[:classes]) / step[t]
    return float((np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)).max())


def greedy_decode(grid) -> list[int]:
    """Per-frame argmax followed by CTC collapse."""
    grid = np.asarray(grid, dtype=float)
    return collapse_ctc(int(k) for k in grid.argmax(axis=1))
