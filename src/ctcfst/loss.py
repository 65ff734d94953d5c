"""CTC negative log-likelihood and analytic gradients under any topology.

One call, :func:`batch_loss`, on one batched forward-backward engine
(:func:`pack` and :meth:`GraphBatch.total_and_occupancy`) gives per-row
losses, occupancy and masked logit gradients. It serves :func:`ctc_loss`, as
a batch of one with every frame kept, :func:`grad_check`, as one batch of
bumped grids per frame, and the toy trainer, which masks out its padding and
skipped frames. The engine lays each batch out ragged, so its work is the sum
over graphs of states times kept frames, whatever the padding. Three
independent implementations cross-check it in the tests: the generic lattice
of :mod:`ctcfst.lattice`, the classic alpha recursion over the 2U+1 expanded
label sequence (standard topology only) and a brute-force sum over
enumerated alignments (all variants, small instances).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleAlignmentError, NoPathError
from .topology import (
    STANDARD, TopologyVariant, _chain, _validate_labels, collapse_ctc, enumerate_alignments
)


@dataclass(frozen=True)
class GraphBatch:
    """CTC chains packed by :func:`pack` for batched forward-backward.

    All arcs entering a state carry one input symbol, so a state scores its
    symbol's grid entry at each frame: the state-emitting recursion of Graves
    et al. 2006 (section 4.1), generalised from the 2U+1 chain to soft and
    hard runs. The graphs' N states lie end to end in batch order, and the
    arcs are stored arc-major: one (N,) slot per arc index, holding the
    offset of the arc's other end from the state, so the offsets hold however
    a call reorders whole graphs. A padded slot is offset 0 with weight -inf.
    """

    sym: np.ndarray  # (N,) input symbol of every arc entering the state
    in_src: np.ndarray  # (J, N) source offset of the j-th arc entering the state
    in_w: np.ndarray  # (J, N) its weight
    out_dst: np.ndarray  # (K, N) destination offset of the k-th arc leaving it
    out_w: np.ndarray  # (K, N) its weight
    fin: np.ndarray  # (N,) final weight of the state, -inf if it is not final
    states: np.ndarray  # (B,) state count of each graph

    def total_and_occupancy(self, grids, keep) -> tuple[np.ndarray, np.ndarray]:
        """Log-total per graph and (B, T, C) symbol occupancy of (B, T, C) grids.

        ``keep`` is a (B, T) boolean mask of the frames each graph consumes. A
        dropped frame, whether past an utterance's end or skipped, has no
        effect on the graph's total and its occupancy is 0, so each graph
        steps only through its own kept frames, in order, and only over its
        own states. The graphs are ordered by kept count and their states
        laid end to end; step t then runs over the prefix of states whose
        graphs keep more than t frames, and stores one cell per (step, live
        state): the work is the sum over graphs of states times kept frames.
        A graph's total is read after its last kept frame, where its beta is
        seeded with the final weights. Raises :class:`NoPathError` if a graph
        has no path through its kept frames.
        """
        frames = keep.shape[1]
        kept = keep.sum(axis=1)
        order = np.argsort(-kept, kind="stable")
        kept, states = kept[order], self.states[order]
        # The graphs' states end to end in ``order``: the n-th is packed
        # state node[n].
        nodes = int(states.sum())
        starts = np.cumsum(states) - states
        packed = np.cumsum(self.states) - self.states
        node = np.arange(nodes) + np.repeat(packed[order] - starts, states)
        in_src, out_dst = (arcs[:, node] + np.arange(nodes) for arcs in (self.in_src, self.out_dst))
        in_w, out_w = self.in_w[:, node], self.out_w[:, node]
        sym, fin = self.sym[node], self.fin[node]
        # Step t runs the graphs that keep more than t frames, a prefix of
        # ``order``, so a prefix of the states. alpha and beta are stored in
        # blocks: block 0 holds every state, block t + 1 the states live at
        # step t. A cell is one (step, live state) entry.
        live = np.arange(kept[0])[:, None] < kept  # (steps, B)
        step_of, graph_of = np.nonzero(live)  # the live (step, graph) pairs, time-major
        count, width = states[graph_of], live @ states
        bound = np.cumsum(np.concatenate(([0, nodes], width)))
        bounds = bound.tolist()
        end = bound[np.repeat(kept, states)] + np.arange(nodes)  # after the last kept frame
        # Each cell's flat index into the (B, T, C) grids: its graph's kept
        # frame at its step, then its state's symbol.
        rows = order[graph_of]
        frame = rows * frames + np.argsort(~keep, axis=1, kind="stable")[rows, step_of]
        cell = np.repeat(frame * grids.shape[2], count)
        # The leading 0 keeps the list non-empty when no graph keeps a frame.
        cell += np.concatenate([sym[:n] for n in [0, *width.tolist()]])
        emit = grids.take(cell)
        alpha = np.full(bounds[-1], -np.inf)
        alpha[starts] = 0.0
        # The only NaN is a dead state's shifted slot, -inf - -inf, in
        # _log_add_arcs; its clamp absorbs it.
        with np.errstate(invalid="ignore"):
            for t in range(len(width)):
                lo, hi = bounds[t + 1], bounds[t + 2]
                out = alpha[lo:hi]
                _log_add_arcs(alpha[bounds[t] : lo], in_src[:, : hi - lo], in_w[:, : hi - lo], out)
                out += emit[lo - nodes : hi - nodes]
        total = np.logaddexp.reduceat(alpha[end] + fin, starts)
        # Checked before occupancy is formed, where -inf - -inf would be NaN.
        if (total == -np.inf).any():
            raise NoPathError("a graph in the batch has no path through its kept frames")
        beta = np.empty_like(alpha)
        beta[end] = fin
        with np.errstate(invalid="ignore"):  # as in the forward loop
            for t in range(len(width) - 1, 0, -1):  # not beta[0]: no occupancy reads it
                lo, hi = bounds[t + 1], bounds[t + 2]
                src = beta[lo:hi] + emit[lo - nodes : hi - nodes]
                out = beta[bounds[t] : bounds[t] + hi - lo]
                _log_add_arcs(src, out_dst[:, : hi - lo], out_w[:, : hi - lo], out)
        post = alpha[nodes:]
        post += beta[nodes:]
        post -= np.repeat(total[graph_of], count)
        np.exp(post, out=post)
        occupancy = np.bincount(cell, post, minlength=grids.size).reshape(grids.shape)
        return total[np.argsort(order)], occupancy


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


def _slots(head, tail, weight, nodes) -> tuple[np.ndarray, np.ndarray]:
    """Arc-major (J, nodes) offsets ``tail - head`` and weights of the arcs,
    slotted by head state in their given order; padding is offset 0, -inf."""
    order = np.argsort(head, kind="stable")
    head, tail, weight = head[order], tail[order], weight[order]
    slot = np.arange(len(head)) - np.searchsorted(head, head)  # rank within the head's arcs
    offset = np.zeros((slot.max() + 1, nodes), dtype=np.intp)
    weights = np.full(offset.shape, -np.inf)
    offset[slot, head] = tail - head
    weights[slot, head] = weight
    return offset, weights


def pack(
    label_seqs: Sequence[Sequence[int]], variant: TopologyVariant, num_frames: int, num_classes: int
) -> GraphBatch:
    """Pack the CTC chains of ``label_seqs`` for (num_frames, num_classes) grids.

    The chains are :func:`ctcfst.topology._chain`'s for ``num_frames``
    frames; the tests hold them to :func:`build_training_graph`. A state's
    in-arcs take slots by increasing source, its out-arcs by increasing
    destination. Raises ``ValueError`` for a label outside 1..``num_classes - 1``.
    """
    for labels in label_seqs:
        _validate_labels(labels, num_classes - 1)
    arcs, syms, finals = zip(*(_chain(labels, variant, num_frames) for labels in label_seqs))
    states = np.array([len(s) for s in syms])
    base = np.cumsum(states) - states
    nodes = int(states.sum())
    # ``_chain`` sorts its arcs by (source, destination), and the slots keep that order.
    src, dst, weight = np.array(list(itertools.chain.from_iterable(arcs))).T
    shift = np.repeat(base, [len(a) for a in arcs])
    src, dst = src.astype(np.intp) + shift, dst.astype(np.intp) + shift
    in_src, in_w = _slots(dst, src, weight, nodes)
    out_dst, out_w = _slots(src, dst, weight, nodes)
    sym = np.fromiter(itertools.chain.from_iterable(syms), np.intp, nodes)
    fin = np.full(nodes, -np.inf)
    final = np.fromiter(itertools.chain.from_iterable(finals), np.intp)
    fin[final + np.repeat(base, [len(f) for f in finals])] = 0.0
    return GraphBatch(sym, in_src, in_w, out_dst, out_w, fin, states)


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
    if not np.isfinite(logits).all():
        raise ValueError("logits must be finite")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def batch_loss(batch: GraphBatch, logp, keep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row loss, logit gradient and occupancy of (B, T, C) log-softmax
    grids over their ``keep`` frames, as in :meth:`GraphBatch.total_and_occupancy`.
    The gradient is softmax minus occupancy on kept frames, 0 on dropped ones."""
    total, occupancy = batch.total_and_occupancy(logp, keep)
    return -total, np.where(keep[:, :, None], np.exp(logp) - occupancy, 0.0), occupancy


def ctc_loss(
    labels: Sequence[int], grid, variant: TopologyVariant = STANDARD
) -> LossResult:
    """Exact CTC loss with occupancy and logit gradients.

    Raises :class:`InfeasibleAlignmentError` when no alignment of the labels
    fits in the grid's frames (e.g. too few frames), mirroring practical CTC
    implementations that expect callers to filter such utterances.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.size == 0 or not np.isfinite(grid).all():
        raise ValueError(f"grid must be a finite T x (V+1) matrix, not {grid.shape}")
    num_frames, num_cols = grid.shape
    batch = pack([labels], variant, num_frames, num_cols)
    try:
        loss, grad, occupancy = batch_loss(batch, grid[None], np.ones((1, num_frames), bool))
    except NoPathError:
        raise InfeasibleAlignmentError(num_frames, len(labels), variant) from None
    return LossResult(float(loss[0]), grad[0], occupancy[0])


def ctc_loss_alpha(labels: Sequence[int], grid) -> float:
    """Standard-topology CTC loss via the classic forward recursion.

    Works over the blank-interleaved state sequence of length 2U+1; kept as
    an independent cross-check of :func:`ctc_loss`.
    """
    grid = np.asarray(grid, dtype=float)
    num_frames = grid.shape[0]
    ext = [0]
    for tok in labels:
        ext.extend((tok, 0))
    m = len(ext)
    neg_inf = float("-inf")
    alpha = np.full(m, neg_inf)
    alpha[0] = grid[0, 0]
    if m > 1:
        alpha[1] = grid[0, ext[1]]
    for t in range(1, num_frames):
        prev = alpha
        alpha = np.full(m, neg_inf)
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


def _soft_penalty(alignment: Sequence[int], penalty: float) -> float:
    # One penalty per non-blank self-loop traversal: run length minus one.
    total = 0.0
    prev = None
    for k in alignment:
        if k != 0 and k == prev:
            total += penalty
        prev = k
    return total


def brute_force_loss(
    labels: Sequence[int], grid, variant: TopologyVariant = STANDARD
) -> float:
    """Loss by direct summation over enumerated alignments (test oracle).

    Inherits the enumeration guard (frames <= 12, <= 4 distinct symbols).
    """
    grid = np.asarray(grid, dtype=float)
    num_frames = grid.shape[0]
    alignments = enumerate_alignments(labels, num_frames, variant)
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


def grad_check(
    labels: Sequence[int],
    logits,
    variant: TopologyVariant = STANDARD,
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The chain is packed once for 2C copies of the labels; each frame t runs
    one batch of its C up- and C down-bumped logit grids.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be a finite positive number, got {epsilon:g}")
    logits = np.asarray(logits, dtype=float)
    analytic = ctc_loss(labels, log_softmax(logits), variant).grad_logits
    with np.errstate(over="ignore"):
        if not np.isfinite(logits + epsilon - 2 * epsilon).all():
            raise ValueError(f"epsilon {epsilon:g} bumps a logit past the float range")
    frames, classes = logits.shape
    batch = pack([labels] * 2 * classes, variant, frames, classes)
    keep = np.ones((2 * classes, frames), dtype=bool)
    cols = np.arange(classes)
    numeric = np.empty_like(analytic)
    for t in range(frames):
        bumped = np.repeat(logits[None], 2 * classes, axis=0)
        up, down = bumped[:classes], bumped[classes:]
        up[cols, t, cols] += epsilon
        down[cols, t, cols] = up[cols, t, cols] - 2 * epsilon
        loss = batch_loss(batch, log_softmax(bumped), keep)[0]
        numeric[t] = (loss[:classes] - loss[classes:]) / (2 * epsilon)
    return float((np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)).max())


def greedy_decode(grid) -> list[int]:
    """Per-frame argmax followed by CTC collapse."""
    grid = np.asarray(grid, dtype=float)
    return collapse_ctc(int(k) for k in grid.argmax(axis=1))


def format_matrix(matrix) -> str:
    """Matrix text format: a ``T C`` header line, then T rows of C values."""
    matrix = np.asarray(matrix, dtype=float)
    rows, cols = matrix.shape
    row_format = " ".join(["%.12g"] * cols)
    lines = [f"{rows} {cols}"] + [row_format % tuple(row) for row in matrix.tolist()]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Parse the matrix text format produced by :func:`format_matrix`. A
    matrix needs at least one row and one column."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2 or not all(token.isdecimal() for token in header):
        raise ValueError(f"malformed matrix header: {lines[0]!r}")
    rows, cols = int(header[0]), int(header[1])
    if rows == 0 or cols == 0:
        raise ValueError(f"matrix needs at least one row and one column, got {rows} x {cols}")
    body = lines[1:]
    if len(body) != rows:
        raise ValueError(f"expected {rows} matrix rows, found {len(body)}")
    try:
        out = np.loadtxt(body, comments=None, ndmin=2)
    except ValueError:
        # Name the first short or long row; a value that is no number re-raises.
        for i, values in enumerate(line.split() for line in body):
            if len(values) != cols:
                raise _bad_width(i, len(values), cols) from None
        raise
    if out.shape[1] != cols:
        raise _bad_width(0, out.shape[1], cols)
    return out


def _bad_width(row: int, width: int, cols: int) -> ValueError:
    return ValueError(f"row {row} has {width} values, expected {cols}")
