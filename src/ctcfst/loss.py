"""CTC negative log-likelihood and analytic gradients under any topology.

One call, :func:`batch_loss`, on one batched forward-backward engine
(:func:`pack` and :meth:`GraphBatch.total_and_occupancy`) gives per-row
losses, occupancy and masked logit gradients. It serves :func:`ctc_loss`, as
a batch of one with every frame kept, :func:`grad_check`, as one batch of
bumped grids per frame, and the toy trainer, which masks out its padding and
skipped frames. Three independent implementations cross-check it in the
tests: the generic lattice of :mod:`ctcfst.lattice`, the classic alpha
recursion over the 2U+1 expanded label sequence (standard topology only) and
a brute-force sum over enumerated alignments (all variants, small instances).
"""

from __future__ import annotations

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
    hard runs. Arrays are padded to the largest graph with arcless states and
    -inf arcs. Arcs are stored arc-major, one contiguous (B, S) slot per arc
    index, and their endpoints are flat indices into a (batch, states) array.
    Each recursion step gathers all slots at once and log-adds them in one
    max-shifted sum over the slot axis (:func:`_log_add_arcs`).
    """

    sym: np.ndarray  # (B, S) input symbol of every arc entering the state
    in_src: np.ndarray  # (J, B, S) flat source of the j-th arc entering the state
    in_w: np.ndarray  # (J, B, S) its weight
    out_dst: np.ndarray  # (K, B, S) flat destination of the k-th arc leaving it
    out_w: np.ndarray  # (K, B, S) its weight
    fin: np.ndarray  # (B, S) final weight of the state, -inf if it is not final
    onehot: np.ndarray  # (B, S, C) state-to-symbol map

    def total_and_occupancy(self, grids, keep) -> tuple[np.ndarray, np.ndarray]:
        """Log-total per graph and (B, T, C) symbol occupancy of (B, T, C) grids.

        ``keep`` is a (B, T) boolean mask of the frames each graph consumes. A
        dropped frame, whether past an utterance's end or skipped, is an
        identity step: alpha and beta pass through it unchanged, its grid row
        has no effect and its occupancy is 0. So each row's kept frames are
        moved to the front in order, and the recursion runs over the largest
        kept count only. Raises :class:`NoPathError` if a graph has no path
        through its kept frames.
        """
        batch, frames = keep.shape
        kept = keep.sum(axis=1)
        steps = int(kept.max(initial=0))
        # Flat (batch * frames) index of each graph's kept frames, in order;
        # past its own kept count a graph runs identity steps on dropped ones.
        at = np.argsort(~keep, axis=1, kind="stable")[:, :steps]
        at += np.arange(batch)[:, None] * frames
        live = np.arange(steps) < kept[:, None]
        drop = ~live.T[:, :, None]
        emit = grids.reshape(batch * frames, -1)[at.T[:, :, None], self.sym]  # (F, B, S)
        alpha = np.full((steps + 1,) + self.sym.shape, -np.inf)
        alpha[0, :, 0] = 0.0
        # The only NaN is a dead state's shifted slot, -inf - -inf, in
        # _log_add_arcs; its clamp absorbs it.
        with np.errstate(invalid="ignore"):
            for t in range(steps):
                _log_add_arcs(alpha[t].ravel(), self.in_src, self.in_w, alpha[t + 1])
                alpha[t + 1] += emit[t]
                np.copyto(alpha[t + 1], alpha[t], where=drop[t])
        total = np.logaddexp.reduce(alpha[steps] + self.fin, axis=1)
        # Checked before occupancy is formed, where -inf - -inf would be NaN.
        if (total == -np.inf).any():
            raise NoPathError("a graph in the batch has no path through its kept frames")
        beta = np.empty_like(alpha)
        beta[steps] = self.fin
        with np.errstate(invalid="ignore"):  # as in the forward loop
            for t in range(steps - 1, -1, -1):
                _log_add_arcs((beta[t + 1] + emit[t]).ravel(), self.out_dst, self.out_w, beta[t])
                np.copyto(beta[t], beta[t + 1], where=drop[t])
        post = np.exp(alpha[1:] + beta[1:] - total[:, None])
        occupancy = np.zeros((batch * frames, self.onehot.shape[2]))
        occupancy[at] = np.where(
            live[:, :, None], np.matmul(post.transpose(1, 0, 2), self.onehot), 0.0
        )
        return total, occupancy.reshape(batch, frames, -1)


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


def _padded(arcs: list[list[tuple[int, float]]], shape) -> tuple[np.ndarray, np.ndarray]:
    width = max(1, max(len(lst) for lst in arcs))
    index = np.zeros((width, len(arcs)), dtype=np.intp)
    weight = np.full((width, len(arcs)), -np.inf)
    for i, lst in enumerate(arcs):
        for j, (k, w) in enumerate(lst):
            index[j, i], weight[j, i] = k, w
    return index.reshape(width, *shape), weight.reshape(width, *shape)


def pack(
    label_seqs: Sequence[Sequence[int]], variant: TopologyVariant, num_frames: int, num_classes: int
) -> GraphBatch:
    """Pack the CTC chains of ``label_seqs`` for (num_frames, num_classes) grids.

    The chains are :func:`ctcfst.topology._chain`'s for ``num_frames``
    frames; the tests hold them to :func:`build_training_graph`. Raises
    ``ValueError`` for a label outside 1..``num_classes - 1``.
    """
    for labels in label_seqs:
        _validate_labels(labels, num_classes - 1)
    chains = [_chain(labels, variant, num_frames) for labels in label_seqs]
    batch, states = len(chains), max(len(syms) for _, syms, _ in chains)
    sym = np.zeros((batch, states), dtype=np.intp)
    fin = np.full((batch, states), -np.inf)
    ins: list[list[tuple[int, float]]] = [[] for _ in range(batch * states)]
    outs: list[list[tuple[int, float]]] = [[] for _ in range(batch * states)]
    for n, (arcs, syms, finals) in enumerate(chains):
        base = n * states
        sym[n, : len(syms)] = syms
        fin[n, finals] = 0.0
        for src, dst, weight in arcs:
            ins[base + dst].append((base + src, weight))
            outs[base + src].append((base + dst, weight))
    in_src, in_w = _padded(ins, (batch, states))
    out_dst, out_w = _padded(outs, (batch, states))
    onehot = (sym[:, :, None] == np.arange(num_classes)).astype(float)
    return GraphBatch(sym, in_src, in_w, out_dst, out_w, fin, onehot)


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
    """Parse the matrix text format produced by :func:`format_matrix`."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2 or not all(token.isdecimal() for token in header):
        raise ValueError(f"malformed matrix header: {lines[0]!r}")
    rows, cols = int(header[0]), int(header[1])
    body = lines[1:]
    if len(body) != rows:
        raise ValueError(f"expected {rows} matrix rows, found {len(body)}")
    if not body:
        return np.empty((0, cols))
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
