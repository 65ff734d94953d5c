"""Blank-frame classification and reduction-ratio analysis.

A frame whose blank probability strictly exceeds the threshold is classified
as a blank frame (:func:`classify_blank_frames`, the one skip rule): the
trainer drops it from its keep mask, and the sweep counts it as discarded.
The frame reduction ratio is the discarded fraction; its theoretical maximum
for an utterance is ``1 - S/T`` where S is the output token count.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

# Published reference value for the maximum possible reduction ratio on the
# LibriSpeech test sets at a 25 Hz frame rate; documented for context only,
# never recomputed here.
REFERENCE_CORPUS_GAMMA_MAX = 0.7861

SWEEP_BETAS = (0.8, 0.85, 0.9, 0.95, 0.99, 0.999)


def _check_threshold(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {beta}")


def classify_blank_frames(blank_probs, beta: float) -> np.ndarray:
    """Bool mask, shaped like ``blank_probs`` (any shape), of the frames whose blank
    probability strictly exceeds ``beta``: every skip decision, trainer and sweep."""
    _check_threshold(beta)
    probs = np.asarray(blank_probs, dtype=float)
    if probs.size == 0:
        raise ValueError("blank_probs must be non-empty")
    if not ((probs >= 0.0) & (probs <= 1.0)).all():  # NaN fails both tests
        raise ValueError("blank probabilities must lie in [0, 1]")
    return probs > beta


def gamma_max(token_count: int, frame_count: int) -> float:
    """Maximum possible reduction ratio, 1 - tokens/frames."""
    if frame_count <= 0:
        raise ValueError("frame_count must be positive")
    if not 0 <= token_count <= frame_count:
        raise ValueError(
            f"token_count must lie in [0, {frame_count}], got {token_count}"
        )
    return 1.0 - token_count / frame_count


class SweepPoint(NamedTuple):
    beta: float
    ratio: float
    gamma_max: float


def sweep_thresholds(
    blank_prob_sets: Sequence[Sequence[float]],
    label_counts: Sequence[int],
    betas: Sequence[float] = SWEEP_BETAS,
) -> list[SweepPoint]:
    """Corpus-level reduction ratio at each threshold.

    The ratio aggregates frames, not utterances: total skipped over total
    frames. One row per threshold, each carrying the corpus gamma_max.
    """
    if len(blank_prob_sets) == 0:
        raise ValueError("empty corpus")
    if len(blank_prob_sets) != len(label_counts):
        raise ValueError("one label count per utterance required")
    total_frames = sum(len(p) for p in blank_prob_sets)
    corpus_gamma = gamma_max(sum(label_counts), total_frames)
    for beta in betas:
        _check_threshold(beta)
    if any(np.ndim(p) != 1 or len(p) == 0 for p in blank_prob_sets):
        raise ValueError("blank_probs must be a non-empty 1-D sequence")
    probs = np.concatenate(blank_prob_sets)
    return [
        SweepPoint(beta, int(classify_blank_frames(probs, beta).sum()) / total_frames, corpus_gamma)
        for beta in betas
    ]
