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

from .fsa import first_bad

# Published reference value for the maximum possible reduction ratio on the
# LibriSpeech test sets at a 25 Hz frame rate; documented for context only,
# never recomputed here.
REFERENCE_CORPUS_GAMMA_MAX = 0.7861

SWEEP_BETAS = (0.8, 0.85, 0.9, 0.95, 0.99, 0.999)


def _check_threshold(value: float, name: str = "threshold") -> None:
    """The one (0, 1) test of a threshold, ``skip_beta`` and ``betas`` alike."""
    if not 0.0 < value < 1.0:  # NaN fails too
        raise ValueError(f"{name} must lie in (0, 1), got {value:g}")


def classify_blank_frames(blank_probs, beta: float) -> np.ndarray:
    """Bool mask, shaped like ``blank_probs`` (any shape), of the frames whose blank
    probability strictly exceeds ``beta``: every skip decision, trainer and sweep."""
    _check_threshold(beta)
    probs = np.asarray(blank_probs, dtype=float)
    if probs.size == 0:
        raise ValueError("blank_probs must be non-empty")
    valid = (probs >= 0.0) & (probs <= 1.0)  # NaN fails both tests
    if not valid.all():
        raise ValueError(f"blank probabilities must lie in [0, 1]: {first_bad(valid, probs)}")
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
    blank_probs, token_count: int, betas: Sequence[float] = SWEEP_BETAS
) -> list[SweepPoint]:
    """Corpus reduction ratio (skipped over all frames) and gamma_max at each of
    ``betas``; ``blank_probs`` is 1-D, one entry per frame of the corpus."""
    if len(betas) == 0:  # a report reads gamma_max from the first row
        raise ValueError("betas must not be empty")
    for beta in betas:
        _check_threshold(beta)
    if np.ndim(blank_probs) != 1:
        raise ValueError("blank_probs must be 1-D")
    frames = len(blank_probs)
    corpus_gamma = gamma_max(token_count, frames)
    return [
        SweepPoint(beta, int(classify_blank_frames(blank_probs, beta).sum()) / frames, corpus_gamma)
        for beta in betas
    ]
