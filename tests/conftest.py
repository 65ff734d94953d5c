import math

import numpy as np
import pytest

from ctcfst import topology
from ctcfst.loss import pack


def uniform_grid(frames: int, classes: int) -> np.ndarray:
    return np.full((frames, classes), math.log(1.0 / classes))


def random_grid(rng: np.random.Generator, frames: int, classes: int) -> np.ndarray:
    """Row-normalized log-probabilities."""
    logits = rng.standard_normal((frames, classes))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def pack_labels(label_seqs, variant, frames: int, classes: int):
    """Pack the CTC chains of ``label_seqs`` as the engine's callers do: each
    chain from ``topology._chain`` for ``frames`` frames and ``classes - 1``
    labels, packed for grids of ``classes`` symbols."""
    chains = [topology._chain(labels, variant, frames, classes - 1) for labels in label_seqs]
    return pack(chains, classes)


@pytest.fixture
def no_fst(monkeypatch):
    """Fail the test if the topology module builds any graph."""

    def refuse():
        raise AssertionError("an Fst was built")

    monkeypatch.setattr(topology, "Fst", refuse)
