import math

import numpy as np
import pytest

from ctcfst import topology


def uniform_grid(frames: int, classes: int) -> np.ndarray:
    return np.full((frames, classes), math.log(1.0 / classes))


def random_grid(rng: np.random.Generator, frames: int, classes: int) -> np.ndarray:
    """Row-normalized log-probabilities."""
    logits = rng.standard_normal((frames, classes))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


@pytest.fixture
def no_fst(monkeypatch):
    """Fail the test if the topology module builds any graph."""

    def refuse():
        raise AssertionError("an Fst was built")

    monkeypatch.setattr(topology, "Fst", refuse)
