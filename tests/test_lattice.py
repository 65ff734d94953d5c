import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_grid, uniform_grid
from ctcfst import (
    STANDARD,
    Fst,
    NoPathError,
    build_chain,
    hard,
    log_softmax,
    soft,
)
from ctcfst.fsa import TERMINAL
from ctcfst.lattice import intersect_dense, iterate_paths, occupancy, total_score
from ctcfst.reference import (
    _soft_penalty, brute_force_alignments, brute_force_loss, build_training_graph
)


def make_lattice(labels, grid, variant=STANDARD):
    return intersect_dense(build_training_graph(labels, grid.shape[1] - 1, variant), grid)


@pytest.fixture
def uniform_ab():
    """The five-alignment lattice: labels (1, 2), T=3, uniform log(1/3)."""
    return make_lattice([1, 2], uniform_grid(3, 3))


class TestIntersectDense:
    def test_uniform_lattice_has_exactly_five_paths(self, uniform_ab):
        paths = list(iterate_paths(uniform_ab))
        assert len(paths) == 5
        assert {p for p, _ in paths} == {
            (0, 1, 2),
            (1, 0, 2),
            (1, 2, 0),
            (1, 1, 2),
            (1, 2, 2),
        }

    def test_too_few_frames_gives_empty_lattice(self):
        lat = make_lattice([1, 2], uniform_grid(1, 3))
        assert list(iterate_paths(lat)) == []
        with pytest.raises(NoPathError):
            total_score(lat)

    def test_hard1_keeps_three_paths(self):
        lat = make_lattice([1, 2], uniform_grid(3, 3), hard(1))
        assert len(list(iterate_paths(lat))) == 3

    def test_every_path_consumes_all_frames(self, uniform_ab):
        for labels, _ in iterate_paths(uniform_ab):
            assert len(labels) == 3

    def test_non_finite_grid_rejected(self):
        grid = uniform_grid(3, 3)
        grid[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            make_lattice([1, 2], grid)

    def test_label_outside_grid_rejected(self):
        graph = build_training_graph([1, 3], 3)
        with pytest.raises(ValueError, match="outside grid columns 0..2"):
            intersect_dense(graph, uniform_grid(3, 3))


class TestForwardBackward:
    def test_total_matches_closed_form(self, uniform_ab):
        assert total_score(uniform_ab) == pytest.approx(math.log(5 / 27), abs=1e-12)

    def test_single_path_lattice_scores(self):
        grid = random_grid(np.random.default_rng(1), 2, 3)
        lat = make_lattice([1, 2], grid)  # T == U: only the exact alignment
        (labels, weight), = iterate_paths(lat)
        assert labels == (1, 2)
        assert weight == pytest.approx(grid[0, 1] + grid[1, 2], abs=1e-12)
        assert total_score(lat) == pytest.approx(weight, abs=1e-12)

    def test_total_matches_enumerated_paths(self):
        # Oracle: exhaustive path enumeration, log-sum-exp by hand.
        rng = np.random.default_rng(11)
        for variant in (STANDARD, soft(0.7), hard(1), hard(2)):
            for _ in range(10):
                frames = int(rng.integers(2, 7))
                labels = list(rng.integers(1, 4, size=rng.integers(1, 4)))
                lat = make_lattice(labels, random_grid(rng, frames, 4), variant)
                scores = [s for _, s in iterate_paths(lat)]
                if not scores:
                    continue
                shift = max(scores)
                expect_log = shift + math.log(sum(math.exp(s - shift) for s in scores))
                assert total_score(lat) == pytest.approx(expect_log, abs=1e-9)

    def test_non_topological_numbering_accepted(self):
        # start 0 -> 2 -> final 1: numbered out of order, one path of weight -0.5.
        fst = Fst()
        for _ in range(3):
            fst.add_state()
        fst.start, fst.final = 0, 1
        fst.add_arc(0, 2, 1, 1, -0.5)
        fst.add_arc(2, 1, TERMINAL, 0)
        grid = np.log([[0.25, 0.75]])
        lat = intersect_dense(fst, grid)
        assert total_score(lat) == pytest.approx(-0.5 + math.log(0.75), abs=1e-12)
        assert occupancy(lat) == pytest.approx(np.array([[0.0, 1.0]]))


class TestArcPosteriors:
    """Arc posteriors summed per (frame, symbol): the oracle's occupancy."""

    def test_single_path_posteriors_are_one(self):
        lat = make_lattice([1, 2], random_grid(np.random.default_rng(2), 2, 3))
        assert occupancy(lat) == pytest.approx(np.array([[0, 1, 0], [0, 0, 1]]))

    def test_uniform_lattice_frame0_split(self, uniform_ab):
        # Of the five equal paths, one starts with blank and four with token 1.
        frame0 = occupancy(uniform_ab)[0]
        assert frame0[0] == pytest.approx(1 / 5, abs=1e-12)
        assert frame0[1] == pytest.approx(4 / 5, abs=1e-12)
        assert frame0[2] == 0.0

    def test_per_frame_posteriors_sum_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            frames = int(rng.integers(2, 8))
            labels = list(rng.integers(1, 4, size=rng.integers(1, 4)))
            lat = make_lattice(labels, random_grid(rng, frames, 4))
            try:
                post = occupancy(lat)
            except NoPathError:
                continue
            assert post.sum(axis=1) == pytest.approx(np.ones(frames), abs=1e-8)

    def test_empty_lattice_raises(self):
        with pytest.raises(NoPathError):
            occupancy(make_lattice([1, 2], uniform_grid(1, 3)))


VOCAB = 3


class TestAgainstBruteForce:
    """The dense oracle against the enumerated alignment set and the
    brute-force sum over it, on both graph builders."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        build=st.sampled_from([build_training_graph, build_chain]),
        labels=st.lists(st.integers(1, VOCAB), max_size=3),
        frames=st.integers(1, 7),
        variant=st.sampled_from([STANDARD, soft(0.7), soft(5.0), hard(1), hard(2), hard(3)]),
        scale=st.sampled_from([1.0, 30.0, 700.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(  # one frame short of the shortest alignment
        build=build_training_graph, labels=[1, 1, 2], frames=3, variant=hard(1), scale=700.0,
        seed=0,
    )
    def test_totals_occupancy_and_paths(self, build, labels, frames, variant, scale, seed):
        rng = np.random.default_rng(seed)
        grid = log_softmax(rng.uniform(-scale, scale, (frames, VOCAB + 1)))
        lat = intersect_dense(build(labels, VOCAB, variant), grid)
        alignments = brute_force_alignments(labels, frames, variant)
        paths = dict(iterate_paths(lat))
        assert set(paths) == alignments
        if not alignments:
            for score in (total_score, occupancy):
                with pytest.raises(NoPathError):
                    score(lat)
            return
        total = total_score(lat)
        want_total = -brute_force_loss(labels, grid, variant)
        assert total == pytest.approx(want_total, rel=1e-12, abs=1e-9)
        want = np.zeros_like(grid)
        for pi in alignments:
            score = sum(grid[t, k] for t, k in enumerate(pi))
            if variant.kind == "soft":
                score -= _soft_penalty(pi, variant.penalty)
            assert paths[pi] == pytest.approx(score, rel=1e-12, abs=1e-9)
            want[np.arange(frames), pi] += math.exp(score - total)
        assert occupancy(lat) == pytest.approx(want, abs=1e-9)
