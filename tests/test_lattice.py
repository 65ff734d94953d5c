import math

import numpy as np
import pytest

from conftest import random_grid, uniform_grid
from ctcfst import (
    Fst,
    Lattice,
    NoPathError,
    arc_posteriors,
    backward_scores,
    best_path,
    build_training_graph,
    forward_scores,
    hard,
    intersect_dense,
    iterate_paths,
    soft,
    total_score,
)
from ctcfst.fsa import TERMINAL


def make_lattice(labels, grid, variant=None):
    vocab = grid.shape[1] - 1
    kwargs = {} if variant is None else {"variant": variant}
    graph = build_training_graph(labels, vocab, **kwargs)
    return intersect_dense(graph, grid)


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
        assert lat.is_empty

    def test_hard1_keeps_three_paths(self):
        lat = make_lattice([1, 2], uniform_grid(3, 3), hard(1))
        assert len(list(iterate_paths(lat))) == 3

    def test_every_path_consumes_all_frames(self, uniform_ab):
        for labels, _ in iterate_paths(uniform_ab):
            assert len(labels) == 3
        frames = [f for f in uniform_ab.frame_of_arc if f != TERMINAL]
        assert set(frames) == {0, 1, 2}

    def test_non_finite_grid_rejected(self):
        grid = uniform_grid(3, 3)
        grid[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            make_lattice([1, 2], grid)


class TestForwardBackward:
    def test_total_matches_closed_form(self, uniform_ab):
        assert total_score(uniform_ab) == pytest.approx(math.log(5 / 27), abs=1e-12)
        assert best_path(uniform_ab)[1] == pytest.approx(3 * math.log(1 / 3), abs=1e-12)

    def test_single_path_lattice_scores(self):
        grid = random_grid(np.random.default_rng(1), 2, 3)
        lat = make_lattice([1, 2], grid)  # T == U: only the exact alignment
        (labels, weight), = iterate_paths(lat)
        assert labels == (1, 2)
        assert total_score(lat) == pytest.approx(weight, abs=1e-12)
        assert backward_scores(lat)[lat.fst.start] == pytest.approx(weight, abs=1e-12)

    def test_forward_final_equals_backward_start(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            frames = int(rng.integers(2, 7))
            labels = list(rng.integers(1, 4, size=rng.integers(1, 3)))
            grid = random_grid(rng, frames, 4)
            lat = make_lattice(labels, grid)
            if lat.is_empty:
                continue
            fwd = forward_scores(lat)[lat.fst.final]
            bwd = backward_scores(lat)[lat.fst.start]
            assert abs(fwd - bwd) < 1e-9

    def test_total_matches_enumerated_paths(self):
        # Oracle: exhaustive path enumeration, log-sum-exp / max by hand.
        rng = np.random.default_rng(11)
        for variant in (None, soft(0.7), hard(1), hard(2)):
            for _ in range(10):
                frames = int(rng.integers(2, 7))
                labels = list(rng.integers(1, 4, size=rng.integers(1, 4)))
                lat = make_lattice(labels, random_grid(rng, frames, 4), variant)
                if lat.is_empty:
                    continue
                scores = [s for _, s in iterate_paths(lat)]
                shift = max(scores)
                expect_log = shift + math.log(sum(math.exp(s - shift) for s in scores))
                assert total_score(lat) == pytest.approx(expect_log, abs=1e-9)
                assert best_path(lat)[1] == pytest.approx(max(scores), abs=1e-12)

    @pytest.mark.parametrize(
        "score", [forward_scores, backward_scores, total_score, best_path, arc_posteriors]
    )
    def test_non_topological_numbering_rejected(self, score):
        # start 0 -> 2 -> final 1: numbered out of order, one path of weight -0.5.
        fst = Fst()
        for _ in range(3):
            fst.add_state()
        fst.start, fst.final = 0, 1
        fst.add_arc(0, 2, 1, 1, -0.5)
        fst.add_arc(2, 1, TERMINAL, 0)
        lat = Lattice(fst=fst, frame_of_arc=[0, TERMINAL], num_frames=1)
        with pytest.raises(ValueError, match="topologically"):
            score(lat)


class TestBestPath:
    def test_dominant_columns_recovered(self):
        grid = np.full((3, 3), math.log(0.1))
        for t, k in enumerate((0, 1, 2)):
            grid[t, k] = math.log(0.8)
        alignment, score = best_path(make_lattice([1, 2], grid))
        assert alignment == [0, 1, 2]
        assert score == pytest.approx(3 * math.log(0.8) )

    def test_tie_break_is_deterministic(self, uniform_ab):
        first = best_path(uniform_ab)
        again = best_path(make_lattice([1, 2], uniform_grid(3, 3)))
        assert first == again
        assert first[1] == pytest.approx(3 * math.log(1 / 3))

    def test_soft_penalty_steers_best_path_off_self_loops(self):
        lat = make_lattice([1, 2], uniform_grid(3, 3), soft(5.0))
        alignment, _ = best_path(lat)
        assert alignment in ([0, 1, 2], [1, 0, 2], [1, 2, 0])

    def test_empty_lattice_raises(self):
        lat = make_lattice([1, 2], uniform_grid(1, 3))
        with pytest.raises(NoPathError):
            best_path(lat)


class TestArcPosteriors:
    def test_single_path_posteriors_are_one(self):
        lat = make_lattice([1, 2], random_grid(np.random.default_rng(2), 2, 3))
        assert arc_posteriors(lat) == pytest.approx(np.ones(lat.fst.num_arcs))

    def test_uniform_lattice_frame0_split(self, uniform_ab):
        # Of the five equal paths, one starts with blank and four with token 1.
        post = arc_posteriors(uniform_ab)
        frame0 = {}
        for arc_id, arc in enumerate(uniform_ab.fst.arcs()):
            if uniform_ab.frame_of_arc[arc_id] == 0:
                frame0[arc.ilabel] = frame0.get(arc.ilabel, 0.0) + post[arc_id]
        assert frame0[0] == pytest.approx(1 / 5, abs=1e-12)
        assert frame0[1] == pytest.approx(4 / 5, abs=1e-12)

    def test_per_frame_posteriors_sum_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            frames = int(rng.integers(2, 8))
            labels = list(rng.integers(1, 4, size=rng.integers(1, 4)))
            lat = make_lattice(labels, random_grid(rng, frames, 4))
            if lat.is_empty:
                continue
            post = arc_posteriors(lat)
            sums = np.zeros(frames)
            for arc_id in range(lat.fst.num_arcs):
                t = lat.frame_of_arc[arc_id]
                if t != TERMINAL:
                    sums[t] += post[arc_id]
            assert sums == pytest.approx(np.ones(frames), abs=1e-8)

    def test_empty_lattice_raises(self):
        with pytest.raises(NoPathError):
            arc_posteriors(make_lattice([1, 2], uniform_grid(1, 3)))
