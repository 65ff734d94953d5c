import math

import numpy as np
import pytest

from conftest import random_grid, uniform_grid
from ctcfst import (
    STANDARD,
    InfeasibleAlignmentError,
    brute_force_loss,
    ctc_loss,
    ctc_loss_alpha,
    format_matrix,
    grad_check,
    greedy_decode,
    hard,
    log_softmax,
    parse_matrix,
    soft,
)

ALL_VARIANTS = (STANDARD, soft(0.05), soft(5.0), hard(1), hard(2))


def random_instance(rng, max_frames=8, max_labels=3, vocab=3):
    """A feasible (labels, grid) pair."""
    while True:
        labels = list(rng.integers(1, vocab + 1, size=rng.integers(1, max_labels + 1)))
        dups = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
        frames = int(rng.integers(1, max_frames + 1))
        if frames >= len(labels) + dups:
            return labels, random_grid(rng, frames, vocab + 1)


class TestLogSoftmax:
    def test_uniform_row(self):
        out = log_softmax([[0.0, 0.0, 0.0]])
        assert out == pytest.approx(np.full((1, 3), math.log(1 / 3)))

    def test_shift_stability(self):
        out = log_softmax([[1000.0, 0.0, 0.0]])
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert out[0, 1] == pytest.approx(-1000.0, abs=1e-6)

    def test_rows_normalize(self):
        rng = np.random.default_rng(0)
        out = log_softmax(rng.uniform(-5, 5, size=(20, 7)))
        assert np.exp(out).sum(axis=1) == pytest.approx(np.ones(20), abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            log_softmax([[np.nan, 0.0]])


class TestCtcLoss:
    def test_single_alignment(self):
        grid = random_grid(np.random.default_rng(1), 1, 4)
        result = ctc_loss([2], grid)
        assert result.loss == pytest.approx(-grid[0, 2], abs=1e-12)
        assert result.occupancy[0, 2] == pytest.approx(1.0)

    def test_closed_form_values(self):
        grid = uniform_grid(3, 3)
        assert ctc_loss([1, 2], grid).loss == pytest.approx(
            -math.log(5 / 27), abs=1e-9
        )
        assert ctc_loss([1, 2], grid, soft(0.05)).loss == pytest.approx(
            -math.log((3 + 2 * math.exp(-0.05)) / 27), abs=1e-9
        )
        assert ctc_loss([1, 2], grid, hard(1)).loss == pytest.approx(
            math.log(9), abs=1e-9
        )

    def test_infeasible_raises_with_context(self):
        with pytest.raises(InfeasibleAlignmentError) as info:
            ctc_loss([1, 2], uniform_grid(1, 3))
        assert info.value.num_frames == 1
        assert info.value.num_labels == 2

    def test_occupancy_and_gradient_row_sums(self):
        rng = np.random.default_rng(2)
        for variant in ALL_VARIANTS:
            labels, grid = random_instance(rng)
            result = ctc_loss(labels, grid, variant)
            frames = grid.shape[0]
            assert result.occupancy.sum(axis=1) == pytest.approx(
                np.ones(frames), abs=1e-8
            )
            assert result.grad_logits.sum(axis=1) == pytest.approx(
                np.zeros(frames), abs=1e-8
            )

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            variant = ALL_VARIANTS[int(rng.integers(len(ALL_VARIANTS)))]
            labels, grid = random_instance(rng)
            assert ctc_loss(labels, grid, variant).loss == pytest.approx(
                brute_force_loss(labels, grid, variant), abs=1e-9
            )

    def test_monotone_in_penalty(self):
        rng = np.random.default_rng(4)
        labels, grid = random_instance(rng, max_frames=6)
        penalties = (0.0, 0.05, 0.5, 5.0)
        losses = [ctc_loss(labels, grid, soft(lam)).loss for lam in penalties]
        assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_monotone_in_run_bound(self):
        rng = np.random.default_rng(5)
        labels, grid = random_instance(rng, max_frames=6)
        losses = [ctc_loss(labels, grid, hard(k)).loss for k in (1, 2, 3, 6)]
        standard = ctc_loss(labels, grid).loss
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] >= standard - 1e-12

    def test_hard_bound_above_frame_count_is_capped(self):
        frames, labels = 10, [3, 3, 7, 20]
        grid = random_grid(np.random.default_rng(8), frames, 21)
        huge = ctc_loss(labels, grid, hard(frames + 1000))
        standard = ctc_loss(labels, grid)
        assert huge.loss == pytest.approx(ctc_loss(labels, grid, hard(frames)).loss, abs=1e-9)
        assert huge.loss == pytest.approx(standard.loss, abs=1e-9)
        assert huge.occupancy == pytest.approx(standard.occupancy, abs=1e-9)


class TestAlphaRecursion:
    def test_uniform_ab(self):
        assert ctc_loss_alpha([1, 2], uniform_grid(3, 3)) == pytest.approx(
            -math.log(5 / 27), abs=1e-9
        )

    def test_repeated_label_single_alignment(self):
        # Only 1,blank,1 collapses to (1, 1) in three frames.
        assert ctc_loss_alpha([1, 1], uniform_grid(3, 3)) == pytest.approx(
            math.log(27), abs=1e-9
        )

    def test_single_frame(self):
        grid = random_grid(np.random.default_rng(6), 1, 3)
        assert ctc_loss_alpha([1], grid) == pytest.approx(-grid[0, 1], abs=1e-12)

    def test_matches_lattice_loss(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            labels, grid = random_instance(rng, max_frames=10, max_labels=4)
            assert ctc_loss_alpha(labels, grid) == pytest.approx(
                ctc_loss(labels, grid).loss, abs=1e-9
            )

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleAlignmentError):
            ctc_loss_alpha([1, 1], uniform_grid(2, 3))


class TestBruteForce:
    def test_soft_zero_equals_standard(self):
        rng = np.random.default_rng(8)
        labels, grid = random_instance(rng, max_frames=5)
        assert brute_force_loss(labels, grid, soft(0.0)) == pytest.approx(
            brute_force_loss(labels, grid), abs=1e-12
        )

    def test_infeasible_agrees_with_lattice(self):
        with pytest.raises(InfeasibleAlignmentError):
            brute_force_loss([1, 2], uniform_grid(1, 3))

    def test_guard_enforced(self):
        with pytest.raises(ValueError, match="guard"):
            brute_force_loss([1], np.zeros((13, 2)))


class TestGradCheck:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=str)
    def test_small_relative_error(self, variant):
        rng = np.random.default_rng(9)
        for _ in range(5):
            labels = list(rng.integers(1, 4, size=2))
            logits = rng.standard_normal((5, 4))
            assert grad_check(labels, logits, variant) < 1e-4


class TestGreedyDecode:
    def test_dominant_path_collapses(self):
        grid = np.full((4, 3), math.log(0.1))
        for t, k in enumerate((1, 1, 0, 2)):
            grid[t, k] = math.log(0.8)
        assert greedy_decode(grid) == [1, 2]

    def test_all_blank(self):
        grid = np.zeros((3, 3))
        grid[:, 0] = 5.0
        assert greedy_decode(grid) == []

    def test_blank_separated_duplicates(self):
        grid = np.full((3, 3), math.log(0.1))
        for t, k in enumerate((1, 0, 1)):
            grid[t, k] = math.log(0.8)
        assert greedy_decode(grid) == [1, 1]


class TestMatrixFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        matrix = rng.standard_normal((4, 3))
        parsed = parse_matrix(format_matrix(matrix))
        assert parsed == pytest.approx(matrix, abs=1e-9)

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            parse_matrix("2 2\n0 0\n")

    def test_row_width_checked(self):
        with pytest.raises(ValueError, match="values"):
            parse_matrix("1 3\n0 0\n")
