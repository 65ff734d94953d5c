import numpy as np
import pytest

from ctcfst import (
    REFERENCE_CORPUS_GAMMA_MAX,
    SWEEP_BETAS,
    classify_blank_frames,
    gamma_max,
    sweep_thresholds,
)


class TestClassifyBlankFrames:
    def test_direct_comparison(self):
        mask = classify_blank_frames([0.99, 0.2, 0.95, 0.5], 0.9)
        assert mask.dtype == bool and mask.shape == (4,)
        assert mask.tolist() == [True, False, True, False]
        assert mask.mean() == 0.5

    def test_no_blanks(self):
        mask = classify_blank_frames([0.0, 0.0, 0.0], 0.5)
        assert mask.mean() == 0.0

    def test_strict_inequality_at_boundary(self):
        mask = classify_blank_frames([0.9990001, 0.999], 0.999)
        assert mask.tolist() == [True, False]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            classify_blank_frames([0.5], 1.0)
        with pytest.raises(ValueError):
            classify_blank_frames([0.5], 0.0)
        with pytest.raises(ValueError):
            classify_blank_frames([1.2], 0.9)
        with pytest.raises(ValueError):
            classify_blank_frames([-0.1], 0.9)
        with pytest.raises(ValueError):
            classify_blank_frames([0.5, float("nan")], 0.9)

    def test_any_shape_matches_row_wise_calls(self):
        rng = np.random.default_rng(5)
        probs = rng.uniform(0, 1, size=(7, 11))
        probs[0, :3] = [0.9, 0.0, 1.0]  # a tie and the bounds
        for beta in (0.3, 0.9):
            mask = classify_blank_frames(probs, beta)
            assert mask.shape == probs.shape
            rows = np.stack([classify_blank_frames(row, beta) for row in probs])
            assert np.array_equal(mask, rows)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            classify_blank_frames([[0.5, 0.2], [1.5, 0.1]], 0.9)
        with pytest.raises(ValueError, match="non-empty"):
            classify_blank_frames(np.empty((2, 0)), 0.9)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            probs = rng.uniform(0, 1, size=20)
            lo = classify_blank_frames(probs, 0.3)
            hi = classify_blank_frames(probs, 0.7)
            assert set(np.flatnonzero(hi)) <= set(np.flatnonzero(lo))
            assert hi.mean() <= lo.mean()


class TestGammaMax:
    def test_arithmetic(self):
        assert gamma_max(5, 20) == 0.75

    def test_no_headroom(self):
        assert gamma_max(7, 7) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_max(5, 0)
        with pytest.raises(ValueError):
            gamma_max(21, 20)

    def test_reference_constant_documented(self):
        # Published corpus-level value kept as a constant only; nothing in
        # this package recomputes it.
        assert REFERENCE_CORPUS_GAMMA_MAX == 0.7861

    def test_range_property(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            frames = int(rng.integers(1, 50))
            tokens = int(rng.integers(1, frames + 1))
            assert 0.0 <= gamma_max(tokens, frames) < 1.0


class TestSweepThresholds:
    def test_default_grid(self):
        rows = sweep_thresholds([0.95, 0.5], 1)
        assert [r.beta for r in rows] == list(SWEEP_BETAS)

    def test_hand_built_single_utterance(self):
        probs = [0.99, 0.2, 0.95, 0.5]
        rows = sweep_thresholds(probs, 2, betas=[0.9])
        (row,) = rows
        assert row.ratio == classify_blank_frames(probs, 0.9).mean()
        assert row.gamma_max == 0.5

    def test_ratio_non_increasing_in_beta(self):
        rng = np.random.default_rng(3)
        rows = sweep_thresholds(rng.uniform(0, 1, size=100), 25)
        ratios = [r.ratio for r in rows]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))
        assert all(0.0 <= r.ratio <= 1.0 for r in rows)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="frame_count must be positive"):
            sweep_thresholds([], 0, betas=[0.9])

    def test_rows_match_per_utterance_skip_masks(self):
        rng = np.random.default_rng(4)
        betas = (0.5, *SWEEP_BETAS)
        prob_sets = [rng.uniform(0, 1, size=rng.integers(1, 30)) for _ in range(40)]
        prob_sets += [np.array(betas), np.array([0.0, 1.0])]  # ties and bounds
        frames = sum(len(p) for p in prob_sets)
        want = [
            sum(int(classify_blank_frames(p, beta).sum()) for p in prob_sets) / frames
            for beta in betas
        ]
        rows = sweep_thresholds(np.concatenate(prob_sets), len(prob_sets), betas)
        assert [row.ratio for row in rows] == want
        assert {row.gamma_max for row in rows} == {gamma_max(len(prob_sets), frames)}

    def test_blank_probs_must_be_one_dimensional(self):
        for probs in (np.full((2, 2), 0.5), np.float64(0.5), [[]]):
            with pytest.raises(ValueError, match="1-D"):
                sweep_thresholds(probs, 1, betas=[0.9])

    def test_empty_betas_rejected(self):
        with pytest.raises(ValueError, match="betas must not be empty"):
            sweep_thresholds([0.5], 1, betas=())

    def test_thresholds_are_checked_before_probabilities(self):
        for probs in ([1.5], [], np.full((2, 2), 1.5)):
            with pytest.raises(ValueError, match="threshold must lie in"):
                sweep_thresholds(probs, 9, betas=[0.9, 1.0])

    def test_one_dimension_is_checked_before_the_token_bounds(self):
        with pytest.raises(ValueError, match="1-D"):
            sweep_thresholds(np.full((2, 2), 1.5), 9, betas=[0.9])
        with pytest.raises(ValueError, match="token_count"):
            sweep_thresholds([1.5], 9, betas=[0.9])

    @pytest.mark.parametrize(
        "probs, message",
        [([0.5, np.nan], r"\[0, 1\]"), ([1.5], r"\[0, 1\]")],
    )
    def test_each_utterance_checked_as_classify_does(self, probs, message):
        with pytest.raises(ValueError, match=message):
            classify_blank_frames(probs, 0.9)
        with pytest.raises(ValueError, match=message):
            sweep_thresholds(np.concatenate([[0.2, 0.3], probs]), 1, betas=[0.9])
