import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_grid, uniform_grid
import ctcfst
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
    min_alignment_length,
    soft,
)
from ctcfst.loss import _log_add_arcs, batch_loss, pack
from ctcfst.topology import _chain

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
        for bad in ([[np.nan, 0.0]], [np.inf, 0.0], np.full((2, 3, 4), -np.inf)):
            with pytest.raises(ValueError, match=r"^logits must be finite$"):
                log_softmax(bad)

    def test_scalar_rejected(self):
        with pytest.raises(ValueError, match=r"^logits must have at least one axis[^\n]*$"):
            log_softmax(3.0)

    def test_any_rank_and_layout_equals_the_row_call_bit_for_bit(self):
        rng = np.random.default_rng(3)
        logits = rng.uniform(-700, 700, size=(4, 5, 6))
        rows = logits.reshape(-1, 6)
        want = np.stack([log_softmax(row[None])[0] for row in rows])
        assert np.array_equal(log_softmax(rows), want)
        assert np.array_equal(log_softmax(logits).reshape(-1, 6), want)
        assert all(np.array_equal(log_softmax(row), w) for row, w in zip(rows, want))
        # The transpose of class-major logits, as the trainer passes them.
        class_major = np.ascontiguousarray(rows.T)
        assert class_major.T.flags.f_contiguous
        assert np.array_equal(log_softmax(class_major.T), want)


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

    def test_bytes_match_per_value_formatting(self):
        rng = np.random.default_rng(12)
        extremes = np.array([[0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]])
        spread = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-300, 300, (6, 5))
        for matrix in (extremes, rng.standard_normal((40, 11)), spread):
            rows = [" ".join(f"{v:.12g}" for v in row) for row in matrix]
            want = "\n".join([f"{matrix.shape[0]} {matrix.shape[1]}", *rows]) + "\n"
            assert format_matrix(matrix) == want

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            parse_matrix("2 2\n0 0\n")

    @pytest.mark.parametrize("header", ["2.5 3", "2 -3", "-1 2", "2 x", "2 3 4"])
    def test_header_must_be_two_non_negative_integers(self, header):
        with pytest.raises(ValueError, match="malformed matrix header"):
            parse_matrix(f"{header}\n0 0 0\n0 0 0\n")

    @pytest.mark.parametrize("text", ["0 0\n", "0 3\n", "2 0\n\n\n"])
    def test_matrix_needs_a_row_and_a_column(self, text):
        with pytest.raises(ValueError, match="^matrix needs at least one row and one column"):
            parse_matrix(text)

    def test_row_width_checked(self):
        with pytest.raises(ValueError, match="values"):
            parse_matrix("1 3\n0 0\n")


ORACLE_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)
# Brute force walks (distinct symbols + 1) ** frames candidates: cap them.
ENUM_BUDGET = 20_000


@st.composite
def oracle_cases(draw, max_frames=12, budget=None):
    """(labels, grid): up to 4 labels over 4 symbols, repeats included,
    a log-softmax grid of logits at scale 1, 30 or 700 and a frame count from
    the shortest alignment to ``max_frames`` (or to ``budget`` candidates)."""
    labels = draw(st.lists(st.integers(1, 4), max_size=4))
    shortest = min_alignment_length(labels)
    top, width = max_frames, len(set(labels)) + 1
    while budget is not None and width**top > budget:
        top -= 1
    frames = draw(st.integers(max(1, shortest), max(1, shortest, top)))
    scale = draw(st.sampled_from([1.0, 30.0, 700.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return labels, log_softmax(rng.uniform(-scale, scale, (frames, 5)))


class TestOracles:
    """``ctc_loss`` against the independent oracles, at logit scales up to 700."""

    @ORACLE_SETTINGS
    @given(case=oracle_cases(max_frames=20))
    def test_standard_matches_alpha_recursion(self, case):
        labels, grid = case
        assert ctc_loss(labels, grid).loss == pytest.approx(
            ctc_loss_alpha(labels, grid), rel=1e-12, abs=1e-9
        )

    @pytest.mark.parametrize("kind", ["standard", "soft", "hard"])
    @ORACLE_SETTINGS
    @given(case=oracle_cases(budget=ENUM_BUDGET), data=st.data())
    def test_matches_brute_force(self, kind, case, data):
        labels, grid = case
        strategy = {
            "standard": st.just(STANDARD),
            "soft": st.floats(0.0, 700.0).map(soft),
            "hard": st.integers(1, len(grid) + 1).map(hard),
        }[kind]
        variant = data.draw(strategy)
        assert ctc_loss(labels, grid, variant).loss == pytest.approx(
            brute_force_loss(labels, grid, variant), rel=1e-12, abs=1e-9
        )

    @ORACLE_SETTINGS
    @given(case=oracle_cases(), data=st.data())
    def test_soft_zero_and_hard_bound_at_least_the_frames_equal_standard(self, case, data):
        labels, grid = case
        standard = ctc_loss(labels, grid)
        bound = data.draw(st.integers(len(grid), len(grid) + 3))
        for variant in (soft(0.0), hard(bound)):
            result = ctc_loss(labels, grid, variant)
            assert result.loss == standard.loss
            assert np.array_equal(result.grad_logits, standard.grad_logits)

    @ORACLE_SETTINGS
    @given(
        labels=st.lists(st.integers(1, 4), max_size=5),
        frames=st.integers(1, 12),
        variant=st.sampled_from([STANDARD, soft(700.0), hard(1), hard(2)]),
    )
    def test_infeasible_iff_fewer_frames_than_the_shortest_alignment(
        self, labels, frames, variant
    ):
        grid = uniform_grid(frames, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if frames < min_alignment_length(labels):
                with pytest.raises(InfeasibleAlignmentError):
                    ctc_loss(labels, grid, variant)
            else:
                assert np.isfinite(ctc_loss(labels, grid, variant).loss)


def log_add_slots(slots, weights=None):
    """``_log_add_arcs`` over the first axis of ``slots``, as the engine
    calls it: under ``errstate(invalid="ignore")``."""
    slots = np.asarray(slots, dtype=float)
    out = np.empty(slots.shape[1:])
    index = np.arange(slots.size).reshape(slots.shape)
    weights = np.zeros(slots.shape) if weights is None else weights
    with np.errstate(invalid="ignore"):
        _log_add_arcs(slots.ravel(), index, weights, out)
    return out


class TestLogAddArcs:
    """The engine's log-add against ``np.logaddexp.reduce`` over the slots."""

    def test_all_slots_minus_inf_give_exactly_minus_inf(self):
        for count in (1, 2, 5):
            out = log_add_slots(np.full((count, 3), -np.inf))
            assert not np.isnan(out).any()
            assert (out == -np.inf).all()

    def test_padding_slots_leave_a_dead_state_dead(self):
        # A padded slot reads state 0 through a -inf weight.
        slots = np.array([[-np.inf, 0.0], [5.0, 7.0]])
        weights = np.array([[0.0, -np.inf], [-np.inf, -np.inf]])
        assert (log_add_slots(slots, weights) == -np.inf).all()

    @pytest.mark.parametrize("value", [-1e4, -700.0, -1.5, 0.0, 2.25, 700.0, 1e4])
    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_single_finite_slot_gives_its_value_exactly(self, value, count):
        slots = np.full((count, 2), -np.inf)
        slots[count - 1, 0] = value
        slots[0, 1] = value
        assert np.array_equal(log_add_slots(slots), [value, value])

    @pytest.mark.parametrize("magnitude", [-1e4, -700.0, -30.0, 0.0, 30.0, 700.0, 1e4])
    @pytest.mark.parametrize("gap", [0.0, 30.0, 50.0, 700.0])
    def test_agrees_with_logaddexp_within_four_ulp(self, magnitude, gap):
        rng = np.random.default_rng(int(abs(magnitude) + gap))
        jitter = rng.uniform(-1.0, 1.0, (4, 64))
        slots = magnitude + jitter
        slots[1] -= gap
        slots[2] -= rng.uniform(0.0, 2.0 * gap, 64)
        slots[3, ::3] = -np.inf
        largest = slots.max(axis=0)
        tolerance = 4 * np.spacing(np.maximum(np.abs(largest), 1.0))
        for count in (1, 2, 3, 4):
            got = log_add_slots(slots[:count])
            want = np.logaddexp.reduce(slots[:count], axis=0)
            assert (np.abs(got - want) <= tolerance).all()

    def test_slots_are_summed_left_to_right_bit_for_bit(self):
        # The sum order decides the last bits of every total and occupancy,
        # so seeded runs stay byte-identical only while it holds.
        slots = np.random.default_rng(12).uniform(-40.0, 0.0, (3, 4096))

        def accumulated(terms):
            acc = terms[0].copy()
            for term in terms[1:]:
                acc += term
            return acc

        top = slots.max(axis=0)
        terms = np.exp(np.fmax(slots - top, -50.0))
        forward = np.log(accumulated(terms)) + top
        reversed_ = np.log(accumulated(terms[::-1])) + top
        assert np.array_equal(log_add_slots(slots), forward)
        assert not np.array_equal(forward, reversed_)

    def test_empty_label_sequences_pack_one_slot(self):
        batch = pack([[], []], STANDARD, 3, 3)
        assert batch.in_src.shape[0] == batch.out_dst.shape[0] == 1
        grids = np.log(np.full((2, 3, 3), 1 / 3))
        total, occupancy = batch.total_and_occupancy(grids, np.ones((2, 3), bool))
        assert total == pytest.approx(3 * math.log(1 / 3), abs=1e-12)
        assert np.array_equal(occupancy[:, :, 0], np.ones((2, 3)))


class TestPackedFormat:
    """Which arc ``pack`` puts in which slot: the slot order sets the last
    bits of every sum ``_log_add_arcs`` makes, so it is pinned here."""

    LABELS = [[1, 2, 2], [], [3], [2, 2, 2, 1], [1, 3, 1, 3]]

    # hard(9) at 9 frames packs the standard chain.
    @pytest.mark.parametrize(
        "variant", [STANDARD, soft(0.5), hard(1), hard(2), hard(3), hard(9)], ids=str
    )
    def test_slots_follow_the_chain_arcs_in_order(self, variant):
        frames = 9
        batch = pack(self.LABELS, variant, frames, 4)
        base = 0
        for labels in self.LABELS:
            arcs, syms, finals = _chain(labels, variant, frames)
            size = len(syms)
            for state in range(size):
                n = base + state
                ins = [(src - dst, w) for src, dst, w in arcs if dst == state]
                outs = [(dst - src, w) for src, dst, w in arcs if src == state]
                for offsets, weights, want in (
                    (batch.in_src, batch.in_w, ins), (batch.out_dst, batch.out_w, outs)
                ):
                    real = slice(len(want))
                    got = list(zip(offsets[real, n].tolist(), weights[real, n].tolist()))
                    assert got == want  # _chain's arcs, by increasing source or destination
                    assert (offsets[len(want) :, n] == 0).all()
                    assert (weights[len(want) :, n] == -np.inf).all()
                    assert ((0 <= state + offsets[:, n]) & (state + offsets[:, n] < size)).all()
            assert batch.sym[base : base + size].tolist() == syms
            fin = np.full(size, -np.inf)
            fin[finals] = 0.0
            assert np.array_equal(batch.fin[base : base + size], fin)
            base += size
        assert batch.states.tolist() == [len(_chain(x, variant, frames)[1]) for x in self.LABELS]
        assert batch.sym.shape == batch.fin.shape == (base,)


class TestOneLossHome:
    """``batch_loss`` is the one home of the loss, the logit gradient and the
    occupancy: ``ctc_loss``, ``grad_check`` and the trainer all reach it."""

    def test_every_caller_reaches_batch_loss(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[1].shape)
            return batch_loss(*args, **kwargs)

        for module in (ctcfst.loss, ctcfst.toy):
            if hasattr(module, "batch_loss"):
                monkeypatch.setattr(module, "batch_loss", spy)
        labels, grid = [1, 2, 2], random_grid(np.random.default_rng(13), 6, 4)
        ctc_loss(labels, grid)
        assert calls == [(1, 6, 4)]
        grad_check(labels, grid)
        # One call for the analytic gradient, then one per frame for the
        # 2C bumped grids.
        assert calls[1:] == [(1, 6, 4)] + [(8, 6, 4)] * 6
        corpus = ctcfst.generate_corpus(ctcfst.CorpusConfig(num_utterances=3, seed=2))
        del calls[:]
        ctcfst.train(corpus, steps=2)
        assert len(calls) == 2 and calls[0][0] == 3
