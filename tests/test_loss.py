import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pack_labels, random_grid, uniform_grid
import ctcfst
from ctcfst import (
    STANDARD,
    InfeasibleAlignmentError,
    NoPathError,
    ctc_loss,
    format_matrix,
    grad_check,
    greedy_decode,
    hard,
    log_softmax,
    parse_matrix,
    min_alignment_length,
    soft,
)
from ctcfst.fsa import EPSILON, TERMINAL, Fst, format_number
from ctcfst.lattice import intersect_dense, occupancy, total_score
from ctcfst.loss import _log_add_arcs, batch_loss, pack
from ctcfst.reference import brute_force_loss, ctc_loss_alpha
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
        for bad, where in (
            ([[0.0, 1.0], [2.0, np.nan]], "row 1, column 1 holds nan"),
            ([0.0, np.inf], "row 1 holds inf"),
            (np.full((2, 3, 4), -np.inf), r"entry \(0, 0, 0\) holds -inf"),
        ):
            with pytest.raises(ValueError, match=rf"^logits must be finite: {where}$"):
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
    def test_grid_must_be_a_matrix(self):
        with pytest.raises(ValueError) as info:
            ctc_loss([1], np.zeros(3))
        assert str(info.value) == "grid must be a T x (V+1) matrix, not (3,)"

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

    def test_divides_by_the_step_the_rounded_bumps_made(self):
        # At 1e6 a float's spacing is 1.16e-10, so a bump of 2e-10 rounds to
        # a step other than 4e-10; dividing by 4e-10 read an error of 0.145.
        logits = 1e6 + np.random.default_rng(3).standard_normal((5, 4))
        assert grad_check([1, 2], logits, epsilon=2e-10) < 1e-3


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
            rows = [" ".join(format_number(v) for v in row) for row in matrix]
            want = "\n".join([f"{matrix.shape[0]} {matrix.shape[1]}", *rows]) + "\n"
            assert format_matrix(matrix) == want
        assert format_matrix(extremes).splitlines()[1].startswith("0 0 4.94065645841e-324 ")

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 3\n0 0 0\n0 0\n", "row 1 has 2 values, expected 3"),
            ("1 2\n0 x\n", "row 0, column 1 holds 'x', not a number"),
            ("1 2\n0 \u0663\n", "line 1, column 2 holds '\u0663', not ASCII"),
            ("1 2\n0 1_0\n", "row 0, column 1 holds '1_0', not a number"),
            ("", "empty matrix file"),
            ("\n \n", "empty matrix file"),
        ],
        ids=["ragged", "letter", "arabic-indic-digit", "underscore", "empty", "blank-lines"],
    )
    def test_bad_body_is_named_in_one_line(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_matrix(text)
        assert str(info.value) == message


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
        batch = pack_labels([[], []], STANDARD, 3, 3)
        assert len(batch.offset) == 1
        grids = np.log(np.full((2, 3, 3), 1 / 3))
        total, occupancy = batch.layout(np.ones((2, 3), bool)).run(grids)
        assert total == pytest.approx(3 * math.log(1 / 3), abs=1e-12)
        assert np.array_equal(occupancy[:, :, 0], np.ones((2, 3)))


class TestPackedFormat:
    """Which arc ``pack`` puts in which slot: the slot order sets the last
    bits of every sum ``_log_add_arcs`` makes, so it is pinned here. Column n
    of the (J, 2N) table holds state n's out-arcs and column N + n its
    in-arcs, each as source minus destination."""

    LABELS = [[1, 2, 2], [], [3], [2, 2, 2, 1], [1, 3, 1, 3]]
    FRAMES = 9
    # hard(9) at 9 frames packs the standard chain.
    VARIANTS = pytest.mark.parametrize(
        "variant", [STANDARD, soft(0.5), hard(1), hard(2), hard(3), hard(9)], ids=str
    )

    def chains(self, variant):
        return [_chain(labels, variant, self.FRAMES, 3) for labels in self.LABELS]

    @VARIANTS
    def test_slots_follow_the_chain_arcs_in_order(self, variant):
        batch = pack(self.chains(variant), 4)
        nodes = len(batch.sym)
        assert batch.offset.shape == batch.weight.shape == (len(batch.offset), 2 * nodes)
        assert batch.offset.dtype == np.intp
        base = 0
        for arcs, syms, finals in self.chains(variant):
            size = len(syms)
            for state in range(size):
                n = base + state
                # _chain's arcs, out-arcs by increasing destination and in-arcs
                # by increasing source; the sign says which end is the state.
                outs = [(src - dst, w) for src, dst, w in arcs if src == state]
                ins = [(src - dst, w) for src, dst, w in arcs if dst == state]
                for column, want, sign in ((n, outs, -1), (nodes + n, ins, 1)):
                    offsets, weights = batch.offset[:, column], batch.weight[:, column]
                    real = slice(len(want))
                    assert list(zip(offsets[real].tolist(), weights[real].tolist())) == want
                    assert (offsets[len(want) :] == 0).all()
                    assert (weights[len(want) :] == -np.inf).all()
                    other = state + sign * offsets  # the arc's other end
                    assert ((0 <= other) & (other < size)).all()
            assert batch.sym[base : base + size].tolist() == syms
            fin = np.full(size, -np.inf)
            fin[finals] = 0.0
            assert np.array_equal(batch.fin[base : base + size], fin)
            base += size
        assert batch.states.tolist() == [len(syms) for _, syms, _ in self.chains(variant)]
        assert batch.sym.shape == batch.fin.shape == (base,)

    @VARIANTS
    def test_each_arc_once_in_each_half_with_one_weight(self, variant):
        batch = pack(self.chains(variant), 4)
        nodes = len(batch.sym)
        arcs, base = [], 0
        for chain_arcs, syms, _ in self.chains(variant):
            arcs += [(base + src, base + dst, w) for src, dst, w in chain_arcs]
            base += len(syms)
        slot, column = np.nonzero(batch.weight > -np.inf)
        offset, weight = batch.offset[slot, column], batch.weight[slot, column]
        out = column < nodes
        leaving, entering = column[out], column[~out] - nodes
        halves = (
            zip(leaving, leaving - offset[out], weight[out]),
            zip(entering + offset[~out], entering, weight[~out]),
        )
        for half in halves:
            assert sorted((int(src), int(dst), float(w)) for src, dst, w in half) == sorted(arcs)


class TestLayoutSlotTable:
    """The (J, 2N) table a layout's sweep reads, written out in full: column
    N-1-n holds laid-out state n's out-arcs as N-1 minus their destination,
    column N+n its in-arcs as N plus their source, padding reads its own
    column through -inf. The keep mask puts the second graph first."""

    INDEX = [
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 9, 9, 11, 13, 13, 14],
        [0, 0, 1, 3, 3, 4, 5, 6, 8, 9, 10, 10, 12, 13, 14, 15],
        [0, 1, 2, 3, 4, 5, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    ]
    INF = -np.inf
    WEIGHT = [
        [0, -0.5, 0, 0, -0.5, 0, -0.5, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [INF, 0, 0, INF, 0, 0, 0, 0, INF, -0.5, 0, 0, 0, INF, -0.5, 0],
        [INF, INF, INF, INF, INF, INF, 0, INF, INF, INF, INF, -0.5, INF, INF, INF, INF],
    ]

    def test_a_reordered_batch_reads_this_table(self):
        batch = pack_labels([[1], [2, 1]], soft(0.5), 4, 3)
        layout = batch.layout(np.array([[1, 0, 1, 0], [1, 1, 1, 1]], bool))
        # Every iteration's index and weight are column slices of the one table.
        index, weight = layout.sweep[0][1].base, layout.sweep[0][2].base
        assert all(step[1].base is index and step[2].base is weight for step in layout.sweep)
        assert index.dtype == np.intp and index.tolist() == self.INDEX
        assert np.array_equal(weight, self.WEIGHT)
        # An F-ordered table gives the same sums through strided reads.
        assert index.flags.c_contiguous and weight.flags.c_contiguous


class TestOneLossHome:
    """``batch_loss`` is the one home of the loss, the logit gradient and the
    occupancy: ``ctc_loss``, ``grad_check`` and the trainer all reach it.
    ``grad_check``'s bumped grids need only their totals, read from ``Layout.run``."""

    def test_every_caller_reaches_batch_loss(self, monkeypatch):
        calls, runs, run = [], [], ctcfst.loss.Layout.run

        def spy(*args, **kwargs):
            calls.append(args[1].shape)
            return batch_loss(*args, **kwargs)

        def run_spy(layout, grids):
            runs.append(grids.shape)
            return run(layout, grids)

        monkeypatch.setattr(ctcfst.loss.Layout, "run", run_spy)

        for module in (ctcfst.loss, ctcfst.toy):
            if hasattr(module, "batch_loss"):
                monkeypatch.setattr(module, "batch_loss", spy)
        labels, grid = [1, 2, 2], random_grid(np.random.default_rng(13), 6, 4)
        ctc_loss(labels, grid)
        assert calls == [(1, 6, 4)]
        grad_check(labels, grid)
        # One call for the analytic gradient; each frame's 2C bumped grids
        # are run for their totals alone.
        assert calls[1:] == [(1, 6, 4)]
        assert runs[1:] == [(1, 6, 4)] + [(8, 6, 4)] * 6
        corpus = ctcfst.generate_corpus(ctcfst.CorpusConfig(num_utterances=3, seed=2))
        del calls[:]
        ctcfst.train(corpus, steps=2)
        assert len(calls) == 2 and calls[0][0] == 3


class TestChainEntryPoint:
    """``pack`` takes chains and checks only their symbols; which chain a
    variant gives, and the label range, are ``topology._chain``'s."""

    @pytest.mark.parametrize("symbol", [-1, 4])
    def test_pack_refuses_a_symbol_outside_the_grid_columns(self, symbol):
        chain = ([(0, 0, 0.0), (0, 1, 0.0)], [0, symbol], [1])
        with pytest.raises(ValueError) as info:
            pack([_chain([1], STANDARD, 3, 3), chain], 4)
        assert str(info.value) == f"chain symbol {symbol} outside 0..3"

    def test_grad_check_builds_at_most_two_chains(self, monkeypatch):
        built = []

        def spy(*args):
            built.append(args)
            return _chain(*args)

        monkeypatch.setattr(ctcfst.loss, "_chain", spy)
        logits = np.random.default_rng(35).standard_normal((4, 21))
        grad_check([1, 20, 20], logits, hard(2))
        # ctc_loss's chain for the analytic gradient, then the one packed 2C times.
        assert built == [([1, 20, 20], hard(2), 4, 20)] * 2

    def test_pack_refuses_an_empty_batch(self):
        with pytest.raises(ValueError) as info:
            pack([], 2)
        assert str(info.value) == "pack needs at least one graph"

    def test_a_graph_without_arcs_reads_no_frame(self):
        batch = pack([([], [0], [0])], 2)
        assert batch.offset.tolist() == [[0, 0]] and batch.weight.tolist() == [[-np.inf] * 2]
        total, occupancy = batch.layout(np.zeros((1, 3), bool)).run(np.zeros((1, 3, 2)))
        assert total.tolist() == [0.0] and not occupancy.any()
        with pytest.raises(NoPathError):
            batch.layout(np.ones((1, 3), bool)).run(np.zeros((1, 3, 2)))

    def test_a_graph_without_arcs_leaves_a_chain_beside_it_bit_for_bit(self):
        chain = _chain([1, 2, 2], hard(2), 8, 3)
        grids = log_softmax(np.random.default_rng(36).standard_normal((2, 8, 4)))
        alone = pack([chain], 4).layout(np.ones((1, 8), bool)).run(grids[:1])
        keep = np.array([[True] * 8, [False] * 8])
        total, occupancy = pack([chain, ([], [0], [0])], 4).layout(keep).run(grids)
        assert total.tolist() == [alone[0][0], 0.0]
        assert np.array_equal(occupancy[:1], alone[1]) and not occupancy[1].any()

    def test_occupancy_is_float_when_no_graph_keeps_a_frame(self):
        # bincount over no kept cell would count in integers.
        for graph in (_chain([], STANDARD, 3, 2), ([], [0], [0])):
            total, occupancy = pack([graph], 3).layout(np.zeros((1, 3), bool)).run(
                np.zeros((1, 3, 3))
            )
            assert total.tolist() == [0.0] and not occupancy.any()
            assert occupancy.dtype == np.float64 and occupancy.shape == (1, 3, 3)

    def test_a_chain_that_keeps_no_frame_beside_one_that_keeps_all(self):
        chain = _chain([1, 2], soft(0.5), 5, 2)
        grids = log_softmax(np.random.default_rng(37).standard_normal((2, 5, 3)))
        alone = pack([chain], 3).layout(np.ones((1, 5), bool)).run(grids[1:])
        keep = np.array([[False] * 5, [True] * 5])
        batch = pack([_chain([], STANDARD, 5, 2), chain], 3)
        total, occupancy = batch.layout(keep).run(grids)
        assert total.tolist() == [0.0, alone[0][0]] and occupancy.dtype == np.float64
        assert np.array_equal(occupancy[1:], alone[1]) and not occupancy[0].any()

    @pytest.mark.parametrize("labels, bad", [([1, 3], 3), ([0], 0), ([2, -1], -1)])
    def test_every_caller_refuses_a_label_in_the_words_of_the_chain(self, labels, bad):
        message = f"label {bad} outside vocabulary range 1..2"
        corpus = ctcfst.SyntheticCorpus(
            ctcfst.CorpusConfig(vocab_size=2, feature_dim=3),
            [ctcfst.Utterance(np.zeros((6, 3)), tuple(labels))],
        )
        for call in (
            lambda: ctc_loss(labels, uniform_grid(6, 3)),
            lambda: grad_check(labels, np.zeros((6, 3))),
            lambda: ctcfst.train(corpus, steps=1),
            lambda: ctcfst.build_chain(labels, 2, hard(2)),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


# Sizes are capped so the whole class stays cheap: T <= 8, S <= 7, B <= 4, C <= 4.
GRAPH_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def emitting_graphs(draw, classes):
    """A state-emitting graph that no CTC chain gives: 1-7 states, each with
    a symbol that its in-arcs read, any set of in-arcs per state, self-loops
    and backward arcs included, in no sorted order, and 1-7 final states."""
    size = draw(st.integers(1, 7))
    state = st.integers(0, size - 1)
    syms = draw(st.lists(st.integers(0, classes - 1), min_size=size, max_size=size))
    arcs = [
        (src, dst, draw(st.floats(-3.0, 3.0)))
        for dst in range(size)
        for src in draw(st.lists(state, unique=True))
    ]
    return arcs, syms, sorted(draw(st.sets(state, min_size=1)))


@st.composite
def emitting_batches(draw):
    """1-4 graphs, their (B, T, C) log-softmax grids of logits at scale 1, 30
    or 700, and a keep mask that drops about 30% of the frames."""
    classes, frames = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    chains = draw(st.lists(emitting_graphs(classes), min_size=1, max_size=4))
    scale = draw(st.sampled_from([1.0, 30.0, 700.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids = log_softmax(rng.uniform(-scale, scale, (len(chains), frames, classes)))
    return chains, grids, rng.random((len(chains), frames)) >= 0.3


def dense_oracle(chain, grid):
    """Total and (T, C) occupancy of ``chain`` over ``grid`` by the dense
    oracle, each arc reading its destination's symbol. With no frames, the
    only path is the start state, if it is final."""
    arcs, syms, finals = chain
    if not len(grid):
        if 0 not in finals:
            raise NoPathError("the start state is not final")
        return 0.0, grid
    fst = Fst()
    for _ in range(len(syms) + 1):
        fst.add_state()
    fst.start, fst.final = 0, len(syms)
    for src, dst, weight in arcs:
        fst.add_arc(src, dst, syms[dst], EPSILON, weight)
    for state in finals:
        fst.add_arc(state, fst.final, TERMINAL, EPSILON)
    lat = intersect_dense(fst, grid)
    return total_score(lat), occupancy(lat)


def graph_shapes(chains):
    """The shapes beyond a CTC chain that ``chains`` show."""
    shapes = set()
    for arcs, syms, finals in chains:
        if max(Counter(dst for _, dst, _ in arcs).values(), default=0) > 3:
            shapes.add("more than three in-arcs")
        if any(dst < src for src, dst, _ in arcs):
            shapes.add("backward arc")
        if any(dst == src for src, dst, _ in arcs):
            shapes.add("self-loop")
        if len(finals) > 1:
            shapes.add("several finals")
        # A dead state lies on no path from the start to a final state.
        ahead, behind = {0}, set(finals)
        for _ in syms:
            ahead |= {dst for src, dst, _ in arcs if src in ahead}
            behind |= {src for src, dst, _ in arcs if dst in behind}
        if len(ahead & behind) < len(syms):
            shapes.add("dead state")
    return shapes


class TestAnyEmittingGraph:
    """The engine knows no CTC: over random keep masks, it runs any
    state-emitting graph as the dense oracle of :mod:`ctcfst.lattice` does."""

    def test_matches_the_dense_oracle_or_finds_no_path(self):
        seen = set()

        @GRAPH_SETTINGS
        @given(emitting_batches())
        def check(case):
            chains, grids, keep = case
            layout = pack(chains, grids.shape[-1]).layout(keep)
            try:
                want = [dense_oracle(c, grid[mask]) for c, grid, mask in zip(chains, grids, keep)]
            except NoPathError:
                seen.add("no path")
                with pytest.raises(NoPathError):
                    layout.run(grids)
                return
            seen.update(graph_shapes(chains))  # the shapes the oracle checked
            total, got = layout.run(grids)
            for n, (want_total, want_occupancy) in enumerate(want):
                assert total[n] == pytest.approx(want_total, rel=1e-12, abs=1e-9)
                assert got[n, keep[n]] == pytest.approx(want_occupancy, abs=1e-9)
                assert not got[n, ~keep[n]].any()

        check()
        assert seen == {
            "more than three in-arcs", "backward arc", "self-loop", "several finals",
            "dead state", "no path",
        }
