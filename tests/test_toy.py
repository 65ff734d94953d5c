import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctcfst.skip
import ctcfst.toy
from ctcfst import (
    STANDARD,
    CorpusConfig,
    InfeasibleAlignmentError,
    NoPathError,
    RunSpec,
    SyntheticCorpus,
    TrainingDivergedError,
    Utterance,
    ctc_loss,
    edit_distance,
    evaluate,
    gamma_max,
    generate_corpus,
    greedy_decode,
    hard,
    log_softmax,
    min_alignment_length,
    run_experiment,
    soft,
    sweep_thresholds,
    token_means,
    train,
)
from ctcfst.lattice import intersect_dense, occupancy, total_score
from ctcfst.loss import GraphBatch, batch_loss, grad_check, pack
from ctcfst.reference import build_training_graph
from ctcfst.toy import ExperimentConfig, ToyModel

SMALL = CorpusConfig(num_utterances=30, seed=11)


class TestGenerateCorpus:
    def test_seed_determinism(self):
        one = generate_corpus(SMALL)
        two = generate_corpus(SMALL)
        for a, b in zip(one.utterances, two.utterances):
            assert a.labels == b.labels
            assert np.array_equal(a.features, b.features)

    def test_noiseless_nearest_mean_classification_is_exact(self):
        corpus = generate_corpus(CorpusConfig(num_utterances=20, seed=4, noise=0.0))
        means = token_means(corpus.config)
        for utt in corpus.utterances:
            frame_tokens = []
            for frame in utt.features:
                distances = np.linalg.norm(means - frame, axis=1)
                frame_tokens.append(int(distances.argmin()) + 1)
            # Collapsing runs of the per-frame labels recovers the transcript.
            collapsed = [
                k for i, k in enumerate(frame_tokens) if i == 0 or k != frame_tokens[i - 1]
            ]
            assert collapsed == list(utt.labels)

    def test_reference_config_gamma_max(self):
        corpus = generate_corpus(CorpusConfig(num_utterances=200, seed=0))
        tokens = sum(len(u.labels) for u in corpus.utterances)
        frames = sum(len(u.features) for u in corpus.utterances)
        assert gamma_max(tokens, frames) == pytest.approx(0.75, abs=0.02)

    def test_structure(self):
        corpus = generate_corpus(SMALL)
        cfg = corpus.config
        for utt in corpus.utterances:
            assert len(utt.labels) >= 1
            assert cfg.min_tokens <= len(utt.labels) <= cfg.max_tokens
            assert all(1 <= tok <= cfg.vocab_size for tok in utt.labels)
            assert all(a != b for a, b in zip(utt.labels, utt.labels[1:]))
            frames = len(utt.features)
            assert (cfg.stretch - 1) * len(utt.labels) <= frames
            assert frames <= (cfg.stretch + 1) * len(utt.labels)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CorpusConfig(vocab_size=1)
        with pytest.raises(ValueError):
            CorpusConfig(feature_dim=4)
        with pytest.raises(ValueError):
            CorpusConfig(stretch=1)
        for noise in (-0.1, float("nan"), float("inf"), 2 * ctcfst.toy.MAX_NOISE):
            with pytest.raises(ValueError, match="noise must lie in"):
                CorpusConfig(noise=noise)
        assert CorpusConfig(noise=ctcfst.toy.MAX_NOISE).noise == ctcfst.toy.MAX_NOISE
        with pytest.raises(ValueError, match="seed must be >= 0"):
            CorpusConfig(seed=-1)

    def test_padded_layout(self):
        corpus = generate_corpus(CorpusConfig(num_utterances=6, seed=3))
        feats, real = corpus.padded()
        lengths = [len(u.features) for u in corpus.utterances]
        assert real.shape == (6, max(lengths)) and feats.shape == real.shape + (16,)
        assert real.sum(axis=1).tolist() == lengths
        for rows, mask, u in zip(feats, real, corpus.utterances):
            assert mask[: len(u.features)].all()
            assert np.array_equal(rows[mask], u.features)
            assert not rows[~mask].any()


VOCAB = 3
CLASSES = VOCAB + 1
ENGINE_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def utterance_batches(draw, feasible=True):
    """1-3 (labels, grid) pairs: labels with repeats, frame counts from the
    minimum alignment length to 3 above it (or below it, when not
    ``feasible``), and log-softmax grids of logits up to +-700."""
    labels_list, grids = [], []
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 30.0, 700.0]))
    for _ in range(draw(st.integers(1, 3))):
        labels = draw(st.lists(st.integers(1, VOCAB), min_size=0 if feasible else 2, max_size=3))
        shortest = min_alignment_length(labels)
        if feasible:
            frames = draw(st.integers(max(1, shortest), shortest + 3))
        else:
            frames = draw(st.integers(1, shortest - 1))
        labels_list.append(labels)
        grids.append(log_softmax(rng.uniform(-scale, scale, (frames, CLASSES))))
    return labels_list, grids


def lattice_oracle(labels, grid, variant):
    """Total and per-(frame, symbol) occupancy from the dense oracle."""
    lat = intersect_dense(build_training_graph(labels, VOCAB, variant), grid)
    return total_score(lat), occupancy(lat)


def packed_batch(labels_list, grids, variant, masks=None):
    """The engine's inputs as the trainer builds them: chains packed for the
    longest grid, grids zero-padded to it, and a mask that drops the padding
    and, when ``masks`` are given, each grid's frames they drop."""
    t_max = max(len(g) for g in grids)
    padded = np.zeros((len(grids), t_max, CLASSES))
    keep = np.zeros((len(grids), t_max), dtype=bool)
    for n, grid in enumerate(grids):
        padded[n, : len(grid)] = grid
        keep[n, : len(grid)] = True if masks is None else masks[n]
    return pack(labels_list, variant, t_max, CLASSES), padded, keep


@st.composite
def masked_batches(draw, feasible=True):
    """1-3 (labels, grid, mask) triples: grids of up to 4 frames more than
    the labels need, and masks that keep a random subset of at least the
    minimum alignment length of frames (fewer, when not ``feasible``)."""
    labels_list, grids, masks = [], [], []
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 30.0, 700.0]))
    for _ in range(draw(st.integers(1, 3))):
        labels = draw(st.lists(st.integers(1, VOCAB), min_size=0 if feasible else 1, max_size=3))
        shortest = min_alignment_length(labels)
        frames = draw(st.integers(max(1, shortest), shortest + 4))
        if feasible:
            count = draw(st.integers(max(1, shortest), frames))
        else:
            count = draw(st.integers(0, shortest - 1))
        mask = np.zeros(frames, dtype=bool)
        mask[rng.choice(frames, count, replace=False)] = True
        labels_list.append(labels)
        grids.append(log_softmax(rng.uniform(-scale, scale, (frames, CLASSES))))
        masks.append(mask)
    return labels_list, grids, masks


def _ragged_batch():
    """Rows ragged in both states and kept frames: a 1-label row of 3
    frames, a 10-label row of 40 and an empty-label row of 6, all kept."""
    rng = np.random.default_rng(21)
    labels_list = [[2], [1, 2, 2, 3, 1, 1, 3, 2, 3, 3], []]
    grids = [log_softmax(5 * rng.standard_normal((t, CLASSES))) for t in (3, 40, 6)]
    return labels_list, grids, [np.ones(len(grid), dtype=bool) for grid in grids]


RAGGED_BATCH = _ragged_batch()


def assert_engine_matches_lattice(labels_list, grids, variant):
    batch, padded, keep = packed_batch(labels_list, grids, variant)
    total, occupancy = batch.layout(keep).run(padded)
    assert not occupancy[~keep].any()
    for n, (labels, grid) in enumerate(zip(labels_list, grids)):
        want_total, want_occupancy = lattice_oracle(labels, grid, variant)
        single = ctc_loss(labels, grid, variant)
        assert total[n] == pytest.approx(want_total, rel=1e-12, abs=1e-9)
        assert -single.loss == pytest.approx(want_total, rel=1e-12, abs=1e-9)
        assert occupancy[n, : len(grid)] == pytest.approx(want_occupancy, abs=1e-9)
        assert single.occupancy == pytest.approx(want_occupancy, abs=1e-9)


class TestGraphBatchEngine:
    """The batched engine (padded batch, and ``ctc_loss`` as a batch of one)
    against the generic lattice oracle."""

    @pytest.mark.parametrize(
        "variant", [STANDARD, soft(0.3), hard(1), hard(2), hard(50)], ids=str
    )
    @ENGINE_SETTINGS
    @given(batch=utterance_batches())
    def test_matches_lattice_loss_and_occupancy(self, variant, batch):
        assert_engine_matches_lattice(*batch, variant)

    @ENGINE_SETTINGS
    @given(batch=utterance_batches(), data=st.data())
    def test_matches_lattice_for_any_penalty_or_bound(self, batch, data):
        t_max = max(len(g) for g in batch[1])
        variant = data.draw(
            st.one_of(
                st.floats(0.0, 700.0).map(soft),
                st.integers(1, t_max + 2).map(hard),
            )
        )
        assert_engine_matches_lattice(*batch, variant)

    @ENGINE_SETTINGS
    @given(
        batch=utterance_batches(feasible=False),
        variant=st.sampled_from([STANDARD, soft(700.0), hard(1), hard(3)]),
    )
    def test_infeasible_lengths_raise_without_nan(self, batch, variant):
        labels_list, grids = batch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for labels, grid in zip(labels_list, grids):
                with pytest.raises(InfeasibleAlignmentError):
                    ctc_loss(labels, grid, variant)
            engine, padded, keep = packed_batch(labels_list, grids, variant)
            with pytest.raises(NoPathError):
                engine.layout(keep).run(padded)

    # Not hard(2): two kept frames alone pack the standard chain, which gives
    # the same loss as the bounded chain packed for the batch, but not the
    # same bits.
    @pytest.mark.parametrize("variant", [STANDARD, soft(0.3), hard(1), hard(50)], ids=str)
    @ENGINE_SETTINGS
    @given(batch=masked_batches())
    def test_dropped_frames_match_the_kept_frames_alone(self, variant, batch):
        labels_list, grids, masks = batch
        engine, padded, keep = packed_batch(labels_list, grids, variant, masks)
        layout = engine.layout(keep)
        total, occupancy = layout.run(padded)
        loss, grad, shared_occupancy = batch_loss(layout, padded)
        assert np.array_equal(loss, -total)
        assert np.array_equal(shared_occupancy, occupancy)
        assert not occupancy[~keep].any()
        assert not grad[~keep].any()
        for n, (labels, grid, mask) in enumerate(zip(labels_list, grids, masks)):
            single = ctc_loss(labels, grid[mask], variant)
            assert -total[n] == loss[n] == single.loss
            assert np.array_equal(occupancy[n, keep[n]], single.occupancy)
            assert np.array_equal(grad[n, keep[n]], single.grad_logits)

    @pytest.mark.parametrize(
        "variant", [STANDARD, soft(0.3), hard(1), hard(2), hard(50)], ids=str
    )
    @ENGINE_SETTINGS
    @given(batch=masked_batches())
    @example(batch=RAGGED_BATCH)
    def test_rows_match_each_row_packed_alone(self, variant, batch):
        # Alone, a row runs only its own kept frames: no other row's frame
        # count, states or arcs may change a bit of its result.
        labels_list, grids, masks = batch
        engine, padded, keep = packed_batch(labels_list, grids, variant, masks)
        total, occupancy = engine.layout(keep).run(padded)
        for n, labels in enumerate(labels_list):
            alone = pack([labels], variant, padded.shape[1], CLASSES)
            one_total, one_occupancy = alone.layout(keep[n, None]).run(padded[n, None])
            assert total[n] == one_total[0]
            assert np.array_equal(occupancy[n], one_occupancy[0])

    @ENGINE_SETTINGS
    @given(
        batch=masked_batches(feasible=False),
        variant=st.sampled_from([STANDARD, soft(700.0), hard(1), hard(3)]),
    )
    def test_too_few_kept_frames_raise_without_nan(self, batch, variant):
        labels_list, grids, masks = batch
        engine, padded, keep = packed_batch(labels_list, grids, variant, masks)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoPathError):
                engine.layout(keep).run(padded)

    @pytest.mark.parametrize("over", [0, 1, 1000])
    def test_hard_bound_of_at_least_the_frames_packs_the_standard_chain(self, over):
        rng = np.random.default_rng(5)
        labels_list = [[1, 2, 2], [3], []]
        grids = [log_softmax(rng.standard_normal((t, CLASSES))) for t in (7, 5, 3)]
        standard, padded, keep = packed_batch(labels_list, grids, STANDARD)
        capped, _, _ = packed_batch(labels_list, grids, hard(7 + over))
        assert capped.states.tolist() == standard.states.tolist() == [1 + 3 * 2, 1 + 2, 1]
        for got, want in zip(
            capped.layout(keep).run(padded), standard.layout(keep).run(padded)
        ):
            assert np.array_equal(got, want)
        below, _, _ = packed_batch(labels_list, grids, hard(6))
        assert below.states.tolist() == [1 + 3 * (6 + 1), 1 + 6 + 1, 1]

    @pytest.mark.parametrize("variant", [STANDARD, soft(0.3), hard(1), hard(2)], ids=str)
    @ENGINE_SETTINGS
    @given(batch=masked_batches(), data=st.data())
    def test_shuffling_the_rows_permutes_the_results_bit_for_bit(self, variant, batch, data):
        # The engine orders the rows by kept count itself; the caller's
        # order must not change a bit of any row's result.
        labels_list, grids, masks = batch
        perm = data.draw(st.permutations(range(len(grids))))
        engine, padded, keep = packed_batch(labels_list, grids, variant, masks)
        total, occupancy = engine.layout(keep).run(padded)
        shuffled = pack([labels_list[n] for n in perm], variant, padded.shape[1], CLASSES)
        got_total, got_occupancy = shuffled.layout(keep[perm]).run(padded[perm])
        assert np.array_equal(got_total, total[perm])
        assert np.array_equal(got_occupancy, occupancy[perm])

    # The second batch keeps no frame at all, so the engine runs no step.
    @pytest.mark.parametrize("labels_list", [[[1], [1, 1], [2, 3, 3, 2], []], [[]]])
    @pytest.mark.parametrize("variant", [STANDARD, soft(0.3), hard(1), hard(2)], ids=str)
    def test_rows_keeping_exactly_the_minimum_alignment_length(self, variant, labels_list):
        # Then one alignment is left: each label once, a blank only between
        # repeats. Its score is the left-to-right sum of its kept grid
        # entries, and its occupancy is one-hot on it.
        rng = np.random.default_rng(22)
        grids, masks = [], []
        for labels in labels_list:
            shortest = min_alignment_length(labels)
            grids.append(log_softmax(5 * rng.standard_normal((shortest + 3, CLASSES))))
            mask = np.zeros(shortest + 3, dtype=bool)
            mask[rng.choice(shortest + 3, shortest, replace=False)] = True
            masks.append(mask)
        engine, padded, keep = packed_batch(labels_list, grids, variant, masks)
        total, occupancy = engine.layout(keep).run(padded)
        for n, (labels, grid, mask) in enumerate(zip(labels_list, grids, masks)):
            path = []
            for tok, prev in zip(labels, [None, *labels]):
                path += [0, tok] if tok == prev else [tok]
            scores = grid[mask][np.arange(len(path)), path]
            assert total[n] == np.cumsum([0.0, *scores])[-1]
            kept_rows = occupancy[n][keep[n]]
            assert kept_rows[np.arange(len(path)), path] == pytest.approx(1.0, abs=1e-12)
            kept_rows[np.arange(len(path)), path] = 0.0
            assert not kept_rows.any() and not occupancy[n][~keep[n]].any()


def masked_losses(batch, variant):
    """Per-row loss of a ``masked_batches`` draw under ``variant``."""
    labels_list, grids, masks = batch
    engine, padded, keep = packed_batch(labels_list, grids, variant, masks)
    return -engine.layout(keep).run(padded)[0]


def no_less(high, low):
    """``high >= low`` up to the rounding of two differently packed chains."""
    return np.all(high >= low - 1e-12 * np.abs(low) - 1e-9)


class TestInvariants:
    """Properties every variant's result holds, over masked batches."""

    @pytest.mark.parametrize("variant", [STANDARD, soft(0.3), hard(1), hard(2)], ids=str)
    @ENGINE_SETTINGS
    @given(batch=masked_batches())
    def test_kept_occupancy_rows_sum_to_one_and_dropped_rows_are_zero(self, variant, batch):
        labels_list, grids, masks = batch
        engine, padded, keep = packed_batch(labels_list, grids, variant, masks)
        _, occupancy = engine.layout(keep).run(padded)
        assert np.abs(occupancy[keep].sum(axis=1) - 1.0).max() <= 1e-9
        assert not occupancy[~keep].any()

    @pytest.mark.parametrize("variant", [STANDARD, soft(0.3), hard(1), hard(2)], ids=str)
    @ENGINE_SETTINGS
    @given(batch=masked_batches())
    def test_gradient_rows_sum_to_zero(self, variant, batch):
        for labels, grid, mask in zip(*batch):
            grad = ctc_loss(labels, grid[mask], variant).grad_logits
            assert np.abs(grad.sum(axis=1)).max() <= 1e-9

    @ENGINE_SETTINGS
    @given(batch=masked_batches(), data=st.data())
    def test_loss_does_not_decrease_as_the_soft_penalty_grows(self, batch, data):
        penalties = data.draw(st.lists(st.floats(0.0, 700.0), min_size=2, max_size=2))
        low, high = (masked_losses(batch, soft(p)) for p in sorted(penalties))
        assert no_less(high, low)

    @ENGINE_SETTINGS
    @given(batch=masked_batches(), data=st.data())
    def test_loss_does_not_increase_as_the_hard_bound_grows(self, batch, data):
        t_max = max(len(g) for g in batch[1])
        bounds = data.draw(st.lists(st.integers(1, t_max + 1), min_size=2, max_size=2))
        tight, loose = (masked_losses(batch, hard(k)) for k in sorted(bounds))
        assert no_less(tight, loose)


class TestRaggedCost:
    """A timing-free guard on the engine's cost: the fused sweep makes one
    ``_log_add_arcs`` call per step, and hands it one slot cell per table
    row, state and kept frame of each graph in each direction, and none for
    padded states or dropped frames."""

    @pytest.mark.parametrize("variant", [STANDARD, soft(0.3), hard(1), hard(2), hard(4)], ids=str)
    def test_slot_cells_are_slots_times_states_times_kept_frames(self, variant, monkeypatch):
        corpus = generate_corpus(CorpusConfig(num_utterances=40, seed=3))
        labels_list = [u.labels for u in corpus.utterances]
        feats, real = corpus.padded()
        rng = np.random.default_rng(4)
        keep = real & (rng.random(real.shape) < 0.7)
        min_lens = np.array([min_alignment_length(labels) for labels in labels_list])
        short = keep.sum(axis=1) < min_lens
        keep[short] = real[short]
        classes = corpus.config.vocab_size + 1
        grids = log_softmax(rng.standard_normal(real.shape + (classes,)))
        engine = pack(labels_list, variant, real.shape[1], classes)
        layout = engine.layout(keep)

        cells = []
        log_add_arcs = ctcfst.loss._log_add_arcs

        def spy(src, index, weight, out):
            cells.append(index.size)
            log_add_arcs(src, index, weight, out)

        monkeypatch.setattr(ctcfst.loss, "_log_add_arcs", spy)
        layout.run(grids)
        # A chain has a blank state, then per label a run of one state
        # (hard: max_run states) and a blank state.
        run = variant.max_run if variant.kind == "hard" else 1
        states = np.array([1 + (run + 1) * len(labels) for labels in labels_list])
        kept = keep.sum(axis=1)
        # One table serves both directions, so it has the larger slot count.
        slots = len(engine.offset)
        # Forward runs every kept frame; backward every one but the first,
        # whose beta no occupancy reads.
        assert len(cells) == int(kept.max())
        assert sum(cells) == slots * ((states * kept).sum() + (states * (kept - 1)).sum())


class TestLayoutReuse:
    """A layout's buffers carry nothing from one run to the next: a layout
    reused on several grids, and after a run that raised, gives what a fresh
    layout per grid gives, bit for bit."""

    LABELS = [[1, 2, 2, 3], [3], [], [2, 1, 1], [1, 3], [3, 3]]

    # hard(3) and hard(4) have more in-arc than out-arc slots.
    @pytest.mark.parametrize("variant", [STANDARD, soft(0.3), hard(2), hard(3), hard(4)], ids=str)
    def test_a_reused_layout_matches_a_fresh_one_bit_for_bit(self, variant):
        rng = np.random.default_rng(31)
        frames = 12
        keep = rng.random((len(self.LABELS), frames)) < 0.6
        for row, labels in enumerate(self.LABELS):
            keep[row, : min_alignment_length(labels)] = True
        keep[1] = keep[2] = np.arange(frames) == 5  # rows that keep exactly 1 frame
        engine = pack(self.LABELS, variant, frames, CLASSES)
        grids = [
            log_softmax(scale * rng.standard_normal((len(self.LABELS), frames, CLASSES)))
            for scale in (1.0, 30.0, 5.0)
        ]
        dead = grids[0].copy()
        dead[3, keep[3].argmax()] = -np.inf  # row 3 has no path left
        layout = engine.layout(keep)
        for grid in (grids[0], grids[1], dead, grids[2], grids[0]):
            if grid is dead:
                with pytest.raises(NoPathError):
                    layout.run(grid)
                continue
            got, want = layout.run(grid), engine.layout(keep).run(grid)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_the_layout_keeps_its_own_copy_of_the_mask(self):
        grids = log_softmax(np.random.default_rng(32).standard_normal((2, 4, CLASSES)))
        keep = np.ones((2, 4), dtype=bool)
        engine = pack([[1], [2, 3]], STANDARD, 4, CLASSES)
        layout = engine.layout(keep)
        want = layout.run(grids)
        keep[:, 0] = False
        assert layout.keep.all()
        assert np.array_equal(layout.run(grids)[1], want[1])


class TestLayoutBuilds:
    """A timing-free guard on the layout cache: the trainer builds a layout
    only when its keep mask changes, and ``grad_check`` one for all its frames."""

    @pytest.fixture
    def builds(self, monkeypatch):
        masks = []
        layout = GraphBatch.layout

        def spy(batch, keep):
            masks.append(np.array(keep))
            return layout(batch, keep)

        monkeypatch.setattr(GraphBatch, "layout", spy)
        return masks

    def test_a_run_without_skipping_builds_one_layout(self, builds):
        train(generate_corpus(SMALL), hard(2), steps=20)
        assert len(builds) == 1

    def test_a_skipping_run_builds_a_layout_only_when_the_mask_changes(self, builds):
        steps = 40
        train(generate_corpus(SMALL), STANDARD, steps=steps, skip_beta=0.5, warmup_fraction=0.25)
        assert 2 <= len(builds) <= steps
        assert all(not np.array_equal(a, b) for a, b in zip(builds, builds[1:]))

    def test_grad_check_lays_out_its_frame_batches_once(self, builds):
        frames, classes = 6, 4
        logits = np.random.default_rng(33).standard_normal((frames, classes))
        grad_check([1, 2, 2], logits)
        # ctc_loss's layout for the analytic gradient, then one that every
        # frame's 2C bumped grids share.
        assert [mask.shape for mask in builds] == [(1, frames), (2 * classes, frames)]


class TestLayoutSorts:
    """A timing-free guard on a layout's build: it sorts only the B kept
    counts, and finds each graph's kept frames without sorting the mask."""

    def test_a_build_sorts_only_arrays_of_length_b(self, monkeypatch):
        labels = [[1, 2], [3], [], [2, 2, 1]]
        frames = 9
        keep = np.random.default_rng(34).random((len(labels), frames)) < 0.5
        for row, seq in enumerate(labels):
            keep[row, : min_alignment_length(seq)] = True
        keep[2] = False  # a row that keeps no frame
        engine = pack(labels, STANDARD, frames, CLASSES)
        sorted_shapes = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            sorted_shapes.append(np.shape(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        engine.layout(keep)
        assert sorted_shapes and all(shape == (len(labels),) for shape in sorted_shapes)


class TestLayoutShapes:
    @pytest.mark.parametrize("shape", [(2, 3), (3,)], ids=str)
    def test_keep_must_be_one_row_per_graph(self, shape):
        with pytest.raises(ValueError) as info:
            pack([[1]], STANDARD, 3, CLASSES).layout(np.ones(shape, dtype=bool))
        assert str(info.value) == f"keep must be a (1, T) mask, not {shape}"

    def test_grids_must_match_the_layout(self):
        layout = pack([[1]], STANDARD, 3, CLASSES).layout(np.ones((1, 3), dtype=bool))
        with pytest.raises(ValueError) as info:
            layout.run(np.zeros((1, 4, CLASSES)))
        assert str(info.value) == f"grids must be (1, 3, {CLASSES}), not (1, 4, {CLASSES})"


class TestTrain:
    def test_loss_decreases(self):
        corpus = generate_corpus(SMALL)
        _, losses = train(corpus, STANDARD, steps=500)
        assert len(losses) == 500
        assert all(np.isfinite(losses))
        assert losses[-1] < losses[0]

    def test_soft_zero_matches_standard_exactly(self):
        corpus = generate_corpus(SMALL)
        _, base = train(corpus, STANDARD, steps=60)
        _, zero = train(corpus, soft(0.0), steps=60)
        assert max(abs(a - b) for a, b in zip(base, zero)) < 1e-9

    def test_large_hard_bound_matches_standard(self):
        corpus = generate_corpus(SMALL)
        t_max = max(len(u.features) for u in corpus.utterances)
        _, base = train(corpus, STANDARD, steps=60)
        _, big = train(corpus, hard(t_max + 5), steps=60)
        assert max(abs(a - b) for a, b in zip(base, big)) < 1e-9

    def test_hard1_trains_without_infeasibility(self):
        # The generator never emits adjacent duplicates, so the minimum
        # alignment length is the token count and hard(1) is always feasible.
        corpus = generate_corpus(SMALL)
        for utt in corpus.utterances:
            assert len(utt.features) >= min_alignment_length(utt.labels)
        _, losses = train(corpus, hard(1), steps=40)
        assert all(np.isfinite(losses))

    def test_no_skipping_during_warmup(self):
        corpus = generate_corpus(SMALL)
        _, plain = train(corpus, STANDARD, steps=25)
        _, warm = train(corpus, STANDARD, steps=25, skip_beta=0.5, warmup_fraction=1.0)
        assert plain == warm

    def test_skipping_changes_the_loss_after_warmup(self):
        corpus = generate_corpus(SMALL)
        _, plain = train(corpus, STANDARD, steps=60)
        # By mid-training the blank probabilities straddle 0.5, so skipping
        # engages on part of the frames and the curves diverge.
        _, skipped = train(
            corpus, STANDARD, steps=60, skip_beta=0.5, warmup_fraction=0.5
        )
        assert skipped[:30] == plain[:30]
        assert skipped[30:] != plain[30:]

    def test_infeasible_skip_falls_back_to_all_frames(self):
        corpus = generate_corpus(SMALL)
        _, plain = train(corpus, STANDARD, steps=25)
        # A threshold below every blank probability would drop every frame;
        # the fallback must keep the full utterance instead.
        _, guarded = train(
            corpus, STANDARD, steps=25, skip_beta=0.01, warmup_fraction=0.0
        )
        assert guarded == plain

    def test_divergence_raises(self):
        # Steps this large overflow within a step or lose a graph's every path;
        # each is divergence, raised as such and without a numpy warning.
        corpus = generate_corpus(CorpusConfig(num_utterances=5, seed=1))
        for step_size in (1e290, 1e297, 1e307, 1e308):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TrainingDivergedError):
                    train(corpus, STANDARD, steps=10, step_size=step_size)

    def test_infeasible_corpus_rejected(self):
        cfg = CorpusConfig(num_utterances=1, seed=0)
        short = SyntheticCorpus(
            config=cfg,
            utterances=[Utterance(np.zeros((1, cfg.feature_dim)), (1, 2))],
        )
        with pytest.raises(InfeasibleAlignmentError):
            train(short, STANDARD, steps=5)


class TestEvaluate:
    def test_zero_model_skips_nothing(self):
        corpus = generate_corpus(SMALL)
        model, _ = train(corpus, STANDARD, steps=1, step_size=0.0)
        report = evaluate(model, corpus)
        # Uniform posterior 1/(V+1) never exceeds any threshold >= 0.8.
        assert all(point.ratio == 0.0 for point in report.sweep)

    def test_ratio_at_a_threshold_outside_the_sweep_raises(self):
        sweep = [ctcfst.skip.SweepPoint(0.9, 0.5, 0.6)]
        report = ctcfst.toy.ExperimentReport("standard", 0.0, sweep, 0.0, 0.6)
        assert report.ratio_at(0.9) == 0.5
        with pytest.raises(KeyError) as info:
            report.ratio_at(0.8)
        assert info.value.args == ("threshold 0.8 not in sweep",)

    def test_edit_distance(self):
        assert edit_distance([1, 2, 3], [1, 2, 3]) == 0
        assert edit_distance([], [1, 2]) == 2
        assert edit_distance([1, 3], [1, 2, 3]) == 1
        assert edit_distance([2, 2], [2]) == 1

    def test_min_alignment_length(self):
        assert min_alignment_length([1, 2, 3]) == 3
        assert min_alignment_length([1, 1]) == 3
        assert min_alignment_length([]) == 0


class TestThreeHomes:
    """``ToyModel.grid`` is the one forward, ``SyntheticCorpus.padded`` the one
    batch layout and ``classify_blank_frames`` the one skip decision: the
    trainer, ``evaluate`` and the sweep all reach them."""

    def test_every_caller_reaches_grid_and_classify(self, monkeypatch):
        grids, masks = [], []
        forward = ToyModel.grid
        classify = ctcfst.skip.classify_blank_frames

        def grid_spy(self, features):
            grids.append(features.shape)
            return forward(self, features)

        def classify_spy(probs, beta):
            masks.append(np.shape(probs))
            return classify(probs, beta)

        monkeypatch.setattr(ToyModel, "grid", grid_spy)
        for module in (ctcfst.skip, ctcfst.toy):
            monkeypatch.setattr(module, "classify_blank_frames", classify_spy)
        corpus = generate_corpus(CorpusConfig(num_utterances=4, seed=2))
        feats, real = corpus.padded()
        model, _ = train(corpus, steps=4, skip_beta=0.5, warmup_fraction=0.5)
        assert grids == [feats.shape] * 4
        assert masks == [real.shape] * 2  # the steps after warmup
        del grids[:], masks[:]
        evaluate(model, corpus, betas=(0.5, 0.9))
        assert grids == [feats.shape]
        assert masks == [(int(real.sum()),)] * 2  # one per threshold

    def test_empty_betas_rejected(self):
        classes = SMALL.vocab_size + 1
        model = ctcfst.toy.ToyModel(np.zeros((SMALL.feature_dim, classes)), np.zeros(classes))
        with pytest.raises(ValueError, match="betas must not be empty"):
            evaluate(model, generate_corpus(SMALL), betas=())

    def test_report_matches_a_per_utterance_loop(self):
        model, _ = train(generate_corpus(SMALL), STANDARD, steps=200)
        corpus = generate_corpus(CorpusConfig(num_utterances=25, seed=12))
        report = evaluate(model, corpus)
        prob_sets, counts, edits = [], [], 0
        for u in corpus.utterances:
            grid = log_softmax(u.features @ model.weights + model.bias)
            prob_sets.append(np.exp(grid[:, 0]))
            counts.append(len(u.labels))
            edits += edit_distance(greedy_decode(grid), u.labels)
        frames = sum(len(p) for p in prob_sets)
        assert report.sweep == sweep_thresholds(np.concatenate(prob_sets), sum(counts))
        assert any(point.ratio > 0 for point in report.sweep)
        assert report.token_error_rate == edits / sum(counts)
        assert report.gamma_max == gamma_max(sum(counts), frames)

    def test_padded_grid_matches_each_utterance_alone(self):
        model, _ = train(generate_corpus(SMALL), STANDARD, steps=50)
        corpus = generate_corpus(CorpusConfig(num_utterances=25, seed=12))
        feats, real = corpus.padded()
        grid = model.grid(feats)
        for rows, mask, u in zip(grid, real, corpus.utterances):
            assert np.array_equal(rows[mask], model.grid(u.features))


class TestCompareVariants:
    def test_deterministic_and_monotone(self):
        config = ExperimentConfig(seed=2, train_utterances=20, eval_utterances=8, steps=30)
        results = run_experiment(config, [RunSpec(STANDARD), RunSpec(STANDARD)])
        (first, _, first_model), (second, _, second_model) = results
        assert first.sweep == second.sweep
        assert first.token_error_rate == second.token_error_rate
        assert np.array_equal(first_model.weights, second_model.weights)
        ratios = [p.ratio for p in first.sweep]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))

    def test_run_spec_names(self):
        assert RunSpec(STANDARD).name == "standard"
        assert RunSpec(soft(0.04)).name == "soft(0.04)"
        assert RunSpec(hard(2), skip_beta=0.85).name == "hard(2)+skip(0.85)"


class TestExperimentConfig:
    def test_corpora_are_seeded_seed_and_seed_plus_one(self):
        shape = CorpusConfig(vocab_size=3, feature_dim=4)
        config = ExperimentConfig(seed=4, train_utterances=3, eval_utterances=2, corpus=shape)
        train_corpus, eval_corpus = config.corpora()
        assert train_corpus.config == replace(shape, num_utterances=3, seed=4)
        assert eval_corpus.config == replace(shape, num_utterances=2, seed=5)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(steps=0), dict(skip_beta=1.0), dict(betas=(0.9, 1.0)), dict(eval_utterances=0),
            dict(step_size=-1.0), dict(step_size=float("nan")), dict(step_size=float("inf")),
            dict(warmup_fraction=-0.1), dict(warmup_fraction=1.5),
            dict(warmup_fraction=float("nan")), dict(seed=-1),
        ],
    )
    def test_range_checks(self, bad):
        (key,) = bad
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(skip_beta=1.0), "skip_beta must lie in (0, 1), got 1"),
            (dict(skip_beta=float("nan")), "skip_beta must lie in (0, 1), got nan"),
            (dict(betas=(0.9, 0.0)), "betas must lie in (0, 1), got 0"),
            (dict(betas=(0.5, 1.25)), "betas must lie in (0, 1), got 1.25"),
        ],
    )
    def test_thresholds_share_the_skip_rule(self, bad, message):
        with pytest.raises(ValueError) as info:
            ExperimentConfig(**bad)
        assert str(info.value) == message
