import itertools
import math
from collections import Counter

import numpy as np
import pytest

from conftest import random_grid, uniform_grid
from ctcfst import topology
from ctcfst import (
    STANDARD,
    TopologyVariant,
    build_chain,
    build_topology,
    collapse_ctc,
    enumerate_alignments,
    fst_to_text,
    hard,
    soft,
)
from ctcfst.lattice import intersect_dense, iterate_paths, total_score
from ctcfst.reference import brute_force_alignments, build_linear_graph, build_training_graph


def lattice_label_sets(labels, vocab, frames, variant):
    graph = build_training_graph(labels, vocab, variant)
    lat = intersect_dense(graph, uniform_grid(frames, vocab + 1))
    return {p for p, _ in iterate_paths(lat)}


def topology_path_weights(labels, vocab, frames, variant):
    """Path -> pure topology weight, read off a lattice over an all-zero grid."""
    graph = build_training_graph(labels, vocab, variant)
    lat = intersect_dense(graph, np.zeros((frames, vocab + 1)))
    return dict(iterate_paths(lat))


class TestVariant:
    def test_validation(self):
        with pytest.raises(ValueError):
            TopologyVariant("soft", penalty=-0.1)
        with pytest.raises(ValueError):
            TopologyVariant("hard", max_run=0)
        with pytest.raises(ValueError):
            TopologyVariant("fuzzy")
        for kind, penalty, max_run in [("standard", 3.0, 0), ("hard", 5.0, 2),
                                       ("standard", np.nan, 0)]:
            with pytest.raises(ValueError, match=f"^a {kind} topology takes no penalty$"):
                TopologyVariant(kind, penalty, max_run)
        for kind in ("standard", "soft"):
            with pytest.raises(ValueError, match=f"^a {kind} topology takes no repeat bound$"):
                TopologyVariant(kind, max_run=2)
        assert TopologyVariant("standard", penalty=-0.0) == STANDARD
        assert TopologyVariant("hard", penalty=-0.0, max_run=2) == hard(2)

    def test_names(self):
        assert str(STANDARD) == "standard"
        assert str(soft(0.05)) == "soft(0.05)"
        assert str(hard(2)) == "hard(2)"

    def test_negative_zero_penalty_is_zero(self):
        assert str(soft(-0.0)) == "soft(0)"
        assert np.copysign(1.0, soft(-0.0).penalty) == 1.0


class TestBuildTopology:
    def test_standard_alignments_at_three_frames(self):
        got = lattice_label_sets([1, 2], 2, 3, STANDARD)
        assert got == enumerate_alignments([1, 2], 3) == {
            (0, 1, 2),
            (1, 0, 2),
            (1, 2, 0),
            (1, 1, 2),
            (1, 2, 2),
        }

    def test_soft_keeps_the_language_and_weights_the_self_loops(self):
        weights = topology_path_weights([1, 2], 2, 3, soft(0.05))
        assert set(weights) == lattice_label_sets([1, 2], 2, 3, STANDARD)
        # One self-loop traversal each for 112 and 122, none elsewhere.
        assert weights[(1, 1, 2)] == pytest.approx(-0.05)
        assert weights[(1, 2, 2)] == pytest.approx(-0.05)
        for path in ((0, 1, 2), (1, 0, 2), (1, 2, 0)):
            assert weights[path] == 0.0

    def test_hard2_run_bound_at_four_frames(self):
        got = lattice_label_sets([1, 2], 2, 4, hard(2))
        assert (1, 1, 2, 2) in got
        assert (1, 1, 1, 2) not in got
        assert (1, 2, 2, 2) not in got
        assert got == enumerate_alignments([1, 2], 4, hard(2))

    def test_invalid_vocab_rejected(self):
        with pytest.raises(ValueError):
            build_topology(0)


class TestLinearGraph:
    def test_two_token_chain(self):
        fst = build_linear_graph([1, 2])
        assert fst.num_states == 4  # 3-state chain plus the super-final
        labels = [(a.ilabel, a.olabel) for a in fst.arcs()]
        assert labels == [(1, 1), (2, 2), (-1, 0)]

    def test_empty_labels_accept_epsilon(self):
        fst = build_linear_graph([])
        assert fst.num_states == 2
        lat = intersect_dense(
            build_training_graph([], 2, STANDARD), uniform_grid(3, 3)
        )
        assert {p for p, _ in iterate_paths(lat)} == {(0, 0, 0)}

    def test_repeated_token_chain(self):
        fst = build_linear_graph([1, 1])
        assert [a.ilabel for a in fst.arcs()] == [1, 1, -1]

    def test_out_of_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="vocabulary"):
            build_linear_graph([1, 3], vocab_size=2)
        with pytest.raises(ValueError, match="vocabulary"):
            build_linear_graph([0])


class TestTrainingGraph:
    def test_repeated_label_needs_blank(self):
        got = lattice_label_sets([1, 1], 2, 3, STANDARD)
        assert got == {(1, 0, 1)}

    def test_hard1_three_alignments(self):
        got = lattice_label_sets([1, 2], 2, 3, hard(1))
        assert got == {(0, 1, 2), (1, 0, 2), (1, 2, 0)}

    def test_exhaustive_equality_with_enumeration(self):
        # Every (labels, frames, variant) family up to the guard: the
        # training-graph path set is exactly the brute-forced alignment set.
        variants = [STANDARD, soft(0.5), hard(1), hard(2)]
        vocab = 2
        label_sets = [
            list(seq)
            for length in range(0, 3)
            for seq in itertools.product([1, 2], repeat=length)
        ]
        for labels in label_sets:
            for frames in range(1, 6):
                for variant in variants:
                    got = lattice_label_sets(labels, vocab, frames, variant)
                    want = brute_force_alignments(labels, frames, variant)
                    assert got == want, (labels, frames, str(variant))

    def test_soft_zero_equals_standard_scores(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            grid = random_grid(rng, 5, 3)
            std = total_score(
                intersect_dense(build_training_graph([1, 2], 2, STANDARD), grid)
            )
            s0 = total_score(
                intersect_dense(build_training_graph([1, 2], 2, soft(0.0)), grid)
            )
            assert abs(std - s0) < 1e-12

    def test_soft_weight_equals_penalty_times_repeats(self):
        lam = 0.37
        weights = topology_path_weights([1, 2, 1], 3, 6, soft(lam))
        for path, weight in weights.items():
            runs = [len(list(g)) for k, g in itertools.groupby(path) if k != 0]
            repeats = sum(r - 1 for r in runs)
            assert weight == pytest.approx(-lam * repeats, abs=1e-12), path

    def test_hard_nesting_and_limit(self):
        labels, frames = [1, 2], 5
        sets = {k: enumerate_alignments(labels, frames, hard(k)) for k in (1, 2, 3, 5)}
        standard = enumerate_alignments(labels, frames, STANDARD)
        assert sets[1] <= sets[2] <= sets[3] <= sets[5]
        assert sets[5] == standard  # K >= T accepts the same language
        for k in (1, 2, 3):
            assert sets[k] <= standard

    def test_collapse_recovers_labels_from_enumeration(self):
        for labels in ([1], [1, 2], [2, 1, 2], [1, 1]):
            for pi in enumerate_alignments(labels, 5):
                assert collapse_ctc(pi) == labels


def label_sequences(vocab, max_length=3):
    return [
        list(seq)
        for length in range(max_length + 1)
        for seq in itertools.product(range(1, vocab + 1), repeat=length)
    ]


class TestBuildChain:
    """The chain against the composed graph it replaced in ``topo build``."""

    @pytest.mark.parametrize("vocab", [2, 3, 7])
    @pytest.mark.parametrize(
        "variant", [STANDARD, soft(0.0), soft(0.04), soft(5.0), hard(1), hard(2)], ids=str
    )
    def test_prints_the_composed_graph_byte_for_byte(self, vocab, variant):
        for labels in label_sequences(vocab):
            got = fst_to_text(build_chain(labels, vocab, variant))
            assert got == fst_to_text(build_training_graph(labels, vocab, variant)), labels

    @pytest.mark.parametrize("vocab", [2, 3])
    @pytest.mark.parametrize("max_run", [3, 4])
    def test_deep_hard_runs_renumber_the_composed_graph(self, vocab, max_run):
        # Composition numbers a run of three or more states out of chain order.
        rng = np.random.default_rng(vocab * 10 + max_run)
        for labels in label_sequences(vocab):
            chain = build_chain(labels, vocab, hard(max_run))
            composed = build_training_graph(labels, vocab, hard(max_run))
            assert chain.num_states == composed.num_states
            assert Counter(a[2:] for a in chain.arcs()) == Counter(a[2:] for a in composed.arcs())
            for frames in range(1, 8):
                grid = random_grid(rng, frames, vocab + 1)
                got = dict(iterate_paths(intersect_dense(chain, grid)))
                want = dict(iterate_paths(intersect_dense(composed, grid)))
                assert got.keys() == want.keys(), (labels, frames)
                for path, score in got.items():
                    assert score == pytest.approx(want[path], abs=1e-12)

    def test_rejects_what_composition_rejects(self):
        with pytest.raises(ValueError, match="vocab_size must be >= 1"):
            build_chain([1], 0)
        with pytest.raises(ValueError) as info:
            build_chain([1, 3], 2)
        assert str(info.value) == "label 3 outside vocabulary range 1..2"


class TestSizeLimit:
    """``build_topology`` and ``build_chain`` refuse a graph of more than
    ``MAX_GRAPH_ARCS`` arcs before building anything."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_topology(10**6),
            lambda: build_topology(500, hard(4)),
            lambda: build_topology(2, hard(10**20)),
            lambda: build_chain([1], 1, hard(10**20)),
            lambda: build_chain([1, 2] * 200_000, 2),
        ],
        ids=["vocab", "vocab-and-bound", "topology-bound", "chain-bound", "chain-labels"],
    )
    def test_refuses_before_building(self, no_fst, build):
        with pytest.raises(ValueError, match=r"^graph too large: \d+ arcs, limit 1000000$"):
            build()

    def test_admits_the_v500_hard2_topology(self, no_fst):
        with pytest.raises(AssertionError, match="an Fst was built"):
            build_topology(500, hard(2))

    @pytest.mark.parametrize("variant", [STANDARD, soft(0.5), hard(1), hard(3)], ids=str)
    def test_topology_count_is_exact(self, monkeypatch, variant):
        arcs = build_topology(3, variant).num_arcs
        monkeypatch.setattr(topology, "MAX_GRAPH_ARCS", arcs - 1)
        with pytest.raises(ValueError, match=f"graph too large: {arcs} arcs"):
            build_topology(3, variant)

    @pytest.mark.parametrize("variant", [STANDARD, soft(0.5), hard(1), hard(3)], ids=str)
    def test_chain_count_is_an_upper_bound(self, monkeypatch, variant):
        for labels in label_sequences(3):
            arcs = build_chain(labels, 3, variant).num_arcs
            with monkeypatch.context() as patch:
                patch.setattr(topology, "MAX_GRAPH_ARCS", arcs - 1)
                with pytest.raises(ValueError, match="graph too large"):
                    build_chain(labels, 3, variant)


class TestCollapse:
    def test_ctc_collapse(self):
        assert collapse_ctc([1, 1, 0, 2]) == [1, 2]
        assert collapse_ctc([0, 0, 0]) == []
        assert collapse_ctc([1, 0, 1]) == [1, 1]


class TestEnumerationGuard:
    def test_frame_guard(self):
        with pytest.raises(ValueError, match="guard"):
            enumerate_alignments([1], 13)

    def test_symbol_guard(self):
        with pytest.raises(ValueError, match="guard"):
            enumerate_alignments([1, 2, 3, 4, 5], 4)

    def test_minimal_and_infeasible_lengths(self):
        assert enumerate_alignments([1, 2], 2) == {(1, 2)}
        assert enumerate_alignments([1, 2], 1) == set()


class TestChainWalk:
    """``enumerate_alignments`` walks the CTC chain; the oracle tries every string."""

    def test_equals_the_brute_force_oracle(self):
        for labels in label_sequences(3):
            for frames in range(7):
                for variant in (STANDARD, soft(0.5), hard(1), hard(2), hard(3)):
                    want = brute_force_alignments(labels, frames, variant)
                    assert enumerate_alignments(labels, frames, variant) == want

    def test_count_without_repeats_is_the_closed_form_at_the_guard(self):
        # Labels without repeats: C(T + U, 2U) alignments.
        assert len(enumerate_alignments([1, 2, 3, 4], 12)) == math.comb(16, 8) == 12870
