import ast
import itertools
import os
import re

import numpy as np
import pytest

from conftest import uniform_grid
from ctcfst import (
    BLANK,
    Fst,
    NoPathError,
    build_topology,
    collapse_ctc,
    fst_to_text,
    hard,
)
import ctcfst
from ctcfst import fsa
from ctcfst.fsa import format_number, parse_float, parse_matrix
from ctcfst.lattice import intersect_dense, iterate_paths, total_score
from ctcfst.reference import build_linear_graph, compose, connect, fst_from_text


def canonical(fst: Fst):
    return sorted(
        (arc.src, arc.dst, arc.ilabel, arc.olabel, round(arc.weight, 9))
        for arc in fst.arcs()
    )


class TestConnect:
    def test_dead_end_state_removed(self):
        fst = Fst()
        s0, s1, dead, final = (fst.add_state() for _ in range(4))
        fst.start, fst.final = s0, final
        fst.add_arc(s0, s1, 1, 1, 0.5)
        fst.add_arc(s0, dead, 2, 2)  # never reaches final
        fst.add_arc(s1, final, -1, 0)
        out = connect(fst)
        assert out.num_states == 3
        assert canonical(out) == [(0, 1, 1, 1, 0.5), (1, 2, -1, 0, 0.0)]

    def test_already_trim_is_isomorphic(self):
        fst = build_linear_graph([1, 2])
        out = connect(fst)
        assert canonical(out) == canonical(fst)
        assert (out.start, out.final) == (fst.start, fst.final)

    def test_empty_language_returns_empty_fst(self):
        fst = Fst()
        s0, s1 = fst.add_state(), fst.add_state()
        fst.start, fst.final = s0, s1  # no arcs: final unreachable
        out = connect(fst)
        assert out.is_empty

    def test_hard1_repeated_label_infeasible_at_two_frames(self):
        # Brute force: no length-2 string collapses to (1, 1); the trimmed
        # graph agrees by having no path through two frames.
        space = itertools.product([BLANK, 1], repeat=2)
        assert [s for s in space if collapse_ctc(s) == [1, 1]] == []
        graph = compose(build_topology(2, hard(1)), build_linear_graph([1, 1]))
        with pytest.raises(NoPathError):
            total_score(intersect_dense(connect(graph), uniform_grid(2, 3)))


class TestCompose:
    def test_single_symbol_language_by_enumeration(self):
        # Alignments of one token at length T are exactly blank^i 1^j blank^k
        # with j >= 1; check against filtering all strings through the
        # collapse map.
        graph = connect(compose(build_topology(1), build_linear_graph([1])))
        for frames in range(1, 7):
            lat = intersect_dense(graph, uniform_grid(frames, 2))
            got = {labels for labels, _ in iterate_paths(lat)}
            want = {
                pi
                for pi in itertools.product([BLANK, 1], repeat=frames)
                if collapse_ctc(pi) == [1]
            }
            assert got == want

    def test_empty_operand_annihilates(self):
        topo = build_topology(2)
        assert compose(topo, Fst()).is_empty
        assert compose(Fst(), topo).is_empty

    def test_hard1_graph_shape_for_two_tokens(self):
        # With K=1, successive repeats of non-blank symbols are not allowed:
        # at T=3 only the three repeat-free alignments survive.
        graph = connect(compose(build_topology(2, hard(1)), build_linear_graph([1, 2])))
        lat = intersect_dense(graph, uniform_grid(3, 3))
        got = {labels for labels, _ in iterate_paths(lat)}
        assert got == {(0, 1, 2), (1, 0, 2), (1, 2, 0)}

    def test_rejects_input_epsilon_right_operand(self):
        right = Fst()
        s0, s1 = right.add_state(), right.add_state()
        right.start, right.final = s0, s1
        right.add_arc(s0, s1, 0, 1)
        with pytest.raises(ValueError, match="epsilon-free"):
            compose(build_topology(1), right)

    def test_weights_combine_additively(self):
        graph = compose(build_topology(2, hard(2)), build_linear_graph([1]))
        for arc in graph.arcs():
            assert arc.weight == 0.0


class TestTextFormat:
    def test_round_trip_is_isomorphic_with_full_precision(self):
        fst = build_topology(3, hard(2))
        # Give the arcs awkward weights to exercise the precision contract.
        rng = np.random.default_rng(3)
        jittered = Fst()
        for _ in range(fst.num_states):
            jittered.add_state()
        jittered.start, jittered.final = fst.start, fst.final
        for arc in fst.arcs():
            jittered.add_arc(
                arc.src, arc.dst, arc.ilabel, arc.olabel, float(rng.standard_normal())
            )
        parsed = fst_from_text(fst_to_text(jittered))
        assert parsed.num_states == jittered.num_states
        assert (parsed.start, parsed.final) == (jittered.start, jittered.final)
        for ours, theirs in zip(jittered.arcs(), parsed.arcs()):
            assert (ours.src, ours.dst, ours.ilabel, ours.olabel) == (
                theirs.src,
                theirs.dst,
                theirs.ilabel,
                theirs.olabel,
            )
            assert theirs.weight == pytest.approx(ours.weight, abs=1e-9)

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            fst_from_text("0 1 2\n")

    @pytest.mark.parametrize(
        "line", ["0 1 \u0661 1 0", "0 1 1_0 1 0", "-1 1 1 1 0", "0 +1 1 1 0", "0 1 1 1 x"]
    )
    def test_integer_fields_must_be_ascii_digits(self, line):
        with pytest.raises(ValueError, match="malformed FST line"):
            fst_from_text(f"{line}\n1 2 -1 0 0\n2\n")

    @pytest.mark.parametrize("weight", ["\u0665", "0.\u0665", "\uff15", "1_0", "1e1_0"])
    def test_weight_must_be_ascii(self, weight):
        with pytest.raises(ValueError, match="malformed FST line"):
            fst_from_text(f"0 1 1 1 {weight}\n1\n")

    def test_float_fields_parse_as_float_does(self):
        for token in ("0.5", "-1e-5", "1e308", "inf", "-inf", " 2.5 ", "+3", ".5"):
            assert parse_float(token) == float(token)
        assert np.isnan(parse_float("nan"))

    def test_labels_may_be_negative(self):
        fst = fst_from_text("0 1 -1 -2 0.5\n1\n")
        assert list(fst.arcs()) == [(0, 1, -1, -2, 0.5)]

    def test_final_state_with_outgoing_arcs_rejected(self):
        with pytest.raises(ValueError, match="final state 1 has outgoing arcs"):
            fst_from_text("0 1 1 1 0\n1 0 2 2 0\n1\n")

    def test_empty_fst_serializes_to_empty_text(self):
        assert fst_to_text(Fst()) == ""
        assert fst_from_text("").is_empty


class TestNumberRule:
    def test_twelve_significant_digits_and_no_negative_zero(self):
        assert format_number(-0.0) == format_number(0.0) == format_number(0) == "0"
        assert format_number(np.float64(-0.0)) == "0"
        assert format_number(1 / 3) == "0.333333333333"
        assert format_number(-2.5e-300) == "-2.5e-300"
        assert [format_number(v) for v in (np.inf, -np.inf, np.nan)] == ["inf", "-inf", "nan"]

    def test_fst_weights_follow_the_rule(self):
        fst = Fst()
        fst.add_state(), fst.add_state()
        fst.start, fst.final = 0, 1
        fst.add_arc(0, 0, 1, 0, -0.0)
        fst.add_arc(0, 1, -1, 0, 1 / 3)
        assert fst_to_text(fst) == "0 0 1 0 0\n0 1 -1 0 0.333333333333\n1\n"

    def test_no_float_format_spec_but_the_rule(self):
        """Every number the package writes goes through ``format_number``: no
        module formats a float by its own spec, ``%.3f`` or ``{x:g}`` alike."""
        printf = re.compile(r"%[#0+-]*[0-9]*(?:\.[0-9]+)?[eEfFgG]")
        found = []
        package = os.path.dirname(ctcfst.__file__)
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name)) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.FormattedValue) and node.format_spec is not None:
                    spec = "".join(
                        part.value for part in node.format_spec.values
                        if isinstance(part, ast.Constant)
                    )
                    if spec[-1:] and spec[-1] in "eEfFgG%":
                        found.append((name, node.lineno, ":" + spec))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    found += [(name, node.lineno, m) for m in printf.findall(node.value)]
        assert [(name, spec) for name, _, spec in found] == [("fsa.py", fsa._NUMBER)], found


class TestMatrixText:
    """``parse_matrix`` names a bad entry in the package's words, counting
    from 0, and refuses non-ASCII text, which ``str.split`` and ``np.loadtxt``
    would split on as on a space."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2\n0 x\n", "row 0, column 1 holds 'x', not a number"),
            ("2 3\n0 0 0\n\n1 0x10 nan(1)\n", "row 1, column 1 holds '0x10', not a number"),
            ("1 1\n1_0\n", "row 0, column 0 holds '1_0', not a number"),
            # A short row anywhere is named before a bad value.
            ("2 2\n0 x\n0\n", "row 1 has 1 values, expected 2"),
        ],
        ids=["letter", "hex-and-nan-payload", "underscore", "width-first"],
    )
    def test_a_value_that_is_no_number_is_named(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_matrix(text)
        assert str(info.value) == message

    NBSP = "\u00a0"
    HALF = "-0.6931471805599453"

    @pytest.mark.parametrize(
        "text, message",
        [
            (f"1{NBSP}2\n{HALF} {HALF}\n", "line 0, column 1 holds '\\xa0', not ASCII"),
            (f"1 2\n{HALF}{NBSP}{HALF}\n", "line 1, column 19 holds '\\xa0', not ASCII"),
            (f"1 2\n\n{NBSP}\n{HALF} {HALF}\n", "line 2, column 0 holds '\\xa0', not ASCII"),
            ("1 1\n\u0661\n", "line 1, column 0 holds '\u0661', not ASCII"),
        ],
        ids=["header", "body", "a-no-break-space-line", "arabic-indic-digit"],
    )
    def test_non_ascii_text_is_refused_at_its_first_character(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_matrix(text)
        assert str(info.value) == message

    def test_the_same_text_with_ascii_spaces_parses(self):
        for text in (f"1 2\n{self.HALF} {self.HALF}\n", f"1 2\n\n \n{self.HALF} {self.HALF}\n"):
            assert parse_matrix(text).tolist() == [[float(self.HALF)] * 2]
