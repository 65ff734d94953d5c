import ast
import errno
import inspect
import json
import math
import os
import resource
import sys

import numpy as np
import pytest

import ctcfst
from ctcfst import STANDARD, cli, fst_to_text, hard, lattice, reference, soft, toy
from ctcfst.cli import main
from ctcfst.fsa import format_matrix, format_number
from ctcfst.reference import build_training_graph, fst_from_text


@pytest.fixture
def uniform3(tmp_path):
    path = tmp_path / "uniform3.txt"
    path.write_text(format_matrix(np.full((3, 3), math.log(1 / 3))))
    return str(path)


class TestAlign:
    def test_five_alignments(self, capsys):
        assert main(["align", "--labels", "A,B", "--frames", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sorted(lines) == ["-AB", "A-B", "AAB", "AB-", "ABB"]

    def test_numeric_labels(self, capsys):
        assert main(["align", "--labels", "1,2", "--frames", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1 2"

    def test_hard_variant(self, capsys):
        code = main(
            ["align", "--labels", "A,B", "--frames", "3", "--variant", "hard", "--k", "1"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_negative_frames_exits_one(self, capsys):
        assert main(["align", "--labels", "A", "--frames", "-1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: frames must be >= 0, got -1\n"


class TestLoss:
    def test_hard1_closed_form(self, capsys, uniform3):
        code = main(
            ["loss", "--labels", "A,B", "--grid", uniform3, "--variant", "hard", "--k", "1"]
        )
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(math.log(9), abs=1e-9)

    def test_infeasible_exits_one(self, tmp_path, capsys):
        short = tmp_path / "onef.txt"
        short.write_text(format_matrix(np.full((1, 3), math.log(1 / 3))))
        assert main(["loss", "--labels", "A,B", "--grid", str(short)]) == 1
        assert "alignment" in capsys.readouterr().err

    def test_grad_flag_prints_matrix(self, capsys, uniform3):
        assert main(["loss", "--labels", "A,B", "--grid", uniform3, "--grad"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].split() == ["3", "3"]
        assert len(out) == 5

    @pytest.mark.parametrize("labels", ["1,3", "0", "2,-1"])
    def test_label_outside_vocabulary_exits_one(self, capsys, uniform3, labels):
        assert main(["loss", "--labels", labels, "--grid", uniform3]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "outside vocabulary range 1..2" in err

    @pytest.mark.parametrize("header", ["2.5 3", "2 -3"])
    def test_malformed_header_exits_one(self, tmp_path, capsys, header):
        path = tmp_path / "grid.txt"
        path.write_text(f"{header}\n0 0 0\n0 0 0\n")
        assert main(["loss", "--labels", "A", "--grid", str(path)]) == 1
        assert capsys.readouterr().err == f"error: malformed matrix header: {header!r}\n"

    def test_missing_file_exits_one(self, capsys):
        assert main(["loss", "--labels", "A", "--grid", "/nonexistent.txt"]) == 1

    def test_huge_hard_bound_runs_as_standard(self, capsys, uniform3):
        # A bound past the frame count prunes nothing, so nothing large is built.
        flags = ["loss", "--labels", "A,B", "--grid", uniform3, "--grad"]
        assert main([*flags, "--variant", "hard", "--k", "99999999999999999999"]) == 0
        huge = capsys.readouterr()
        assert main(flags) == 0
        assert huge == capsys.readouterr()

    def test_zero_loss_prints_zero_not_negative_zero(self, tmp_path, capsys):
        # Blank probability 1 at every frame: the total is 0.0, the loss -0.0.
        path = tmp_path / "blank.txt"
        path.write_text("3 3\n" + "0 -1000 -1000\n" * 3)
        assert main(["loss", "--labels", "", "--grid", str(path)]) == 0
        assert capsys.readouterr() == ("0\n", "")


    def test_non_finite_grid_names_the_entry(self, tmp_path, capsys):
        grid = np.full((2, 3), math.log(1 / 3))
        grid[1, 2] = np.nan
        path = tmp_path / "grid.txt"
        path.write_text(format_matrix(grid))
        assert main(["loss", "--labels", "1", "--grid", str(path)]) == 1
        err = "error: grid must be finite: row 1, column 2 holds nan\n"
        assert capsys.readouterr() == ("", err)

    def test_row_that_is_not_log_probabilities_exits_one(self, tmp_path, capsys):
        path = tmp_path / "zeros.txt"
        path.write_text("2 3\n" + "0 0 0\n" * 2)
        assert main(["loss", "--labels", "1", "--grid", str(path), "--grad"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: grid row 0 is not log-probabilities: its log-sum-exp is 1.09861228867, not 0\n"
        )

    def test_log_probabilities_at_six_digits_are_accepted(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((60, 21)) * 3
        grid = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        path = tmp_path / "grid.txt"
        path.write_text("60 21\n" + "".join(" ".join(f"{v:g}" for v in row) + "\n" for row in grid))
        assert main(["loss", "--labels", "1,2,3", "--grid", str(path), "--grad"]) == 0
        assert capsys.readouterr().err == ""


class TestUsageErrors:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["align", "--labels", "A", "--frames", "2", "--bogus"])
        assert info.value.code == 2

    def test_soft_without_lambda_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["align", "--labels", "A", "--frames", "2", "--variant", "soft"])
        assert info.value.code == 2

    @pytest.mark.parametrize("penalty", ["-0.5", "-1e-5", "-5E+2", "nan"])
    def test_negative_lambda_exits_two(self, capsys, penalty):
        with pytest.raises(SystemExit) as info:
            main(["topo", "build", "--vocab", "2", "--variant", "soft", "--lambda", penalty])
        assert info.value.code == 2
        assert "soft penalty must be >= 0" in capsys.readouterr().err

    def test_negative_k_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(
                ["align", "--labels", "A", "--frames", "2", "--variant", "hard", "--k", "0"]
            )
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["loss", "--labels", "A", "--grid", "g.txt", "--variant", "hard", "--k"], "--k"),
            (["align", "--labels", "A", "--frames"], "--frames"),
            (["topo", "build", "--vocab"], "--vocab"),
            (["skip", "analyze", "--probs", "g.txt", "--tokens"], "--tokens"),
            (["train-toy", "--out", "out", "--steps"], "--steps"),
        ],
        ids=lambda value: value if isinstance(value, str) else value[0],
    )
    @pytest.mark.parametrize("value", ["\u0662", "\u0663", "1_0", "+2", " 2"])
    def test_integer_flag_must_be_ascii_digits(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as info:
            main([*argv, value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f": error: argument {flag}: invalid integer value: {value!r}\n")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["align", "--labels", "A", "--frames", "2", "--variant", "soft", "--lambda"],
             "--lambda"),
            (["grad-check", "--labels", "A", "--logits", "g.txt", "--epsilon"], "--epsilon"),
            (["skip", "analyze", "--probs", "g.txt", "--beta"], "--beta"),
            (["train-toy", "--out", "out", "--config", "missing.json", "--step-size"],
             "--step-size"),
            (["train-toy", "--out", "out", "--config", "missing.json", "--warmup-fraction"],
             "--warmup-fraction"),
            (["train-toy", "--out", "out", "--config", "missing.json", "--skip-beta"],
             "--skip-beta"),
        ],
        ids=lambda value: value if isinstance(value, str) else value[0],
    )
    @pytest.mark.parametrize("value", ["\u0665", "\u0660.\u0665", "\uff15", "1_0", "0.8_5"])
    def test_float_flag_must_be_ascii(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as info:
            main([*argv, value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f": error: argument {flag}: invalid float value: {value!r}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["topo", "build", "--vocab", "2"],
            ["loss", "--labels", "A", "--grid", "g.txt"],
            ["align", "--labels", "A", "--frames", "2"],
            ["grad-check", "--labels", "A", "--logits", "g.txt"],
            ["train-toy", "--out", "out"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--variant", "hard", "--k", "0"], "hard repeat bound must be >= 1"),
            (["--variant", "soft"], "soft needs a parameter: --lambda X or soft:X"),
            (["--k", "2"], "--k does not apply to the standard variant"),
        ],
        ids=["k0", "no-lambda", "stray-k"],
    )
    def test_variant_errors_name_the_subcommand(self, capsys, argv, flags, message):
        # Each command's usage line and error prefix are its own, not the root's.
        sub = " ".join(argv[:2] if argv[0] == "topo" else argv[:1])
        with pytest.raises(SystemExit) as info:
            main(argv + flags)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: ctcfst {sub} ")
        assert err.endswith(f"\nctcfst {sub}: error: {message}\n")


class TestParserReuse:
    def test_calls_print_what_a_fresh_parser_prints(self, capsys, uniform3):
        calls = [
            ["align", "--labels", "A,B", "--frames", "3"],
            ["loss", "--labels", "A,B", "--grid", uniform3, "--variant", "soft"],
            ["loss", "--labels", "A,B", "--grid", uniform3, "--variant", "hard", "--k", "2"],
            ["grad-check", "--labels", "A", "--logits", uniform3, "--epsilon", "-1e-5"],
            ["loss", "--labels", "A,B", "--grid", uniform3, "--grad"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        reused = [run(argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        assert [code for code, _, _ in reused] == [0, 2, 0, 1, 0]
        assert reused == fresh


class TestTopo:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "hl.fst"
        code = main(
            [
                "topo", "build", "--variant", "soft", "--lambda", "0.05",
                "--vocab", "2", "--labels", "A,B", "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        parsed = fst_from_text(text)
        reparsed = fst_from_text(out.read_text())
        ours = [(a.src, a.dst, a.ilabel, a.olabel) for a in parsed.arcs()]
        theirs = [(a.src, a.dst, a.ilabel, a.olabel) for a in reparsed.arcs()]
        assert ours == theirs
        for a, b in zip(parsed.arcs(), reparsed.arcs()):
            assert abs(a.weight - b.weight) < 1e-9
        weights = sorted(a.weight for a in parsed.arcs())
        assert weights[0] == pytest.approx(-0.05)

    def test_topology_only(self, capsys):
        assert main(["topo", "build", "--vocab", "2"]) == 0
        text = capsys.readouterr().out
        fst = fst_from_text(text)
        assert fst.num_states == 4

    @pytest.mark.parametrize(
        "flags, variant",
        [([], STANDARD), (["--variant", "soft", "--lambda", "0.04"], soft(0.04)),
         (["--variant", "hard", "--k", "2"], hard(2))],
        ids=["standard", "soft", "hard"],
    )
    def test_labels_print_the_composed_graph(self, capsys, flags, variant):
        assert main(["topo", "build", "--vocab", "3", "--labels", "A,B,B,C", *flags]) == 0
        want = fst_to_text(build_training_graph([1, 2, 2, 3], 3, variant))
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("labels", [[], ["--labels", "1,2,2"]], ids=["topology", "chain"])
    def test_soft_zero_prints_what_standard_prints(self, capsys, labels):
        # Penalty 0 is plain CTC: its self-loop weight -0.0 is written 0.
        assert main(["topo", "build", "--vocab", "3", *labels]) == 0
        standard = capsys.readouterr()
        soft_zero = ["--variant", "soft", "--lambda", "0"]
        assert main(["topo", "build", "--vocab", "3", *soft_zero, *labels]) == 0
        assert capsys.readouterr() == standard

    @pytest.mark.parametrize(
        "flags, err",
        [
            (["--vocab", "0"], "error: vocab_size must be >= 1\n"),
            (["--vocab", "0", "--labels", "A"], "error: vocab_size must be >= 1\n"),
            (["--vocab", "2", "--labels", "1,3"], "error: label 3 outside vocabulary range 1..2\n"),
            (["--vocab", "2", "--labels", "0"], "error: label 0 outside vocabulary range 1..2\n"),
        ],
    )
    def test_bad_graph_exits_one(self, capsys, flags, err):
        assert main(["topo", "build", *flags]) == 1
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--vocab", "1", "--variant", "hard", "--k", "99999999999999999999", "--labels", "A"],
            ["--vocab", "1", "--variant", "hard", "--k", "99999999999999999999"],
            ["--vocab", "100000"],
        ],
        ids=["chain-bound", "topology-bound", "topology-vocab"],
    )
    def test_graph_too_large_exits_one_before_building(self, capsys, no_fst, flags):
        assert main(["topo", "build", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error: graph too large: ")

    def test_bad_bound_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["topo", "build", "--vocab", "2", "--variant", "hard", "--k", "0"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ctcfst topo build ")
        assert err.endswith("\nctcfst topo build: error: hard repeat bound must be >= 1\n")


class TestGradCheckCommand:
    def test_prints_small_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "logits.txt"
        path.write_text(format_matrix(rng.standard_normal((4, 3))))
        assert main(["grad-check", "--labels", "A,B", "--logits", str(path)]) == 0
        assert float(capsys.readouterr().out.strip()) < 1e-4

    @pytest.mark.parametrize("epsilon", ["0", "-1e-5", "nan"])
    def test_epsilon_not_finite_positive_exits_one(self, capsys, uniform3, epsilon):
        argv = ["grad-check", "--labels", "A", "--logits", uniform3, f"--epsilon={epsilon}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "epsilon" in err

    @pytest.mark.parametrize("epsilon", ["-1e-5", "-.5e3", "-2"])
    def test_negative_epsilon_after_a_space_is_a_value(self, capsys, uniform3, epsilon):
        argv = ["grad-check", "--labels", "A", "--logits", uniform3, "--epsilon", epsilon]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "epsilon must be a finite positive number" in err

    @pytest.mark.parametrize("epsilon", ["1e308", "9e307"])
    def test_epsilon_that_overflows_a_bumped_logit_exits_one(self, capsys, uniform3, epsilon):
        # The logits are finite; the bump by 2 epsilon is not.
        argv = ["grad-check", "--labels", "A", "--logits", uniform3, "--epsilon", epsilon]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"epsilon {float(epsilon):g}" in err
        assert "logits must be finite" not in err

    @pytest.mark.parametrize(
        "epsilon, logits, where",
        [
            ("1e-320", None, "row 0, column 0 holds -1.09861228867"),
            ("1e-5", "2 3\n0 1 2\n3 4 1e12\n", "row 1, column 2 holds 1e+12"),
        ],
    )
    def test_epsilon_that_leaves_a_logit_unmoved_exits_one(
        self, tmp_path, capsys, uniform3, epsilon, logits, where
    ):
        # The bumped logit rounds back to itself, so its numeric gradient is 0.
        path = uniform3
        if logits is not None:
            path = tmp_path / "logits.txt"
            path.write_text(logits)
        argv = ["grad-check", "--labels", "A", "--logits", str(path), "--epsilon", epsilon]
        assert main(argv) == 1
        err = (
            f"error: epsilon {format_number(float(epsilon))} leaves a logit unmoved or past "
            f"the float range: {where}\n"
        )
        assert capsys.readouterr() == ("", err)

    def test_non_finite_logits_name_the_entry(self, tmp_path, capsys):
        path = tmp_path / "logits.txt"
        path.write_text("2 3\n0 1 2\n3 nan 5\n")
        assert main(["grad-check", "--labels", "A", "--logits", str(path)]) == 1
        err = "error: logits must be finite: row 1, column 1 holds nan\n"
        assert capsys.readouterr() == ("", err)


class TestSkipCommand:
    def test_sweep_csv(self, tmp_path, capsys):
        grid = np.log(
            np.array(
                [
                    [0.99, 0.005, 0.005],
                    [0.2, 0.4, 0.4],
                    [0.95, 0.025, 0.025],
                    [0.5, 0.25, 0.25],
                ]
            )
        )
        path = tmp_path / "probs.txt"
        path.write_text(format_matrix(grid))
        assert main(
            ["skip", "analyze", "--probs", str(path), "--beta", "0.9", "--tokens", "2"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beta,ratio,gamma_max"
        beta, ratio, gmax = lines[1].split(",")
        assert float(beta) == 0.9
        assert float(ratio) == 0.5
        assert float(gmax) == 0.5

    def test_default_sweep_grid(self, tmp_path, capsys):
        path = tmp_path / "probs.txt"
        path.write_text(format_matrix(np.full((4, 2), math.log(0.5))))
        assert main(["skip", "analyze", "--probs", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7  # header + six thresholds

    def test_nan_blank_probability_exits_one(self, tmp_path, capsys):
        path = tmp_path / "probs.txt"
        path.write_text("3 2\n-0.1 -2.3\nnan -0.5\n-0.05 -3\n")
        assert main(["skip", "analyze", "--probs", str(path), "--beta", "0.9"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "[0, 1]" in err

    def test_blank_probability_above_one_names_the_row(self, tmp_path, capsys):
        path = tmp_path / "probs.txt"
        path.write_text("3 2\n-0.1 -2.3\n0.5 -0.5\n-0.05 -3\n")
        assert main(["skip", "analyze", "--probs", str(path)]) == 1
        assert capsys.readouterr() == (
            "", "error: blank probabilities must lie in [0, 1]: row 1 holds 1.6487212707\n"
        )

    def test_row_that_is_not_log_probabilities_exits_one(self, tmp_path, capsys):
        path = tmp_path / "probs.txt"
        path.write_text("3 2\n-2 -0.5\n-0.01 1.5\n-3 -0.2\n")
        assert main(["skip", "analyze", "--probs", str(path), "--beta", "0.9"]) == 1
        assert capsys.readouterr() == ("", (
            "error: grid row 0 is not log-probabilities: its log-sum-exp is "
            "-0.298586722017, not 0\n"
        ))

    @pytest.mark.parametrize(
        "row, err",
        [
            ("0 nan", "grid must be finite: row 0, column 1 holds nan"),
            ("0 inf", "grid must be finite: row 0, column 1 holds inf"),
            ("0 1e999", "grid must be finite: row 0, column 1 holds inf"),
            ("-inf -inf", "grid row 0 is not log-probabilities: its log-sum-exp is -inf, not 0"),
            ("nan 0", "blank probabilities must lie in [0, 1]: row 0 holds nan"),
        ],
    )
    def test_non_finite_entry_beside_the_blank_exits_one(self, tmp_path, capsys, row, err):
        # skip analyze reads only column 0, so the row check names the rest.
        path = tmp_path / "probs.txt"
        path.write_text(f"2 2\n{row}\n-1.20397280433 -0.356674943939\n")
        argv = ["skip", "analyze", "--probs", str(path), "--tokens", "1", "--beta", "0.9"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_zero_probability_in_a_row_that_sums_to_one_passes(self, tmp_path, capsys):
        path = tmp_path / "probs.txt"
        path.write_text("2 2\n-inf 0\n-1.20397280433 -0.356674943939\n")
        argv = ["skip", "analyze", "--probs", str(path), "--tokens", "1", "--beta", "0.9"]
        assert main(argv) == 0
        assert capsys.readouterr() == ("beta,ratio,gamma_max\n0.9,0,0.5\n", "")

    def test_log_probabilities_to_six_digits_pass(self, tmp_path, capsys):
        grid = np.log([[0.95, 0.03, 0.02], [0.2, 0.5, 0.3], [0.991, 0.004, 0.005]])
        path = tmp_path / "probs.txt"
        path.write_text("3 3\n" + "".join(" ".join(f"{v:.6g}" for v in row) + "\n" for row in grid))
        assert main(["skip", "analyze", "--probs", str(path), "--beta", "0.9"]) == 0
        assert capsys.readouterr().out == "beta,ratio,gamma_max\n0.9,0.666666666667,1\n"

    def test_error_leaves_no_output_file(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(
            ["skip", "analyze", "--probs", str(tmp_path / "missing.txt"), "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("sweep, bad", [("0.5,", ""), ("0.5,x", "x"), (",0.9", "")])
    def test_bad_sweep_threshold_exits_one(self, tmp_path, capsys, sweep, bad):
        path = tmp_path / "probs.txt"
        path.write_text(format_matrix(np.full((4, 2), math.log(0.5))))
        assert main(["skip", "analyze", "--probs", str(path), "--sweep", sweep]) == 1
        assert capsys.readouterr().err == f"error: bad threshold {bad!r} in --sweep\n"

    @pytest.mark.parametrize("sweep, bad", [("\u0660.\u0665", "\u0660.\u0665"),
                                            ("0.5,0.9_5", "0.9_5"), ("\uff10.5", "\uff10.5")])
    def test_sweep_threshold_must_be_ascii(self, tmp_path, capsys, sweep, bad):
        path = tmp_path / "probs.txt"
        path.write_text(format_matrix(np.full((4, 2), math.log(0.5))))
        assert main(["skip", "analyze", "--probs", str(path), "--sweep", sweep]) == 1
        assert capsys.readouterr().err == f"error: bad threshold {bad!r} in --sweep\n"

    @pytest.mark.parametrize(
        "flags, shown", [(["--beta", "0"], "0"), (["--sweep", "0.5,1.5"], "1.5")]
    )
    def test_threshold_outside_unit_interval_exits_one(self, tmp_path, capsys, flags, shown):
        path = tmp_path / "probs.txt"
        path.write_text(format_matrix(np.full((4, 2), math.log(0.5))))
        assert main(["skip", "analyze", "--probs", str(path), *flags]) == 1
        assert capsys.readouterr().err == f"error: threshold must lie in (0, 1), got {shown}\n"


class TestBadInputExitsOne:
    @pytest.mark.parametrize("header", ["0 0", "0 3", "2 0"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["loss", "--labels", "A", "--grid"],
            ["grad-check", "--labels", "A", "--logits"],
            ["skip", "analyze", "--probs"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_matrix_without_entries_exits_one(self, tmp_path, capsys, argv, header):
        path = tmp_path / "empty.txt"
        path.write_text(f"{header}\n")
        assert main([*argv, str(path)]) == 1
        rows, cols = header.split()
        assert capsys.readouterr().err == (
            f"error: matrix needs at least one row and one column, got {rows} x {cols}\n"
        )

    @pytest.mark.parametrize("label", ["\u00df", "\ufb00", "\u00e9", "\u00c9", "\u0394"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["topo", "build", "--vocab", "30", "--labels"],
            ["align", "--frames", "2", "--labels"],
            ["loss", "--grid", "{grid}", "--labels"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_non_ascii_letter_label_is_a_bad_label(self, capsys, uniform3, argv, label):
        # Only A-Z and a-z are letter labels; any other item must parse as an integer.
        assert main([arg.format(grid=uniform3) for arg in argv] + [label]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: bad label {label!r}: use integers or single letters\n"

    @pytest.mark.parametrize("labels, bad", [("\u0661,1_0", "\u0661"), ("1_0", "1_0"),
                                             ("+1", "+1"), ("1,\uff12", "\uff12")])
    def test_integer_label_must_be_ascii_digits(self, capsys, labels, bad):
        assert main(["align", "--labels", labels, "--frames", "3"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: bad label {bad!r}: use integers or single letters\n"

    # A letter is a bad label only among integers, and then only when no
    # item is neither.
    @pytest.mark.parametrize("labels, bad", [("A,B1", "B1"), ("A,1,B1", "B1"), ("A,1", "A"),
                                             ("1,A", "A")])
    def test_the_item_that_is_neither_letter_nor_integer_is_the_bad_label(
        self, capsys, labels, bad
    ):
        assert main(["align", "--labels", labels, "--frames", "3"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: bad label {bad!r}: use integers or single letters\n"

    @pytest.mark.parametrize("labels", ["A,,B", "A,", "1,,2"])
    def test_empty_label_is_the_bad_label(self, capsys, labels):
        assert main(["align", "--labels", labels, "--frames", "3"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: bad label '': use integers or single letters\n"

    def test_non_ascii_matrix_header_exits_one(self, tmp_path, capsys):
        path = tmp_path / "probs.txt"
        path.write_text("\u0661 \u0662\n0 0\n")
        out = tmp_path / "ratios.csv"
        assert main(["skip", "analyze", "--probs", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: malformed matrix header: '\u0661 \u0662'\n"
        assert not out.exists()

    def test_ascii_letters_map_a_to_1_and_z_to_26(self, capsys):
        assert main(["topo", "build", "--vocab", "26", "--labels", "a,Z"]) == 0
        assert capsys.readouterr().out == fst_to_text(ctcfst.build_chain([1, 26], 26))


COMMANDS_WITH_OUT = pytest.mark.parametrize(
    "argv", [["skip", "analyze", "--probs", "PROBS"], ["topo", "build", "--vocab", "2"]],
    ids=["skip", "topo"],
)


class TestOutputPath:
    """A failed write names the path given, not the temporary file it is
    written through, and leaves no file behind."""

    @COMMANDS_WITH_OUT
    def test_missing_directory_names_the_out_path(self, tmp_path, capsys, argv):
        probs = tmp_path / "probs.txt"
        probs.write_text(format_matrix(np.full((4, 2), math.log(0.5))))
        out = tmp_path / "missing" / "x.csv"
        argv = [str(probs) if arg == "PROBS" else arg for arg in argv]
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "No such file or directory" in err
        assert err.rstrip().endswith(repr(str(out))) and ".tmp-" not in err
        assert not (tmp_path / "missing").exists()

    @COMMANDS_WITH_OUT
    def test_directory_out_path_names_the_out_path(self, tmp_path, capsys, argv):
        probs = tmp_path / "probs.txt"
        probs.write_text(format_matrix(np.full((4, 2), math.log(0.5))))
        out = tmp_path / "taken"
        out.mkdir()
        argv = [str(probs) if arg == "PROBS" else arg for arg in argv]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.EISDIR}] Is a directory: {str(out)!r}\n"
        )
        assert sorted(path.name for path in tmp_path.iterdir()) == ["probs.txt", "taken"]
        assert not list(out.iterdir())


class TestExperimentCommands:
    def test_train_toy_writes_deterministic_outputs(self, tmp_path):
        config = {
            "train_utterances": 8,
            "eval_utterances": 4,
            "steps": 25,
            "seed": 5,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        outputs = {}
        for name in ("one", "two"):
            out_dir = tmp_path / name
            code = main(
                [
                    "train-toy", "--variant", "hard", "--k", "1",
                    "--config", str(config_path), "--out", str(out_dir),
                ]
            )
            assert code == 0
            outputs[name] = {
                f: (out_dir / f).read_bytes()
                for f in ("report.csv", "loss_curve.csv", "curve.csv", "model.txt")
            }
        assert outputs["one"] == outputs["two"]

    def test_divergence_is_one_line(self, tmp_path, capsys):
        tiny = ["--steps", "10", "--train-utterances", "5", "--eval-utterances", "2"]
        argv = ["train-toy", *tiny, "--step-size", "1e307", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: training diverged at step 1\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, last", [("train-toy", "model.txt"), ("compare", "losses.csv")]
    )
    def test_directory_in_place_of_the_last_file_leaves_no_file(
        self, tmp_path, capsys, command, last
    ):
        (tmp_path / last).mkdir()
        tiny = ["--steps", "1", "--train-utterances", "2", "--eval-utterances", "1"]
        assert main([command, *tiny, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.EISDIR}] Is a directory: {str(tmp_path / last)!r}\n"
        )
        assert [path.name for path in tmp_path.iterdir()] == [last]
        assert not list((tmp_path / last).iterdir())

    def test_setting_too_large_to_allocate_exits_one(self, tmp_path, capsys):
        # token_means asks numpy for a 1e8 x 1e8 matrix (71 PiB). The address
        # space cap makes the request fail at once even where the kernel
        # would grant it lazily.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"feature_dim": 100_000_000}))
        out = tmp_path / "out"
        tiny = ["--steps", "1", "--train-utterances", "2", "--eval-utterances", "1"]
        limits = resource.getrlimit(resource.RLIMIT_AS)
        cap = min(x for x in (*limits, 2**40) if x != resource.RLIM_INFINITY)
        resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
        try:
            argv = ["train-toy", *tiny, "--config", str(config_path), "--out", str(out)]
            assert main(argv) == 1
        finally:
            resource.setrlimit(resource.RLIMIT_AS, limits)
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
        assert not out.exists()

    def test_compare_outputs(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"train_utterances": 6, "eval_utterances": 3, "steps": 10})
        )
        out_dir = tmp_path / "cmp"
        code = main(
            [
                "compare", "--runs", "standard,soft:0.5",
                "--config", str(config_path), "--out", str(out_dir),
            ]
        )
        assert code == 0
        table = (out_dir / "compare.csv").read_text().splitlines()
        assert table[0] == "name,final_loss,token_error_rate,ratio_at_0.9,gamma_max"
        assert table[1].startswith("standard,")
        assert table[2].startswith("soft(0.5),")
        curves = (out_dir / "curves.csv").read_text().splitlines()
        assert curves[0] == "name,beta,ratio,gamma_max"
        assert len(curves) == 1 + 2 * 6

    def test_bad_config_key_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"bogus": 1}))
        code = main(
            [
                "train-toy", "--config", str(config_path),
                "--out", str(tmp_path / "out"), "--steps", "2",
            ]
        )
        assert code == 1
        assert "config" in capsys.readouterr().err

    def test_bad_run_spec_exits_one(self, tmp_path):
        assert main(["compare", "--runs", "soft", "--out", str(tmp_path / "x")]) == 1

    @staticmethod
    def _train_toy(tmp_path, config, *flags):
        config = {"train_utterances": 4, "eval_utterances": 2, "steps": 3, **config}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = str(tmp_path / "out")
        return main(["train-toy", "--config", str(config_path), "--out", out, *flags])

    def test_betas_string_exits_one(self, tmp_path, capsys):
        assert self._train_toy(tmp_path, {"betas": "0.9"}) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'betas'" in err

    def test_betas_strings_exits_one(self, tmp_path, capsys):
        assert self._train_toy(tmp_path, {"betas": ["0.9", 0.99]}) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'betas'" in err

    def test_null_skip_beta_is_no_skipping(self, tmp_path, capsys):
        assert self._train_toy(tmp_path, {"skip_beta": None}) == 0
        assert capsys.readouterr() == ("", "")
        assert (tmp_path / "out" / "report.csv").read_text().startswith("name,")

    def test_non_integral_steps_exits_one(self, tmp_path, capsys):
        assert self._train_toy(tmp_path, {"steps": 2.7}) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'steps'" in err
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def no_corpus(self, monkeypatch):
        """Fail the test if any corpus is generated."""

        def refuse(config):
            raise AssertionError("a corpus was generated")

        monkeypatch.setattr(toy, "generate_corpus", refuse)

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("train-toy", [1, 2], "config must be a JSON object"),
            ("train-toy", {"seed": None}, "'seed'"),
            ("train-toy", {"steps": None}, "'steps'"),
            ("train-toy", {"steps": True}, "'steps'"),
            ("train-toy", {"noise": "0.2"}, "'noise'"),
            ("train-toy", {"noise": 1e308}, "noise must lie in [0, 1000000], got 1e+308"),
            ("train-toy", {"betas": [0.5, 1.0]}, "betas must lie in (0, 1)"),
            ("train-toy", {"betas": []}, "betas must not be empty"),
            ("train-toy", {"train_utterances": 0}, "train_utterances must be >= 1"),
            ("train-toy", {"step_size": -1}, "step_size must be finite and >= 0"),
            ("train-toy", {"warmup_fraction": 2}, "warmup_fraction must lie in [0, 1]"),
            ("train-toy", {"seed": -1}, "seed must be >= 0"),
            ("train-toy", {"min_tokens": 6}, "need 1 <= min_tokens <= max_tokens"),
            ("train-toy", {"sustain_scale": 0}, "sustain_scale must lie in (0, 1]"),
            ("train-toy", {"sustain_scale": 1.5}, "sustain_scale must lie in (0, 1]"),
            ("compare", {"seed": -1}, "seed must be >= 0"),
            ("compare", {"skip_beta": 0.5}, "'skip_beta' does not apply to compare"),
            ("compare", {"betas": [0.5, 0.99]}, "needs 0.9 in betas"),
        ],
        ids=[
            "list", "seed-null", "steps-null", "steps-bool", "noise-string", "noise-huge",
            "betas-range", "betas-empty", "train-utterances-zero", "step-size-negative",
            "warmup-fraction-two", "seed-negative", "min-tokens-above-max", "sustain-scale-zero",
            "sustain-scale-above-one", "compare-seed-negative", "compare-skip-beta",
            "compare-betas-without-0.9",
        ],
    )
    def test_bad_setting_exits_one_before_any_corpus(
        self, tmp_path, capsys, no_corpus, command, config, message
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code = main(
            [command, "--config", str(config_path), "--out", str(tmp_path / "out"),
             "--train-utterances", "4", "--eval-utterances", "2", "--steps", "3",
             *(["--runs", "standard,hard:1"] if command == "compare" else [])]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--step-size", "step_size must be finite and >= 0"),
            ("--warmup-fraction", "warmup_fraction must lie in [0, 1]"),
        ],
        ids=["step-size", "warmup-fraction"],
    )
    def test_nan_flag_exits_one_before_any_corpus(self, tmp_path, capsys, no_corpus, flag, message):
        # JSON cannot carry NaN, so the flag is the way in.
        assert main(["train-toy", flag, "nan", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_nan_soft_penalty_run_spec_exits_one_before_any_corpus(
        self, tmp_path, capsys, no_corpus
    ):
        assert main(["compare", "--runs", "soft:nan,standard", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "soft penalty must be >= 0" in err

    def test_duplicate_config_key_exits_one_before_any_corpus(self, tmp_path, capsys, no_corpus):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"steps": 1, "steps": 2}')
        assert main(["train-toy", "--config", str(config_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: config key 'steps' given twice\n"

    def test_single_run_spec_exits_one_before_any_corpus(self, tmp_path, capsys, no_corpus):
        assert main(["compare", "--runs", "standard", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "need at least two run specs" in err

    @pytest.mark.parametrize(
        "runs, name",
        [("standard,standard", "standard"), ("soft:5,hard:1,soft:5.0", "soft(5)"),
         ("hard:2+skip:0.9,hard:2+skip:0.90", "hard(2)+skip(0.9)"), ("soft:0,soft:-0", "soft(0)")],
    )
    def test_repeated_run_spec_exits_one_before_any_corpus(
        self, tmp_path, capsys, no_corpus, runs, name
    ):
        assert main(["compare", "--runs", runs, "--out", str(tmp_path / "cmp")]) == 1
        assert capsys.readouterr().err == f"error: run spec {name!r} given twice\n"
        assert not (tmp_path / "cmp").exists()

    def test_run_spec_bound_must_be_ascii_digits(self, tmp_path, capsys, no_corpus):
        assert main(["compare", "--runs", "hard:\u0662,standard", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: run spec 'hard:\u0662': expected an integer in ASCII digits, got '\u0662'\n"
        )

    @pytest.mark.parametrize(
        "spec, bad",
        [("soft:\u0665", "\u0665"), ("soft:1_0", "1_0"),
         ("standard+skip:\u0660.\u0665", "\u0660.\u0665"), ("hard:1+skip:0.8_5", "0.8_5")],
    )
    def test_run_spec_float_must_be_ascii(self, tmp_path, capsys, no_corpus, spec, bad):
        assert main(["compare", "--runs", f"{spec},hard:2", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: run spec {spec!r}: could not convert string to float: {bad!r}\n"
        )

    def test_unknown_run_spec_variant_exits_one_before_any_corpus(
        self, tmp_path, capsys, no_corpus
    ):
        assert main(["compare", "--runs", "foo:1,standard", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("", "error: run spec 'foo:1': unknown variant 'foo'\n")

    def test_standard_run_spec_takes_no_parameter(self, tmp_path, capsys, no_corpus):
        code = main(["compare", "--runs", "standard:3,hard:1", "--out", str(tmp_path)])
        assert code == 1
        assert "standard takes no parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["config", "flag", "run-spec"])
    def test_skip_beta_outside_unit_interval_exits_one(
        self, tmp_path, capsys, no_corpus, source
    ):
        if source == "config":
            code = self._train_toy(tmp_path, {"skip_beta": 1.5})
        elif source == "flag":
            code = self._train_toy(tmp_path, {}, "--skip-beta", "1.5")
        else:
            code = main(
                ["compare", "--runs", "standard+skip:1.5,hard:1", "--steps", "3",
                 "--train-utterances", "4", "--eval-utterances", "2",
                 "--out", str(tmp_path / "cmp")]
            )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "skip_beta must lie in (0, 1)" in err

    @pytest.mark.parametrize(
        "runs, names",
        [("soft:0.1234567,soft:0.1234568", ["soft(0.1234567)", "soft(0.1234568)"]),
         ("standard+skip:0.8500001,standard", ["standard+skip(0.8500001)", "standard"])],
    )
    def test_run_names_write_settings_by_the_number_rule(self, tmp_path, runs, names):
        out = tmp_path / "cmp"
        argv = ["compare", "--runs", runs, "--steps", "2", "--train-utterances", "3",
                "--eval-utterances", "2", "--out", str(out)]
        assert main(argv) == 0
        rows = (out / "compare.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == names

    def test_skip_beta_message_writes_the_value_by_the_number_rule(
        self, tmp_path, capsys, no_corpus
    ):
        assert self._train_toy(tmp_path, {}, "--skip-beta", "1.0000001") == 1
        assert capsys.readouterr().err == (
            "error: skip_beta must lie in (0, 1), got 1.0000001\n"
        )


class TestOneExperimentRunner:
    """``toy.run_experiment`` is the one train-then-evaluate sequence: each
    experiment command reaches it once, and it builds the corpora once."""

    def test_each_command_runs_one_experiment(self, tmp_path, monkeypatch):
        runs, seeds = [], []
        run_experiment, generate_corpus = toy.run_experiment, toy.generate_corpus

        def run_spy(config, specs):
            runs.append([spec.name for spec in specs])
            return run_experiment(config, specs)

        def generate_spy(config):
            seeds.append(config.seed)
            return generate_corpus(config)

        monkeypatch.setattr(cli, "run_experiment", run_spy)
        monkeypatch.setattr(toy, "generate_corpus", generate_spy)
        tiny = ["--steps", "2", "--train-utterances", "3", "--eval-utterances", "2"]
        argv = ["train-toy", *tiny, "--variant", "hard", "--k", "2", "--skip-beta", "0.9"]
        assert main([*argv, "--out", str(tmp_path / "one")]) == 0
        assert runs == [["hard(2)+skip(0.9)"]] and seeds == [0, 1]
        argv = ["compare", *tiny, "--runs", "standard,soft:0.5,hard:1"]
        assert main([*argv, "--out", str(tmp_path / "many")]) == 0
        assert runs[1:] == [["standard", "soft(0.5)", "hard(1)"]] and seeds[2:] == [0, 1]
        assert not {"train", "evaluate", "compare_variants"} & set(vars(cli))


class TestBenchmarkTracePoints:
    def test_loss_calls_the_names_the_benchmark_wraps(self, monkeypatch, capsys, uniform3):
        # benchmarks/run.py times loss.parse_matrix, loss.format_matrix and
        # loss.ctc_loss by wrapping these names in ctcfst.cli, so cmd_loss must
        # reach them through cli's globals.
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("parse_matrix", "format_matrix", "ctc_loss"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        assert main(["loss", "--labels", "A,B", "--grid", uniform3, "--grad"]) == 0
        assert sorted(calls) == ["ctc_loss", "format_matrix", "parse_matrix"]


# The engine-independent oracles, every public function of the two reference
# modules: no CLI path may reach them, so they stay references the product
# code does not share.
ORACLES = tuple(
    name
    for module in (reference, lattice)
    for name, fn in inspect.getmembers(module, inspect.isfunction)
    if fn.__module__ == module.__name__ and not name.startswith("_")
)
PRODUCT_MODULES = ("cli", "errors", "fsa", "loss", "skip", "topology", "toy")
# The two oracle names product modules re-export, because benchmarks/run.py
# reads them there.
RE_EXPORTS = {
    ("topology", "ctcfst.reference", "build_training_graph"),
    ("loss", "ctcfst.reference", "ctc_loss_alpha"),
}
ENGINE = {"pack", "_chain", "GraphBatch", "Layout", "batch_loss"}


def imports(name):
    """(module, name) of every import in ``ctcfst.<name>``'s source, name
    None for a plain ``import``; ``from . import x`` gives ("ctcfst.x", None)."""
    path = os.path.join(os.path.dirname(ctcfst.__file__), f"{name}.py")
    with open(path) as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # Every module sits directly in the package, so level 1 is ctcfst.
            module = ".".join(filter(None, ["ctcfst" if node.level else "", node.module]))
            for alias in node.names:
                if module == "ctcfst":
                    yield f"ctcfst.{alias.name}", None
                else:
                    yield module, alias.name


class TestOracleFence:
    @pytest.fixture
    def fenced(self, monkeypatch):
        """Make every oracle raise, in every ctcfst module that binds it."""

        def fence(name):
            def refuse(*args, **kwargs):
                raise AssertionError(f"product code called the oracle {name}")
            return refuse

        for module_name, module in list(sys.modules.items()):
            if module_name == "ctcfst" or module_name.startswith("ctcfst."):
                for name in ORACLES:
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, fence(name))

    @pytest.mark.parametrize("labels", [None, "A,B,B"])
    @pytest.mark.parametrize(
        "flags", [[], ["--variant", "soft", "--lambda", "0.5"], ["--variant", "hard", "--k", "2"]],
        ids=["standard", "soft", "hard"],
    )
    def test_topo_build(self, fenced, capsys, flags, labels):
        argv = ["topo", "build", "--vocab", "3", *flags]
        assert main(argv + (["--labels", labels] if labels else [])) == 0

    def test_scoring_and_analysis_commands(self, fenced, capsys, uniform3):
        assert main(["loss", "--labels", "A,B", "--grid", uniform3, "--grad"]) == 0
        assert main(["grad-check", "--labels", "A,B", "--logits", uniform3]) == 0
        assert main(["align", "--labels", "A,B", "--frames", "3", "--variant", "hard",
                     "--k", "2"]) == 0
        assert main(["skip", "analyze", "--probs", uniform3, "--tokens", "2"]) == 0

    def test_experiment_commands(self, fenced, tmp_path):
        tiny = ["--steps", "2", "--train-utterances", "3", "--eval-utterances", "2"]
        assert main(["train-toy", *tiny, "--out", str(tmp_path / "one")]) == 0
        assert main(["compare", *tiny, "--out", str(tmp_path / "many")]) == 0

    def test_the_fence_holds(self, fenced):
        assert {"compose", "build_training_graph", "ctc_loss_alpha", "total_score"} <= set(ORACLES)
        for oracle in (
            ctcfst.topology.build_training_graph, ctcfst.reference.compose, lattice.total_score
        ):
            with pytest.raises(AssertionError, match="product code called the oracle"):
                oracle()

    def test_product_modules_import_no_oracle_module(self):
        for name in PRODUCT_MODULES:
            for module, imported in imports(name):
                if module in ("ctcfst.reference", "ctcfst.lattice"):
                    assert (name, module, imported) in RE_EXPORTS, f"{name} imports {module}"

    def test_oracle_modules_import_no_engine_part(self):
        for name in ("reference", "lattice"):
            for module, imported in imports(name):
                assert not {module.rpartition(".")[2], imported} & ENGINE, (name, module, imported)
