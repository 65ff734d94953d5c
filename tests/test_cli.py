import json
import math
import os

import numpy as np
import pytest

from ctcfst import cli, fst_from_text, toy
from ctcfst.cli import main
from ctcfst.loss import format_matrix


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

    def test_missing_file_exits_one(self, capsys):
        assert main(["loss", "--labels", "A", "--grid", "/nonexistent.txt"]) == 1


class TestUsageErrors:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["align", "--labels", "A", "--frames", "2", "--bogus"])
        assert info.value.code == 2

    def test_soft_without_lambda_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["align", "--labels", "A", "--frames", "2", "--variant", "soft"])
        assert info.value.code == 2

    @pytest.mark.parametrize("penalty", ["-0.5", "-1e-5", "-5E+2"])
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

    def test_error_leaves_no_output_file(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(
            ["skip", "analyze", "--probs", str(tmp_path / "missing.txt"), "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()


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
            ("train-toy", {"betas": [0.5, 1.0]}, "betas must lie in (0, 1)"),
            ("train-toy", {"betas": []}, "betas must not be empty"),
            ("train-toy", {"train_utterances": 0}, "train_utterances must be >= 1"),
            ("compare", {"skip_beta": 0.5}, "'skip_beta' does not apply to compare"),
            ("compare", {"betas": [0.5, 0.99]}, "needs 0.9 in betas"),
        ],
        ids=[
            "list", "seed-null", "steps-null", "steps-bool", "noise-string",
            "betas-range", "betas-empty", "train-utterances-zero", "compare-skip-beta", "compare-betas-without-0.9",
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

    def test_single_run_spec_exits_one_before_any_corpus(self, tmp_path, capsys, no_corpus):
        assert main(["compare", "--runs", "standard", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "need at least two run specs" in err

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
