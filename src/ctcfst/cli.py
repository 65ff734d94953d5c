"""Command-line interface.

Exit codes: 0 success, 1 domain errors (infeasible alignment, empty lattice,
bad file contents), 2 usage errors. Output files are written to a temporary
path and renamed into place, so failures never leave partial files behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Sequence

import numpy as np

from .errors import CtcFstError
from .fsa import fst_to_text
from .loss import ctc_loss, format_matrix, grad_check, parse_matrix
from .skip import SWEEP_BETAS, sweep_thresholds
from .topology import (
    STANDARD,
    TopologyVariant,
    build_topology,
    build_training_graph,
    enumerate_alignments,
    hard,
    soft,
)
from .toy import (
    DEFAULT_RUNS,
    CorpusConfig,
    RunSpec,
    compare_variants,
    evaluate,
    generate_corpus,
    train,
)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text)


def _parse_labels(raw: str) -> tuple[list[int], bool]:
    """Parse a CSV label list of token ids or single letters (A=1, B=2...)."""
    if not raw:
        return [], False
    items = [item.strip() for item in raw.split(",")]
    letters = all(len(item) == 1 and item.isalpha() for item in items)
    labels = []
    for item in items:
        if letters:
            labels.append(ord(item.upper()) - ord("A") + 1)
        else:
            try:
                labels.append(int(item))
            except ValueError:
                raise ValueError(f"bad label {item!r}: use integers or single letters")
    return labels, letters


def _render_alignment(alignment: Sequence[int], letters: bool) -> str:
    if letters:
        return "".join("-" if k == 0 else chr(ord("A") + k - 1) for k in alignment)
    return " ".join(str(k) for k in alignment)


def _variant_from(args: argparse.Namespace, parser: argparse.ArgumentParser) -> TopologyVariant:
    kind = args.variant
    if kind == "standard":
        if args.penalty is not None or args.k is not None:
            parser.error("--lambda/--k only apply to soft/hard variants")
        return STANDARD
    if kind == "soft":
        if args.penalty is None:
            parser.error("soft variant requires --lambda")
        if args.k is not None:
            parser.error("--k does not apply to the soft variant")
        if args.penalty < 0:
            parser.error("--lambda must be >= 0")
        return soft(args.penalty)
    if args.k is None:
        parser.error("hard variant requires --k")
    if args.penalty is not None:
        parser.error("--lambda does not apply to the hard variant")
    if args.k < 1:
        parser.error("--k must be >= 1")
    return hard(args.k)


def _add_variant_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--variant", choices=("standard", "soft", "hard"), default="standard"
    )
    parser.add_argument("--lambda", dest="penalty", type=float, default=None,
                        help="soft self-loop penalty")
    parser.add_argument("--k", type=int, default=None,
                        help="hard bound on consecutive repeats")


def _parse_run_spec(raw: str) -> RunSpec:
    """Parse 'standard', 'soft:0.04', 'hard:2', optionally '+skip:BETA'."""
    skip_beta = None
    body = raw.strip()
    if "+skip:" in body:
        body, beta_text = body.split("+skip:", 1)
        skip_beta = float(beta_text)
    if ":" in body:
        name, param = body.split(":", 1)
    else:
        name, param = body, None
    name = name.strip()
    if name == "standard":
        variant = STANDARD
    elif name == "soft":
        if param is None:
            raise ValueError(f"run spec {raw!r}: soft needs a penalty, e.g. soft:0.04")
        variant = soft(float(param))
    elif name == "hard":
        if param is None:
            raise ValueError(f"run spec {raw!r}: hard needs a bound, e.g. hard:2")
        variant = hard(int(param))
    else:
        raise ValueError(f"run spec {raw!r}: unknown variant {name!r}")
    return RunSpec(variant, skip_beta=skip_beta)


def _config_int(value) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _config_floats(value) -> list[float]:
    if not isinstance(value, list):
        raise ValueError(f"{value!r} is not a list of numbers")
    return [float(v) for v in value]


_CONFIG_KEYS = {
    "seed": _config_int,
    "vocab_size": _config_int,
    "feature_dim": _config_int,
    "stretch": _config_int,
    "noise": float,
    "train_utterances": _config_int,
    "eval_utterances": _config_int,
    "min_tokens": _config_int,
    "max_tokens": _config_int,
    "sustain_scale": float,
    "steps": _config_int,
    "step_size": float,
    "warmup_fraction": float,
    "skip_beta": float,
    "betas": _config_floats,
}


def _experiment_settings(args: argparse.Namespace) -> dict:
    settings = {
        "seed": args.seed,
        "vocab_size": 5,
        "feature_dim": 16,
        "stretch": 4,
        "noise": 0.2,
        "train_utterances": args.train_utterances,
        "eval_utterances": args.eval_utterances,
        "min_tokens": 2,
        "max_tokens": 5,
        "sustain_scale": 0.25,
        "steps": args.steps,
        "step_size": args.step_size,
        "warmup_fraction": args.warmup_fraction,
        "skip_beta": getattr(args, "skip_beta", None),
        "betas": list(SWEEP_BETAS),
    }
    if args.config is not None:
        with open(args.config) as handle:
            overrides = json.load(handle)
        for key, value in overrides.items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            try:
                settings[key] = None if value is None else _CONFIG_KEYS[key](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
    return settings


def _corpora(settings: dict):
    base = dict(
        vocab_size=settings["vocab_size"],
        feature_dim=settings["feature_dim"],
        stretch=settings["stretch"],
        noise=settings["noise"],
        min_tokens=settings["min_tokens"],
        max_tokens=settings["max_tokens"],
        sustain_scale=settings["sustain_scale"],
    )
    train_corpus = generate_corpus(
        CorpusConfig(
            num_utterances=settings["train_utterances"], seed=settings["seed"], **base
        )
    )
    eval_corpus = generate_corpus(
        CorpusConfig(
            num_utterances=settings["eval_utterances"], seed=settings["seed"] + 1, **base
        )
    )
    return train_corpus, eval_corpus


def _sweep_csv(rows) -> str:
    lines = ["beta,ratio,gamma_max"]
    for point in rows:
        lines.append(f"{_fmt(point.beta)},{_fmt(point.ratio)},{_fmt(point.gamma_max)}")
    return "\n".join(lines) + "\n"


def cmd_topo(args, parser) -> int:
    variant = _variant_from(args, parser)
    if args.labels is not None:
        labels, _ = _parse_labels(args.labels)
        fst = build_training_graph(labels, args.vocab, variant)
    else:
        fst = build_topology(args.vocab, variant)
    _emit(fst_to_text(fst), args.out)
    return 0


def cmd_loss(args, parser) -> int:
    variant = _variant_from(args, parser)
    labels, _ = _parse_labels(args.labels)
    with open(args.grid) as handle:
        grid = parse_matrix(handle.read())
    result = ctc_loss(labels, grid, variant)
    print(_fmt(result.loss))
    if args.grad:
        sys.stdout.write(format_matrix(result.grad_logits))
    return 0


def cmd_align(args, parser) -> int:
    variant = _variant_from(args, parser)
    labels, letters = _parse_labels(args.labels)
    alignments = enumerate_alignments(labels, args.frames, variant)
    for alignment in sorted(alignments):
        print(_render_alignment(alignment, letters))
    return 0


def cmd_grad_check(args, parser) -> int:
    variant = _variant_from(args, parser)
    labels, _ = _parse_labels(args.labels)
    with open(args.logits) as handle:
        logits = parse_matrix(handle.read())
    print(_fmt(grad_check(labels, logits, variant, epsilon=args.epsilon)))
    return 0


def cmd_skip(args, parser) -> int:
    with open(args.probs) as handle:
        grid = parse_matrix(handle.read())
    blank_probs = np.exp(grid[:, 0])
    if args.beta is not None:
        betas = [args.beta]
    elif args.sweep is not None:
        betas = [float(b) for b in args.sweep.split(",")]
    else:
        betas = list(SWEEP_BETAS)
    rows = sweep_thresholds([blank_probs], [args.tokens], betas)
    _emit(_sweep_csv(rows), args.out)
    return 0


def cmd_train_toy(args, parser) -> int:
    variant = _variant_from(args, parser)
    settings = _experiment_settings(args)
    train_corpus, eval_corpus = _corpora(settings)
    model, losses = train(
        train_corpus,
        variant,
        steps=settings["steps"],
        step_size=settings["step_size"],
        skip_beta=settings["skip_beta"],
        warmup_fraction=settings["warmup_fraction"],
    )
    spec = RunSpec(variant, skip_beta=settings["skip_beta"])
    report = evaluate(
        model, eval_corpus, betas=settings["betas"], name=spec.name,
        final_loss=losses[-1],
    )
    os.makedirs(args.out, exist_ok=True)
    header = "name,final_loss,token_error_rate,gamma_max"
    line = (
        f"{report.name},{_fmt(report.final_loss)},"
        f"{_fmt(report.token_error_rate)},{_fmt(report.gamma_max)}"
    )
    _write_text(os.path.join(args.out, "report.csv"), f"{header}\n{line}\n")
    loss_lines = ["step,loss"]
    loss_lines += [f"{i},{_fmt(v)}" for i, v in enumerate(losses)]
    _write_text(os.path.join(args.out, "loss_curve.csv"), "\n".join(loss_lines) + "\n")
    _write_text(os.path.join(args.out, "curve.csv"), _sweep_csv(report.sweep))
    stacked = np.vstack([model.weights, model.bias])
    _write_text(os.path.join(args.out, "model.txt"), format_matrix(stacked))
    return 0


def cmd_compare(args, parser) -> int:
    settings = _experiment_settings(args)
    if args.runs is not None:
        runs = [_parse_run_spec(chunk) for chunk in args.runs.split(",")]
    else:
        runs = list(DEFAULT_RUNS)
    train_corpus, eval_corpus = _corpora(settings)
    results = compare_variants(
        train_corpus,
        eval_corpus,
        runs,
        steps=settings["steps"],
        step_size=settings["step_size"],
        warmup_fraction=settings["warmup_fraction"],
        betas=settings["betas"],
    )
    os.makedirs(args.out, exist_ok=True)
    table = ["name,final_loss,token_error_rate,ratio_at_0.9,gamma_max"]
    curves = ["name,beta,ratio,gamma_max"]
    loss_rows = ["name,step,loss"]
    for report, losses in results:
        table.append(
            f"{report.name},{_fmt(report.final_loss)},{_fmt(report.token_error_rate)},"
            f"{_fmt(report.ratio_at(0.9))},{_fmt(report.gamma_max)}"
        )
        for point in report.sweep:
            curves.append(
                f"{report.name},{_fmt(point.beta)},{_fmt(point.ratio)},"
                f"{_fmt(point.gamma_max)}"
            )
        loss_rows += [f"{report.name},{i},{_fmt(v)}" for i, v in enumerate(losses)]
    _write_text(os.path.join(args.out, "compare.csv"), "\n".join(table) + "\n")
    _write_text(os.path.join(args.out, "curves.csv"), "\n".join(curves) + "\n")
    _write_text(os.path.join(args.out, "losses.csv"), "\n".join(loss_rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctcfst",
        description="Blank-regularized CTC training graphs, losses, and frame-skip analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topo", help="topology graph tools")
    topo_sub = topo.add_subparsers(dest="topo_command", required=True)
    topo_build = topo_sub.add_parser("build", help="emit a topology or training graph")
    _add_variant_flags(topo_build)
    topo_build.add_argument("--vocab", type=int, required=True)
    topo_build.add_argument("--labels", default=None,
                            help="CSV labels; builds the training graph when given")
    topo_build.add_argument("--out", default=None)
    topo_build.set_defaults(func=cmd_topo)

    loss_p = sub.add_parser("loss", help="CTC loss for a label/grid pair")
    _add_variant_flags(loss_p)
    loss_p.add_argument("--labels", required=True)
    loss_p.add_argument("--grid", required=True, help="matrix text file of log-probs")
    loss_p.add_argument("--grad", action="store_true", help="also print grad_logits")
    loss_p.set_defaults(func=cmd_loss)

    align = sub.add_parser("align", help="enumerate valid alignments")
    _add_variant_flags(align)
    align.add_argument("--labels", required=True)
    align.add_argument("--frames", type=int, required=True)
    align.set_defaults(func=cmd_align)

    gc = sub.add_parser("grad-check", help="finite-difference gradient check")
    _add_variant_flags(gc)
    gc.add_argument("--labels", required=True)
    gc.add_argument("--logits", required=True, help="matrix text file of logits")
    gc.add_argument("--epsilon", type=float, default=1e-5)
    gc.set_defaults(func=cmd_grad_check)

    skip_p = sub.add_parser("skip", help="blank-frame skip analysis")
    skip_sub = skip_p.add_subparsers(dest="skip_command", required=True)
    analyze = skip_sub.add_parser("analyze", help="reduction ratios from a grid file")
    analyze.add_argument("--probs", required=True,
                         help="matrix text file of log-probs; blank is column 0")
    group = analyze.add_mutually_exclusive_group()
    group.add_argument("--beta", type=float, default=None)
    group.add_argument("--sweep", default=None, help="comma-separated thresholds")
    analyze.add_argument("--tokens", type=int, default=0,
                         help="output token count, for the gamma_max column")
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(func=cmd_skip)

    def add_experiment_flags(p):
        p.add_argument("--config", default=None, help="JSON config overriding flags")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--steps", type=int, default=2000)
        p.add_argument("--step-size", type=float, default=0.5)
        p.add_argument("--warmup-fraction", type=float, default=0.1)
        p.add_argument("--train-utterances", type=int, default=200)
        p.add_argument("--eval-utterances", type=int, default=50)
        p.add_argument("--out", required=True, help="output directory")

    tt = sub.add_parser("train-toy", help="train on synthetic data, report ratios")
    _add_variant_flags(tt)
    tt.add_argument("--skip-beta", type=float, default=None)
    add_experiment_flags(tt)
    tt.set_defaults(func=cmd_train_toy)

    cmp_p = sub.add_parser("compare", help="train several variants on shared data")
    cmp_p.add_argument(
        "--runs", default=None,
        help="comma-separated run specs, e.g. standard+skip:0.85,soft:0.04,hard:1",
    )
    add_experiment_flags(cmp_p)
    cmp_p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (CtcFstError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
