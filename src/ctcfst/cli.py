"""Command-line interface.

Exit codes: 0 success, 1 domain errors (infeasible alignment, bad file
contents, bad settings, a setting too large to allocate), 2 usage errors.
Output files are written to temporary paths and renamed into place only once
all are written, so failures never leave partial files behind.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import re
import sys
import tempfile
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .errors import CtcFstError
# cmd_loss calls parse_matrix, format_matrix and ctc_loss by these global names,
# where benchmarks/run.py wraps them for its loss.* spans.
from .fsa import (
    first_bad, format_matrix, format_number, fst_to_text, parse_float, parse_int, parse_matrix
)
from .loss import ctc_loss, grad_check
from .skip import SWEEP_BETAS, sweep_thresholds
from .topology import (
    STANDARD,
    TopologyVariant,
    build_chain,
    build_topology,
    enumerate_alignments,
    hard,
    soft,
)
from .toy import DEFAULT_RUNS, CorpusConfig, ExperimentConfig, RunSpec, run_experiment

# The --config keys and their types: the ExperimentConfig fields with the
# corpus shape flattened in. A corpus's size and seed are experiment fields.
_EXPERIMENT_TYPES = get_type_hints(ExperimentConfig)
_CONFIG_TYPES = {
    key: hint
    for key, hint in (get_type_hints(CorpusConfig) | _EXPERIMENT_TYPES).items()
    if key not in ("num_utterances", "corpus")
}
_EXPERIMENT_FLAGS = (
    "seed", "steps", "step_size", "warmup_fraction", "train_utterances", "eval_utterances"
)
# How far a `loss --grid` row's log-sum-exp may lie from 0. Rows written with
# 6 significant digits lie within about 1e-6.
LOG_PROB_TOLERANCE = 1e-4


@contextlib.contextmanager
def _naming(path: str):
    """Name ``path``, the user's, in a failed file operation's error, not the
    temporary file it is written through."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _write(texts: dict[str, str]) -> None:
    """Write each text to its path: all to temporary files first, then, if no
    path is a directory, all renamed into place, so that a failure leaves
    none of them behind."""
    written = []
    try:
        for path, text in texts.items():
            directory = os.path.dirname(os.path.abspath(path))
            with _naming(path):
                fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
            written.append((tmp, path))
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
        for _, path in written:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for tmp, path in written:
            with _naming(path):
                os.replace(tmp, path)
    finally:
        for tmp, _ in written:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _write_files(out: str, files: dict[str, str]) -> None:
    """Make the output directory, then write the files into it together."""
    os.makedirs(out, exist_ok=True)
    _write({os.path.join(out, name): text for name, text in files.items()})


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write({out: text})


def integer(raw: str) -> int:
    """An integer label, flag or run-spec bound, in ASCII digits; argparse
    names this type in its errors."""
    return parse_int(raw, signed=True)


def real(raw: str) -> float:
    """A float flag, in ASCII (``fsa.parse_float``)."""
    return parse_float(raw)


real.__name__ = "float"  # argparse names the type in its errors: "invalid float value"


def _parse_labels(raw: str) -> tuple[list[int], bool]:
    """Parse a CSV label list of token ids or single ASCII letters (A=1, B=2...)."""
    if not raw:
        return [], False
    items = [item.strip() for item in raw.split(",")]
    letters = all(_is_letter(item) for item in items if item)
    labels = []
    for item in items:
        if letters and item:
            labels.append(ord(item.upper()) - ord("A") + 1)
        else:
            try:
                labels.append(integer(item))
            except ValueError:
                # Name the item that is neither a letter nor an integer, if
                # one is; a letter is bad only among integers.
                bad = next((x for x in items if not _is_letter(x) and not _is_integer(x)), item)
                raise ValueError(f"bad label {bad!r}: use integers or single letters") from None
    return labels, letters


def _is_letter(item: str) -> bool:
    return len(item) == 1 and item.isascii() and item.isalpha()


def _is_integer(item: str) -> bool:
    try:
        integer(item)
    except ValueError:
        return False
    return True


def _render_alignment(alignment: Sequence[int], letters: bool) -> str:
    if letters:
        return "".join("-" if k == 0 else chr(ord("A") + k - 1) for k in alignment)
    return " ".join(str(k) for k in alignment)


def _variant(kind: str, param) -> TopologyVariant:
    """The variant grammar shared by ``--variant/--lambda/--k`` and ``--runs``:
    ``standard`` takes no parameter, ``soft`` a penalty, ``hard`` a bound."""
    if kind == "standard":
        if param is not None:
            raise ValueError("standard takes no parameter")
        return STANDARD
    if kind not in ("soft", "hard"):
        raise ValueError(f"unknown variant {kind!r}")
    if param is None:
        flag = "--lambda" if kind == "soft" else "--k"
        raise ValueError(f"{kind} needs a parameter: {flag} X or {kind}:X")
    if kind == "soft":
        return soft(param if isinstance(param, float) else parse_float(param))
    return hard(param if isinstance(param, int) else integer(param.strip()))


def _variant_from(args: argparse.Namespace, parser: argparse.ArgumentParser) -> TopologyVariant:
    for flag, kind, value in (("--lambda", "soft", args.penalty), ("--k", "hard", args.k)):
        if value is not None and kind != args.variant:
            parser.error(f"{flag} does not apply to the {args.variant} variant")
    try:
        return _variant(args.variant, args.penalty if args.variant == "soft" else args.k)
    except ValueError as exc:
        parser.error(str(exc))


def _add_variant_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--variant", choices=("standard", "soft", "hard"), default="standard"
    )
    parser.add_argument("--lambda", dest="penalty", type=real, default=None,
                        help="soft self-loop penalty")
    parser.add_argument("--k", type=integer, default=None,
                        help="hard bound on consecutive repeats")


def _parse_run_spec(raw: str) -> RunSpec:
    """Parse 'standard', 'soft:0.04', 'hard:2', optionally '+skip:BETA'."""
    body, skip, beta = raw.strip().partition("+skip:")
    kind, colon, param = body.partition(":")
    try:
        variant = _variant(kind.strip(), param if colon else None)
        return RunSpec(variant, skip_beta=parse_float(beta) if skip else None)
    except ValueError as exc:
        raise ValueError(f"run spec {raw!r}: {exc}") from None


def _scalar(hint) -> type:
    """``int`` or ``float`` for an ``int``, ``float`` or ``float | None`` field."""
    return hint if hint in (int, float) else get_args(hint)[0]


def _is_number(value) -> bool:
    """A finite JSON number; bools are not numbers here."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _config_value(key: str, hint, value):
    """Strict JSON -> field value, driven by the field's type: an int field
    takes an integral number, a float field any number, a tuple field a list
    of numbers; only an optional field takes null."""
    if get_origin(hint) is tuple:
        expected = "a list of numbers"
        if isinstance(value, list) and all(map(_is_number, value)):
            return tuple(float(item) for item in value)
    elif value is None and type(None) in get_args(hint):
        return None
    elif _scalar(hint) is float:
        expected = "a number"
        if _is_number(value):
            return float(value)
    else:
        expected = "an integer"
        if _is_number(value) and float(value).is_integer():
            return int(value)
    raise ValueError(f"config key {key!r}: expected {expected}, got {json.dumps(value)}")


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, refusing a key given twice, where plain
    ``json.load`` lets the last one win silently."""
    config = {}
    for key, value in pairs:
        if key in config:
            raise ValueError(f"config key {key!r} given twice")
        config[key] = value
    return config


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment flags, overridden by the ``--config`` file's keys."""
    settings = {key: value for key, value in vars(args).items() if key in _CONFIG_TYPES}
    if args.config is not None:
        with open(args.config) as handle:
            overrides = json.load(handle, object_pairs_hook=_unique_keys)
        if not isinstance(overrides, dict):
            raise ValueError("config must be a JSON object")
        for key, value in overrides.items():
            if key not in _CONFIG_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            settings[key] = _config_value(key, _CONFIG_TYPES[key], value)
    corpus = {key: settings.pop(key) for key in list(settings) if key not in _EXPERIMENT_TYPES}
    return ExperimentConfig(**settings, corpus=CorpusConfig(**corpus))


def _csv(header: str, rows) -> str:
    """The header line, then one line per row: numbers by ``format_number``, strings as is."""
    lines = [header]
    lines += [",".join(v if isinstance(v, str) else format_number(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_topo(args, parser) -> int:
    variant = _variant_from(args, parser)
    if args.labels is not None:
        labels, _ = _parse_labels(args.labels)
        fst = build_chain(labels, args.vocab, variant)
    else:
        fst = build_topology(args.vocab, variant)
    _emit(fst_to_text(fst), args.out)
    return 0


def _check_log_probs(grid) -> None:
    """Refuse a grid row whose log-sum-exp lies more than ``LOG_PROB_TOLERANCE``
    from 0 (an all -inf row's is -inf), then a NaN or +inf entry, named in
    ``ctc_loss``'s words. ``ctc_loss`` takes any finite scores, but its
    gradient holds only for log-softmax rows; ``skip analyze`` reads only
    column 0, as a log blank probability, so its other columns are checked
    only here. A -inf entry in a row that sums to 1 is a zero probability
    and passes."""
    top = grid.max(axis=1, keepdims=True)
    top[top == -np.inf] = 0.0  # an all -inf row sums to exp(-inf) = 0
    with np.errstate(invalid="ignore", divide="ignore"):
        sums = np.log(np.exp(grid - top).sum(axis=1)) + top[:, 0]
    off = np.abs(sums) > LOG_PROB_TOLERANCE
    if off.any():
        row = int(off.argmax())
        raise ValueError(
            f"grid row {row} is not log-probabilities: its log-sum-exp is "
            f"{format_number(sums[row])}, not 0"
        )
    ok = grid < np.inf  # a NaN or +inf row sums to NaN, which passes above
    if not ok.all():
        raise ValueError(f"grid must be finite: {first_bad(ok, grid)}")


def cmd_loss(args, parser) -> int:
    variant = _variant_from(args, parser)
    labels, _ = _parse_labels(args.labels)
    with open(args.grid) as handle:
        grid = parse_matrix(handle.read())
    _check_log_probs(grid)
    result = ctc_loss(labels, grid, variant)
    print(format_number(result.loss))
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
    print(format_number(grad_check(labels, logits, variant, epsilon=args.epsilon)))
    return 0


def _threshold(raw: str) -> float:
    try:
        return parse_float(raw)
    except ValueError:
        raise ValueError(f"bad threshold {raw!r} in --sweep") from None


def cmd_skip(args, parser) -> int:
    with open(args.probs) as handle:
        grid = parse_matrix(handle.read())
    blank_probs = np.exp(grid[:, 0])
    if args.beta is not None:
        betas = [args.beta]
    elif args.sweep is not None:
        betas = [_threshold(item) for item in args.sweep.split(",")]
    else:
        betas = list(SWEEP_BETAS)
    rows = sweep_thresholds(blank_probs, args.tokens, betas)
    # After the sweep, whose range check names a bad blank probability itself.
    _check_log_probs(grid)
    _emit(_csv("beta,ratio,gamma_max", rows), args.out)
    return 0


def cmd_train_toy(args, parser) -> int:
    variant = _variant_from(args, parser)
    config = _experiment_config(args)
    [(report, losses, model)] = run_experiment(config, [RunSpec(variant, config.skip_beta)])
    row = (report.name, report.final_loss, report.token_error_rate, report.gamma_max)
    files = {
        "report.csv": _csv("name,final_loss,token_error_rate,gamma_max", [row]),
        "loss_curve.csv": _csv("step,loss", enumerate(losses)),
        "curve.csv": _csv("beta,ratio,gamma_max", report.sweep),
        "model.txt": format_matrix(np.vstack([model.weights, model.bias])),
    }
    _write_files(args.out, files)
    return 0


def cmd_compare(args, parser) -> int:
    config = _experiment_config(args)
    if config.skip_beta is not None:
        raise ValueError("config key 'skip_beta' does not apply to compare: use +skip: in --runs")
    if 0.9 not in config.betas:
        raise ValueError("compare needs 0.9 in betas: compare.csv has a ratio_at_0.9 column")
    if args.runs is not None:
        runs = [_parse_run_spec(chunk) for chunk in args.runs.split(",")]
    else:
        runs = list(DEFAULT_RUNS)
    if len(runs) < 2:
        raise ValueError("need at least two run specs to compare")
    names = set()
    for spec in runs:
        if spec.name in names:
            raise ValueError(f"run spec {spec.name!r} given twice")
        names.add(spec.name)
    table, curves, loss_rows = [], [], []
    for r, losses, _ in run_experiment(config, runs):
        table.append((r.name, r.final_loss, r.token_error_rate, r.ratio_at(0.9), r.gamma_max))
        curves += [(r.name, *point) for point in r.sweep]
        loss_rows += [(r.name, i, v) for i, v in enumerate(losses)]
    files = {
        "compare.csv": _csv("name,final_loss,token_error_rate,ratio_at_0.9,gamma_max", table),
        "curves.csv": _csv("name,beta,ratio,gamma_max", curves),
        "losses.csv": _csv("name,step,loss", loss_rows),
    }
    _write_files(args.out, files)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in exponent form (``-1e-5``) as a value, not
    as a flag; subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctcfst",
        description="Blank-regularized CTC training graphs, losses, and frame-skip analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topo", help="topology graph tools")
    topo_sub = topo.add_subparsers(dest="topo_command", required=True)
    topo_build = topo_sub.add_parser("build", help="emit a topology or training graph")
    _add_variant_flags(topo_build)
    topo_build.add_argument("--vocab", type=integer, required=True)
    topo_build.add_argument("--labels", default=None,
                            help="CSV labels; builds the training graph when given")
    topo_build.add_argument("--out", default=None)
    topo_build.set_defaults(func=functools.partial(cmd_topo, parser=topo_build))

    loss_p = sub.add_parser("loss", help="CTC loss for a label/grid pair")
    _add_variant_flags(loss_p)
    loss_p.add_argument("--labels", required=True)
    loss_p.add_argument("--grid", required=True, help="matrix text file of log-probs")
    loss_p.add_argument("--grad", action="store_true", help="also print grad_logits")
    loss_p.set_defaults(func=functools.partial(cmd_loss, parser=loss_p))

    align = sub.add_parser("align", help="enumerate valid alignments")
    _add_variant_flags(align)
    align.add_argument("--labels", required=True)
    align.add_argument("--frames", type=integer, required=True)
    align.set_defaults(func=functools.partial(cmd_align, parser=align))

    gc = sub.add_parser("grad-check", help="finite-difference gradient check")
    _add_variant_flags(gc)
    gc.add_argument("--labels", required=True)
    gc.add_argument("--logits", required=True, help="matrix text file of logits")
    gc.add_argument("--epsilon", type=real, default=1e-5)
    gc.set_defaults(func=functools.partial(cmd_grad_check, parser=gc))

    skip_p = sub.add_parser("skip", help="blank-frame skip analysis")
    skip_sub = skip_p.add_subparsers(dest="skip_command", required=True)
    analyze = skip_sub.add_parser("analyze", help="reduction ratios from a grid file")
    analyze.add_argument("--probs", required=True,
                         help="matrix text file of log-probs; blank is column 0")
    group = analyze.add_mutually_exclusive_group()
    group.add_argument("--beta", type=real, default=None)
    group.add_argument("--sweep", default=None, help="comma-separated thresholds")
    analyze.add_argument("--tokens", type=integer, default=0,
                         help="output token count, for the gamma_max column")
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(func=functools.partial(cmd_skip, parser=analyze))

    def add_experiment_flags(p, *names):
        p.add_argument("--config", default=None, help="JSON config overriding flags")
        for name in names:
            p.add_argument(
                "--" + name.replace("_", "-"),
                type=integer if _scalar(_CONFIG_TYPES[name]) is int else real,
                default=getattr(ExperimentConfig, name),
            )
        p.add_argument("--out", required=True, help="output directory")

    tt = sub.add_parser("train-toy", help="train on synthetic data, report ratios")
    _add_variant_flags(tt)
    add_experiment_flags(tt, "skip_beta", *_EXPERIMENT_FLAGS)
    tt.set_defaults(func=functools.partial(cmd_train_toy, parser=tt))

    cmp_p = sub.add_parser("compare", help="train several variants on shared data")
    cmp_p.add_argument(
        "--runs", default=None,
        help="comma-separated run specs, e.g. standard+skip:0.85,soft:0.04,hard:1",
    )
    add_experiment_flags(cmp_p, *_EXPERIMENT_FLAGS)
    cmp_p.set_defaults(func=functools.partial(cmd_compare, parser=cmp_p))

    return parser


# parse_args leaves a parser as it found it, so in-process callers share one.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)  # bound to its own subcommand's parser
    except (CtcFstError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
