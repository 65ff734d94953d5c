"""ctcfst performance benchmark: one workload per process.

Run from the repository root:

    python3 benchmarks/run.py --workload loss_long --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` alternates untraced rounds with rounds that record spans around
the package's public functions, and prints the per-layer metrics plus the
tracing overhead (the share of frames/s lost in the traced rounds).
``--smoke`` runs one round of every workload at a tiny size in both modes and
checks that every metric named in BENCHMARK.json is emitted with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it start
with ``#`` and carry the environment record and the sample counts. Inputs,
span dumps and full result records go to ``.bench_out/`` in the working
directory. All measured work runs in this one process: no worker threads or
processes, and BLAS is capped at one thread before numpy is imported. Before
measuring, set-up starts four interpreters in turn that only time the imports
(``--import-only``).
"""

import os
import time

PROCESS_START = time.perf_counter()

BLAS_THREADS = 1
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _name in BLAS_ENV:
    os.environ[_name] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

OUT_DIR = ".bench_out"
SETUP_REPEATS = 5
LOSS_TOL = 1e-9

# Size parameters. Each workload's reason is recorded in BENCHMARK.json.
# graph_big_vocab is not listed there, for lack of run time; run it by hand
# when a change targets graph building (see README.md).
SIZES = {
    "train_ref": {"train_utterances": 200, "eval_utterances": 50, "steps": 100},
    "loss_long": {"frames": 400, "labels": 80, "vocab": 100},
    "graph_big_vocab": {"frames": 60, "labels": 20, "vocab": 500},
}
SMOKE_SIZES = {
    "train_ref": {"train_utterances": 12, "eval_utterances": 6, "steps": 3},
    "loss_long": {"frames": 30, "labels": 6, "vocab": 8},
    "graph_big_vocab": {"frames": 12, "labels": 4, "vocab": 40},
}
LOSS_VARIANTS = (
    ("standard", ["--variant", "standard"]),
    ("soft:5", ["--variant", "soft", "--lambda", "5"]),
    ("hard:2", ["--variant", "hard", "--k", "2"]),
)

# Public functions wrapped in traced rounds: (module, attribute, span name).
# Each module is patched where the caller looks the name up, so the spans sit
# around the calls the package makes internally as well as the benchmark's.
TRACE_POINTS = (
    ("ctcfst.cli", "parse_matrix", "loss.parse_matrix"),
    ("ctcfst.cli", "format_matrix", "loss.format_matrix"),
    ("ctcfst.cli", "ctc_loss", "loss.ctc_loss"),
    ("ctcfst.topology", "build_topology", "topology.build"),
    ("ctcfst.topology", "build_linear_graph", "fsa.linear"),
    ("ctcfst.topology", "compose", "fsa.compose"),
    ("ctcfst.topology", "connect", "fsa.connect"),
    ("ctcfst.loss", "intersect_dense", "lattice.intersect"),
    ("ctcfst.loss", "forward_scores", "lattice.forward"),
    ("ctcfst.lattice", "forward_scores", "lattice.forward"),
    ("ctcfst.lattice", "backward_scores", "lattice.backward"),
    ("ctcfst.loss", "arc_posteriors", "lattice.posteriors"),
    ("ctcfst.toy", "sweep_thresholds", "skip.sweep"),
)
# Per-layer ``*_s`` metrics are self time, except TOTAL_TIMES, which include
# their children.
SELF_TIMES = {
    "topology.build_s": ("topology.build",),
    "fsa.compose_connect_s": ("fsa.linear", "fsa.compose", "fsa.connect"),
    "lattice.intersect_s": ("lattice.intersect",),
    "lattice.forward_s": ("lattice.forward",),
    "lattice.backward_s": ("lattice.backward",),
    "lattice.posteriors_s": ("lattice.posteriors",),
    "loss.residual_s": ("loss.ctc_loss",),
    "loss.parse_matrix_s": ("loss.parse_matrix",),
    "loss.format_matrix_s": ("loss.format_matrix",),
    "toy.train_s": ("toy.train",),
    "toy.evaluate_s": ("toy.evaluate",),
    "skip.sweep_s": ("skip.sweep",),
}
TOTAL_TIMES = {"cli.main_s": "cli.main", "loss.ctc_loss_s": "loss.ctc_loss"}
# (metric, span name, count key): mean of a count over the spans that carry it.
MEAN_COUNTS = (
    ("topology.topo_arcs", "topology.build", "arcs"),
    ("fsa.graph_states", "fsa.connect", "states"),
    ("fsa.graph_arcs", "fsa.connect", "arcs"),
    ("lattice.states", "lattice.intersect", "states"),
    ("lattice.arcs", "lattice.intersect", "arcs"),
)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import numpy and the package from ``src/`` of the working directory."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ctcfst", "__init__.py")):
        fail("src/ctcfst not found: run from the root of a ctcfst checkout")
    sys.path.insert(0, src)
    import numpy
    import ctcfst
    import ctcfst.cli

    if os.path.dirname(os.path.abspath(ctcfst.__file__)) != os.path.join(src, "ctcfst"):
        fail(f"imported ctcfst from {ctcfst.__file__}, not from {src}")
    return numpy, ctcfst


# --------------------------------------------------------------------------
# Tracing


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    label: str = ""  # the variant or run spec of a root span
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory spans. The benchmark opens a root span (``cli.main``,
    ``toy.train`` or ``toy.evaluate``) around each timed call; wrapped
    functions record spans only inside one."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ops = 0

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False, label: str = ""):
        if not root and not self._stack:
            yield None
            return
        if root:
            self._ops += 1
        span = Span(
            name,
            time.perf_counter(),
            parent=self._stack[-1] if self._stack else -1,
            op=self._ops,
            label=label,
        )
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
                if span is not None:
                    span.counts = _counts(out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the span wrappers for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name in TRACE_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue  # the stage no longer exists; its metric reads 0
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span_name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def per_root(self, value, key) -> dict:
        """Mean per root span of ``value(span, self_time)`` summed over the
        root's tree, grouped by ``key(root)``."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        root_of: list[int] = []
        sums: dict = {}
        calls: dict = {}
        for i, s in enumerate(self.spans):
            root = i if s.parent < 0 else root_of[s.parent]
            root_of.append(root)
            group = key(self.spans[root])
            if root == i:
                calls[group] = calls.get(group, 0) + 1
            sums[group] = sums.get(group, 0.0) + value(s, own[i])
        return {group: sums[group] / calls[group] for group in calls}

    def dump(self, path: str) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start - PROCESS_START,
                "end": s.end - PROCESS_START,
                "parent": s.parent,
                "op": s.op,
                "label": s.label,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(rows, handle)


def _counts(out) -> dict:
    fst = getattr(out, "fst", out)  # a Lattice wraps its Fst
    if hasattr(fst, "num_states") and hasattr(fst, "num_arcs"):
        return {"states": fst.num_states, "arcs": fst.num_arcs}
    return {}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers from the spans: seconds per call of the root span
    that encloses them, and mean counts per traced call."""

    def per_op(value) -> float:
        return math.fsum(tracer.per_root(value, key=lambda root: root.name).values())

    out = {}
    for metric, names in SELF_TIMES.items():
        out[metric] = per_op(lambda s, own: own if s.name in names else 0.0)
    for metric, name in TOTAL_TIMES.items():
        out[metric] = per_op(lambda s, own: s.end - s.start if s.name == name else 0.0)
    out["lattice.forward_calls"] = per_op(
        lambda s, own: 1.0 if s.name == "lattice.forward" else 0.0
    )
    for metric, name, key in MEAN_COUNTS:
        values = [s.counts[key] for s in tracer.spans if s.name == name and key in s.counts]
        out[metric] = statistics.fmean(values) if values else 0.0
    return out


def layer_breakdown(tracer: Tracer) -> dict:
    """Self time of every span name per root call, for each root span name
    and variant: ``{"cli.main standard": {"topology.build": 0.01, ...}}``."""
    out: dict = {}
    for name in sorted({s.name for s in tracer.spans}):
        groups = tracer.per_root(
            lambda s, own: own if s.name == name else 0.0,
            key=lambda root: f"{root.name} {root.label}",
        )
        for group, value in groups.items():
            if value:
                out.setdefault(group, {})[name] = value
    return out


# --------------------------------------------------------------------------
# Workloads


@dataclass
class Sample:
    """One timed operation and what it produced."""

    label: str
    timed_s: float  # wall time of the timed calls
    op_ms: float  # the operation's time as op_ms_p50 counts it
    frames: int  # real frames pushed through the loss
    ok: bool
    extra: dict = field(default_factory=dict)


def _run_timed(tracer, root_name, label, fn):
    span = tracer.span(root_name, root=True, label=label) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with span:
        out = fn()
    return out, time.perf_counter() - start


class LossWorkload:
    """``ctcfst loss --grad`` in-process on one generated grid, cycling the
    standard, soft:5 and hard:2 variants."""

    def __init__(self, name, sizes, np, ctcfst):
        self.name, self.sizes, self.np, self.ctcfst = name, sizes, np, ctcfst
        self.reference = None

    def setup(self, seed: int) -> dict:
        np = self.np
        frames, count, vocab = (self.sizes[k] for k in ("frames", "labels", "vocab"))
        rng = np.random.default_rng(seed)
        self.labels = [int(k) for k in rng.integers(1, vocab + 1, size=count)]
        logits = rng.standard_normal((frames, vocab + 1))
        shifted = logits - logits.max(axis=1, keepdims=True)
        self.grid = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        self.path = os.path.join(OUT_DIR, f"grid_{self.name}_{seed}_{os.getpid()}.txt")
        rows = [f"{frames} {vocab + 1}"]
        rows += [" ".join(repr(float(v)) for v in row) for row in self.grid]
        with open(self.path, "w") as handle:
            handle.write("\n".join(rows) + "\n")
        return {}

    def cleanup(self) -> None:
        if os.path.exists(self.path):
            os.unlink(self.path)

    def layer_values(self, samples) -> dict:
        return {}

    def round(self, tracer):
        main = self.ctcfst.cli.main
        labels = ",".join(str(k) for k in self.labels)
        for label, flags in LOSS_VARIANTS:
            argv = ["loss", "--labels", labels, "--grid", self.path, *flags, "--grad"]

            def call(argv=argv):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(argv)
                return code, buf.getvalue()

            try:
                (code, text), timed = _run_timed(tracer, "cli.main", label, call)
            except (Exception, SystemExit) as exc:  # counted as a failed operation
                print(f"# {label} raised {exc!r}", file=sys.stderr)
                yield Sample(label, 0.0, 0.0, 0, ok=False)
                continue
            yield Sample(
                label, timed, timed * 1e3, self.sizes["frames"], self.check(label, code, text)
            )

    def check(self, label: str, code: int, text: str) -> bool:
        np = self.np
        if self.reference is None:
            self.reference = self.ctcfst.loss.ctc_loss_alpha(self.labels, self.grid)
        ref = self.reference
        try:
            lines = text.splitlines()
            loss = float(lines[0])
            rows, cols = (int(v) for v in lines[1].split())
            grad = np.array([[float(v) for v in line.split()] for line in lines[2:]])
        except (IndexError, ValueError):
            return False
        frames, vocab = self.sizes["frames"], self.sizes["vocab"]
        # The CLI prints 12 significant digits, so the loss is compared
        # relative to its magnitude.
        tol = LOSS_TOL * max(1.0, abs(ref))
        return bool(
            code == 0
            and math.isfinite(loss)
            and (rows, cols) == (frames, vocab + 1) == grad.shape
            and np.isfinite(grad).all()
            and np.abs(grad.sum(axis=1)).max() <= LOSS_TOL
            # Soft penalties and hard bounds only remove or penalize paths.
            and (abs(loss - ref) <= tol if label == "standard" else loss >= ref - tol)
        )


class TrainWorkload:
    """``toy.train`` on the reference corpus, the five DEFAULT_RUNS in turn,
    each followed by ``evaluate`` on the eval corpus."""

    def __init__(self, name, sizes, np, ctcfst):
        self.name, self.sizes, self.np, self.ctcfst = name, sizes, np, ctcfst
        self.reference: dict[str, float] = {}

    def setup(self, seed: int) -> dict:
        toy = self.ctcfst.toy
        build = self.ctcfst.topology.build_training_graph
        t0 = time.perf_counter()
        self.train_corpus = toy.generate_corpus(
            toy.CorpusConfig(num_utterances=self.sizes["train_utterances"], seed=seed)
        )
        self.eval_corpus = toy.generate_corpus(
            toy.CorpusConfig(num_utterances=self.sizes["eval_utterances"], seed=seed + 1)
        )
        t1 = time.perf_counter()
        vocab = self.train_corpus.config.vocab_size
        # The per-run graphs the zero-model reference loss is read from.
        self.graphs = {
            spec.name: [
                build(u.labels, vocab, spec.variant) for u in self.train_corpus.utterances
            ]
            for spec in toy.DEFAULT_RUNS
        }
        t2 = time.perf_counter()
        lengths = [len(u.features) for u in self.train_corpus.utterances]
        self.frames_per_step = sum(lengths)
        self.padding_frac = 1.0 - sum(lengths) / (len(lengths) * max(lengths))
        self.graph_states_max = max(g.num_states for gs in self.graphs.values() for g in gs)
        return {"toy.generate_corpus_s": t1 - t0, "toy.graph_build_s": t2 - t1}

    def cleanup(self) -> None:
        pass

    def layer_values(self, samples) -> dict:
        """Per-layer metrics read from the corpus and the samples, not spans."""
        ok = [s for s in samples if s.ok]
        values = {
            "toy.padding_frac": self.padding_frac,
            "toy.graph_states_max": float(self.graph_states_max),
        }
        if ok:
            values["skip.ratio_at_0.9"] = statistics.fmean(s.extra["ratio_at_0.9"] for s in ok)
        for spec in self.ctcfst.toy.DEFAULT_RUNS:
            times = [s.op_ms for s in ok if s.label == spec.name]
            if times:
                values[spec_metric(spec.name)] = statistics.median(times)
        return values

    def round(self, tracer):
        toy = self.ctcfst.toy
        steps = self.sizes["steps"]
        for spec in toy.DEFAULT_RUNS:
            try:
                (model, losses), train_s = _run_timed(
                    tracer,
                    "toy.train",
                    spec.name,
                    lambda: toy.train(
                        self.train_corpus, spec.variant, steps=steps, skip_beta=spec.skip_beta
                    ),
                )
                report, eval_s = _run_timed(
                    tracer,
                    "toy.evaluate",
                    spec.name,
                    lambda: toy.evaluate(
                        model, self.eval_corpus, name=spec.name, final_loss=losses[-1]
                    ),
                )
            except Exception as exc:  # counted as a failed operation
                print(f"# {spec.name} raised {exc!r}", file=sys.stderr)
                yield Sample(spec.name, 0.0, 0.0, 0, ok=False)
                continue
            yield Sample(
                spec.name,
                train_s + eval_s,
                train_s / steps * 1e3,
                self.frames_per_step * steps,
                self.check(spec.name, losses, report),
                {"ratio_at_0.9": report.ratio_at(0.9)},
            )

    def zero_model_loss(self, spec_name: str) -> float:
        """Mean lattice loss over the corpus under the uniform grid that the
        zero-initialised model produces at step 0."""
        np = self.np
        lattice = self.ctcfst.lattice
        classes = self.train_corpus.config.vocab_size + 1
        total = 0.0
        for u, graph in zip(self.train_corpus.utterances, self.graphs[spec_name]):
            grid = np.full((len(u.features), classes), -math.log(classes))
            total -= lattice.total_score(lattice.intersect_dense(graph, grid))
        return total / len(self.graphs[spec_name])

    def check(self, spec_name, losses, report) -> bool:
        if spec_name not in self.reference:
            self.reference[spec_name] = self.zero_model_loss(spec_name)
        ratios = [p.ratio for p in report.sweep]
        return bool(
            len(losses) == self.sizes["steps"]
            and all(math.isfinite(v) for v in losses)
            and abs(losses[0] - self.reference[spec_name]) <= LOSS_TOL
            and math.isfinite(report.final_loss)
            and all(0.0 <= r <= 1.0 for r in ratios)
        )


WORKLOADS = {
    "train_ref": TrainWorkload,
    "loss_long": LossWorkload,
    "graph_big_vocab": LossWorkload,
}


def spec_metric(spec_name: str) -> str:
    """'standard+skip(0.85)' -> 'toy.step_ms.standard_skip0.85'."""
    flat = spec_name.replace("+skip(", "_skip").replace("(", "").replace(")", "")
    return f"toy.step_ms.{flat}"


# --------------------------------------------------------------------------
# Measurement


def measure(workload, seconds: float, tracer=None):
    """Whole rounds (one operation per variant) until ``seconds`` have passed.

    With a tracer, rounds alternate between untraced and traced, ending on a
    traced one, so both halves see the same machine conditions and their
    frames/s difference is the tracing overhead. Returns the untraced and the
    traced samples.
    """
    plain: list[Sample] = []
    traced: list[Sample] = []
    start = time.perf_counter()
    for count in itertools.count(1):
        traced_round = tracer is not None and count % 2 == 0
        with tracer.patched() if traced_round else contextlib.nullcontext():
            batch = list(workload.round(tracer if traced_round else None))
        (traced if traced_round else plain).extend(batch)
        if time.perf_counter() - start >= seconds and (tracer is None or traced_round):
            return plain, traced


def op_ms_p50(samples) -> tuple[float, dict]:
    """Median operation time of each variant (or run spec), and their mean.

    The variants differ in cost, so the median of all operations together
    jumps between the variants' clusters as machine speed drifts; the mean
    of the per-variant medians does not."""
    by_label: dict[str, list[float]] = {}
    for s in samples:
        if s.ok:
            by_label.setdefault(s.label, []).append(s.op_ms)
    medians = {label: statistics.median(times) for label, times in by_label.items()}
    return (statistics.fmean(medians.values()) if medians else 0.0), medians


def frames_per_s(samples) -> float:
    timed = sum(s.timed_s for s in samples)
    return sum(s.frames for s in samples) / timed if timed > 0 else 0.0


def environment(np) -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas_env": {name: os.environ[name] for name in BLAS_ENV},
        "workers": "measured work in one process; no worker threads or processes",
        "measurement": "per process only; no machine-wide tracing, "
        "cache dropping or CPU pinning",
    }


def _source_digest() -> str:
    """SHA-256 over the paths and contents of ``src/**/*.py``. It names the
    measured code where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _commit() -> str:
    """HEAD of a git checkout in the working directory, read without git."""
    try:
        with open(os.path.join(".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fresh_import_times(count: int) -> list[float]:
    """Import time of ``count`` fresh interpreters of this script, run one
    after another before measurement starts. They import and exit.

    One import varies by about 30% from process to process, more than the
    rest of set-up, so ``setup_s`` takes the median of these and the
    benchmark's own import."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--import-only"],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_workload(name, seed, seconds, trace, sizes, np, ctcfst) -> dict:
    """Set up, measure and check one workload; returns the full record."""
    import_s = [time.perf_counter() - PROCESS_START, *fresh_import_times(SETUP_REPEATS - 1)]
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[name](name, sizes, np, ctcfst)
    setups = []
    stages: dict[str, list[float]] = {}
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        for stage, value in workload.setup(seed).items():
            stages.setdefault(stage, []).append(value)
        setups.append(time.perf_counter() - start)
    try:
        tracer = Tracer() if trace else None
        plain, traced = measure(workload, seconds, tracer)
        samples = plain + traced
    finally:
        workload.cleanup()
    failed = sum(not s.ok for s in samples)
    p50, p50_by_label = op_ms_p50(samples)

    metric_defs = load_metric_defs()
    if trace:
        tracer.dump(os.path.join(OUT_DIR, f"spans_{name}_{seed}.json"))
        values = dict.fromkeys(metric_defs["per_layer"], 0.0)
        values.update(layer_metrics(tracer))
        for stage, times in stages.items():
            values[stage] = statistics.median(times)
        values.update(workload.layer_values(samples))
        base = frames_per_s(plain)
        values["trace.overhead_frac"] = 1.0 - frames_per_s(traced) / base if base else 0.0
        units = metric_defs["per_layer"]
    else:
        values = {
            "frames_per_s": frames_per_s(samples),
            "op_ms_p50": p50,
            "setup_s": statistics.median(import_s) + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = metric_defs["end_to_end"]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": sizes,
        "env": environment(np),
        "attempted": len(samples),
        "failed": failed,
        "failed_frac": failed / len(samples),
        "op_samples": len(samples) - failed,
        "op_ms_p50_by_variant": p50_by_label,
        "setup_parts_s": {"import": import_s, "setup": setups},
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    if trace:
        record["self_s_by_variant"] = layer_breakdown(tracer)
    return record


def load_metric_defs() -> dict:
    """Metric names and units from BENCHMARK.json in the working directory."""
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


def print_result(record: dict) -> None:
    print("# env " + json.dumps(record["env"], sort_keys=True))
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"sizes={json.dumps(record['sizes'])} attempted={record['attempted']} "
        f"failed={record['failed']} failed_frac={record['failed_frac']:g} "
        f"op_ms_p50 over {record['op_samples']} operations; median by variant "
        + json.dumps(record["op_ms_p50_by_variant"])
    )
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )


def smoke(np, ctcfst) -> int:
    """One tiny round of every workload in both modes; checks that every
    named metric is emitted with its unit and that no operation failed."""
    defs = load_metric_defs()
    problems = []
    for name in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            record = run_workload(name, 0, 0.0, trace, SMOKE_SIZES[name], np, ctcfst)
            got = {k: v["unit"] for k, v in record["metrics"].items()}
            if got != defs[kind]:
                problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json")
            if any(not isinstance(v["value"], float) for v in record["metrics"].values()):
                problems.append(f"{name} trace={trace}: a metric value is not a float")
            if record["failed"]:
                problems.append(f"{name} trace={trace}: {record['failed']} operations failed")
            print(f"# smoke {name} trace={trace}: {record['attempted']} operations")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    parser.add_argument(
        "--import-only",
        action="store_true",
        help="print the seconds from start through the imports and exit (set-up runs this)",
    )
    args = parser.parse_args(argv)
    if not (args.smoke or args.import_only) and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found: run from the repository root")
    np, ctcfst = import_package()
    if args.import_only:
        print(time.perf_counter() - PROCESS_START)
        return 0
    if args.smoke:
        return smoke(np, ctcfst)
    record = run_workload(
        args.workload, args.seed, args.seconds, args.trace, SIZES[args.workload], np, ctcfst
    )
    path = os.path.join(OUT_DIR, f"result_{args.workload}_{args.seed}_trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    print_result(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
