"""Desk-scale experiment harness.

Synthetic frame-labeled corpora, a per-frame linear classifier trained with
the exact CTC loss under any topology variant, and blank-ratio measurement.
:func:`run_experiment` is the one train-then-evaluate sequence, which
``train-toy`` runs for one :class:`RunSpec` and ``compare`` for several.
One home per fact, for the trainer and :func:`evaluate` alike: the batch
layout is :meth:`SyntheticCorpus.padded`, the forward :meth:`ToyModel.grid`
and the skip decision :func:`ctcfst.skip.classify_blank_frames`. Losses and
logit gradients come from :func:`ctcfst.loss.batch_loss` over the CTC chains,
packed once and laid out again only when the keep mask changes. A frame past
an utterance's end and a frame skipped by ``skip_beta`` are both left out of
the engine's keep mask, and the engine steps each utterance only through its
own kept frames over its own states, so padding costs the recursion nothing
and skipping makes a step cheaper.

Token runs are emitted with an onset/sustain amplitude envelope: the first
frame of a run carries the full class mean, later frames a scaled-down copy.
A memoryless frame classifier can therefore separate run onsets from
continuations, which is what lets the blank ratio approach its theoretical
maximum under strong regularization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InfeasibleAlignmentError, NoPathError, TrainingDivergedError
from .fsa import format_number
from .loss import batch_loss, greedy_decode, log_softmax, pack
from .skip import SWEEP_BETAS, SweepPoint, _check_threshold, classify_blank_frames, sweep_thresholds
from .topology import STANDARD, TopologyVariant

# The most noise a corpus takes: a million times its unit class means, far
# past any useful corpus and far below where ``noise * standard_normal``
# could overflow.
MAX_NOISE = 1e6


@dataclass(frozen=True)
class CorpusConfig:
    vocab_size: int = 5
    feature_dim: int = 16
    stretch: int = 4  # mean frames per token; durations are stretch -1..+1
    noise: float = 0.2
    num_utterances: int = 200
    min_tokens: int = 2
    max_tokens: int = 5
    sustain_scale: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.feature_dim < self.vocab_size + 1:
            raise ValueError("feature_dim must be >= vocab_size + 1")
        if self.stretch < 2:
            raise ValueError("stretch must be >= 2")
        if not 0 <= self.noise <= MAX_NOISE:  # NaN fails too
            raise ValueError(
                f"noise must lie in [0, {format_number(MAX_NOISE)}], got {format_number(self.noise)}"
            )
        if self.num_utterances < 1:
            raise ValueError("num_utterances must be >= 1")
        if not 1 <= self.min_tokens <= self.max_tokens:
            raise ValueError("need 1 <= min_tokens <= max_tokens")
        if not 0 < self.sustain_scale <= 1:
            raise ValueError("sustain_scale must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of a ``train-toy`` or ``compare`` run: the one home of
    their defaults, types and range checks. ``corpus`` gives the corpus
    shape; ``corpora`` replaces its size and seed per split."""

    seed: int = 0
    train_utterances: int = 200
    eval_utterances: int = 50
    steps: int = 2000
    step_size: float = 0.5
    warmup_fraction: float = 0.1
    skip_beta: float | None = None
    betas: tuple[float, ...] = SWEEP_BETAS
    corpus: CorpusConfig = CorpusConfig()

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0 <= self.step_size < np.inf:  # NaN fails too
            raise ValueError(
                f"step_size must be finite and >= 0, got {format_number(self.step_size)}"
            )
        if not 0 <= self.warmup_fraction <= 1:
            raise ValueError(
                f"warmup_fraction must lie in [0, 1], got {format_number(self.warmup_fraction)}"
            )
        if self.skip_beta is not None:
            _check_threshold(self.skip_beta, "skip_beta")
        if not self.betas:
            raise ValueError("betas must not be empty")
        for beta in self.betas:
            _check_threshold(beta, "betas")
        for key in ("train_utterances", "eval_utterances"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        self._splits()  # CorpusConfig checks the corpus shape

    def _splits(self) -> list[CorpusConfig]:
        sizes = (self.train_utterances, self.eval_utterances)
        return [
            replace(self.corpus, num_utterances=size, seed=self.seed + offset)
            for offset, size in enumerate(sizes)
        ]

    def corpora(self) -> tuple[SyntheticCorpus, ...]:
        """The train and eval corpora, seeded ``seed`` and ``seed + 1``."""
        return tuple(generate_corpus(config) for config in self._splits())


@dataclass
class Utterance:
    features: np.ndarray  # (T, D)
    labels: tuple[int, ...]


@dataclass
class SyntheticCorpus:
    config: CorpusConfig
    utterances: list[Utterance]

    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-padded (N, T, D) features and the (N, T) real-frame mask, T
        the longest utterance: the one layout of a corpus as a batch."""
        lengths = np.array([len(u.features) for u in self.utterances])
        real = np.arange(lengths.max()) < lengths[:, None]
        features = np.zeros(real.shape + (self.config.feature_dim,))
        features[real] = np.concatenate([u.features for u in self.utterances])
        return features, real


def token_means(config: CorpusConfig) -> np.ndarray:
    """Fixed orthogonal class means, one unit vector per vocabulary symbol."""
    return np.eye(config.feature_dim)[: config.vocab_size]


def generate_corpus(config: CorpusConfig) -> SyntheticCorpus:
    """Sample a deterministic corpus from the config's seed.

    Each token emits ``stretch``-ish frames of its class mean (onset at full
    scale, sustains attenuated) plus gaussian noise. Adjacent tokens are
    always distinct, so a greedy decode of a well-trained model can be exact.
    """
    rng = np.random.default_rng(config.seed)
    means = token_means(config)
    vocab = config.vocab_size
    utterances = []
    for _ in range(config.num_utterances):
        count = int(rng.integers(config.min_tokens, config.max_tokens + 1))
        labels: list[int] = []
        for u in range(count):
            if u == 0:
                tok = int(rng.integers(1, vocab + 1))
            else:
                tok = int(rng.integers(1, vocab))
                if tok >= labels[-1]:
                    tok += 1
            labels.append(tok)
        durations = rng.integers(config.stretch - 1, config.stretch + 2, size=count)
        blocks = []
        for tok, dur in zip(labels, durations):
            scales = np.full(int(dur), config.sustain_scale)
            scales[0] = 1.0
            noise = config.noise * rng.standard_normal((int(dur), config.feature_dim))
            blocks.append(scales[:, None] * means[tok - 1] + noise)
        utterances.append(Utterance(np.concatenate(blocks, axis=0), tuple(labels)))
    return SyntheticCorpus(config=config, utterances=utterances)


@dataclass
class ToyModel:
    weights: np.ndarray  # (D, V+1)
    bias: np.ndarray  # (V+1,)

    def grid(self, features: np.ndarray) -> np.ndarray:
        """(..., V+1) log-softmax grid of (..., D) features, the one forward:
        class-major (V+1, frames) logits, transposed, not copied, for the softmax."""
        flat = features.reshape(-1, features.shape[-1])
        logits = self.weights.T @ flat.T + self.bias[:, None]
        return log_softmax(logits.T).reshape(*features.shape[:-1], -1)


def min_alignment_length(labels: Sequence[int]) -> int:
    """Shortest feasible alignment: one frame per token plus one mandatory
    blank between identical adjacent tokens."""
    dups = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + dups


def train(
    corpus: SyntheticCorpus,
    variant: TopologyVariant = STANDARD,
    steps: int = ExperimentConfig.steps,
    step_size: float = ExperimentConfig.step_size,
    skip_beta: float | None = None,
    warmup_fraction: float = ExperimentConfig.warmup_fraction,
) -> tuple[ToyModel, list[float]]:
    """Plain gradient descent on the mean CTC loss through a linear model.

    With ``skip_beta`` set, frames whose current blank probability exceeds
    the threshold are dropped from the keep mask once warmup is over; an
    utterance whose retained frames could no longer fit its labels keeps all
    of them for that step. Training is deterministic: zero init, full batch,
    fixed summation order.
    """
    ExperimentConfig(  # the range checks
        steps=steps, step_size=step_size, skip_beta=skip_beta, warmup_fraction=warmup_fraction
    )
    utts = corpus.utterances
    batch = len(utts)
    classes = corpus.config.vocab_size + 1
    feats, real = corpus.padded()
    t_counts = real.sum(axis=1)
    min_lens = np.array([min_alignment_length(u.labels) for u in utts])
    for n, u in enumerate(utts):
        if t_counts[n] < min_lens[n]:
            raise InfeasibleAlignmentError(int(t_counts[n]), len(u.labels), variant)

    engine = pack([u.labels for u in utts], variant, real.shape[1], classes)
    model = ToyModel(np.zeros((feats.shape[-1], classes)), np.zeros(classes))
    warmup_steps = int(round(warmup_fraction * steps))
    layout = engine.layout(real)
    losses: list[float] = []

    flat = feats.reshape(-1, feats.shape[-1])
    for step in range(steps):
        # Paths fit their frames (checked above), so an overflow, a non-finite
        # logit or a lost path within a step is divergence, raised as one error.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                logp = model.grid(feats)
                keep = real
                if skip_beta is not None and step >= warmup_steps:
                    keep = real & ~classify_blank_frames(np.exp(logp[..., 0]), skip_beta)
                    infeasible = keep.sum(axis=1) < min_lens
                    keep[infeasible] = real[infeasible]
                if not np.array_equal(keep, layout.keep):
                    layout = engine.layout(keep)
                row_loss, grad_logits, _ = batch_loss(layout, logp)
            except (ValueError, NoPathError):  # non-finite logits; no path
                raise TrainingDivergedError(step) from None
            losses.append(float(np.mean(row_loss)))
            model.weights -= step_size * (flat.T @ grad_logits.reshape(-1, classes) / batch)
            model.bias -= step_size * (grad_logits.sum(axis=(0, 1)) / batch)
        if not all(np.isfinite(a).all() for a in (losses[-1], model.weights, model.bias)):
            raise TrainingDivergedError(step)

    return model, losses


@dataclass
class ExperimentReport:
    name: str
    final_loss: float
    sweep: list[SweepPoint]
    token_error_rate: float
    gamma_max: float

    def ratio_at(self, beta: float) -> float:
        for point in self.sweep:
            if abs(point.beta - beta) < 1e-12:
                return point.ratio
        raise KeyError(f"threshold {beta} not in sweep")


def edit_distance(hyp: Sequence[int], ref: Sequence[int]) -> int:
    """Levenshtein distance between token sequences."""
    prev = list(range(len(ref) + 1))
    for i, h in enumerate(hyp, start=1):
        cur = [i] + [0] * len(ref)
        for j, r in enumerate(ref, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (h != r))
        prev = cur
    return prev[len(ref)]


def evaluate(
    model: ToyModel,
    corpus: SyntheticCorpus,
    betas: Sequence[float] = SWEEP_BETAS,
    name: str = "",
    final_loss: float = float("nan"),
) -> ExperimentReport:
    """Blank-ratio sweep, greedy-decode token error rate, and gamma_max from
    one forward over the padded corpus, each utterance read from its real rows."""
    feats, real = corpus.padded()
    grid = model.grid(feats)
    edits = tokens = 0
    for rows, mask, u in zip(grid, real, corpus.utterances):
        edits += edit_distance(greedy_decode(rows[mask]), u.labels)
        tokens += len(u.labels)
    sweep = sweep_thresholds(np.exp(grid[..., 0][real]), tokens, betas)
    return ExperimentReport(name, final_loss, sweep, edits / tokens, sweep[0].gamma_max)


@dataclass(frozen=True)
class RunSpec:
    """One training configuration in a comparison: topology + optional
    training-time frame skipping."""

    variant: TopologyVariant
    skip_beta: float | None = None

    def __post_init__(self):
        ExperimentConfig(skip_beta=self.skip_beta)  # the range check

    @property
    def name(self) -> str:
        if self.skip_beta is None:
            return str(self.variant)
        return f"{self.variant}+skip({format_number(self.skip_beta)})"


DEFAULT_RUNS = (
    RunSpec(STANDARD, skip_beta=0.85),
    RunSpec(TopologyVariant("soft", penalty=0.04)),
    RunSpec(TopologyVariant("soft", penalty=5.0)),
    RunSpec(TopologyVariant("hard", max_run=2)),
    RunSpec(TopologyVariant("hard", max_run=1)),
)


def run_experiment(
    config: ExperimentConfig, runs: Sequence[RunSpec]
) -> list[tuple[ExperimentReport, list[float], ToyModel]]:
    """The one train-then-evaluate sequence of ``train-toy`` and ``compare``:
    build ``config.corpora()`` once, then train every run on the train corpus
    from the same (zero) init and evaluate it on the eval corpus. A run skips
    frames by its own ``skip_beta``; ``config.skip_beta`` is not read. Returns
    (report, loss curve, model) per run, in input order."""
    train_corpus, eval_corpus = config.corpora()
    results = []
    for spec in runs:
        model, losses = train(
            train_corpus,
            spec.variant,
            steps=config.steps,
            step_size=config.step_size,
            skip_beta=spec.skip_beta,
            warmup_fraction=config.warmup_fraction,
        )
        report = evaluate(model, eval_corpus, config.betas, spec.name, losses[-1])
        results.append((report, losses, model))
    return results
