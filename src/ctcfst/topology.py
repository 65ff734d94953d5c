"""CTC topology graphs with blank regularization.

Three topology variants are supported:

* ``standard`` -- the usual blank/label graph: blank self-loops plus
  label self-loops that emit nothing, so any number of consecutive repeats
  collapses to one token.
* ``soft(penalty)`` -- structurally identical, but every non-blank self-loop
  carries weight ``-penalty``, so alignments pay for each repeated frame.
  Blank self-loops stay free.
* ``hard(max_run)`` -- each label emission is unrolled ``max_run`` states
  deep, so at most ``max_run`` consecutive identical non-blank symbols are
  accepted (counting the first one); longer runs are pruned structurally.

A transcript's training graph, whose paths at a fixed frame count are its
valid alignments, is its CTC chain (:func:`build_chain`, which ``topo build
--labels`` emits and the loss engine packs). Composing the topology with the
linear graph (:func:`ctcfst.reference.build_training_graph`) is the tests'
reference for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .fsa import BLANK, EPSILON, TERMINAL, Fst, format_number

MAX_ENUM_FRAMES = 12
MAX_ENUM_SYMBOLS = 4

# The most arcs build_topology or build_chain builds. An arc is a Python
# object of about 120 bytes, so this is about 120 MB of graph; the V=500
# hard(2) topology has 0.5 M arcs.
MAX_GRAPH_ARCS = 1_000_000


@dataclass(frozen=True)
class TopologyVariant:
    """Which topology to build: kind plus its regularization parameter."""

    kind: str
    penalty: float = 0.0
    max_run: int = 0

    def __post_init__(self):
        if self.kind not in ("standard", "soft", "hard"):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.kind == "soft" and not self.penalty >= 0:  # NaN fails too
            raise ValueError("soft penalty must be >= 0")
        if self.kind == "hard" and self.max_run < 1:
            raise ValueError("hard repeat bound must be >= 1")
        # A penalty of -0 is 0, so that soft(-0) has the name and weights of soft(0).
        object.__setattr__(self, "penalty", self.penalty + 0.0)

    def __str__(self) -> str:
        if self.kind == "soft":
            return f"soft({format_number(self.penalty)})"
        if self.kind == "hard":
            return f"hard({self.max_run})"
        return "standard"


STANDARD = TopologyVariant("standard")


def soft(penalty: float) -> TopologyVariant:
    return TopologyVariant("soft", penalty=penalty)


def hard(max_run: int) -> TopologyVariant:
    return TopologyVariant("hard", max_run=max_run)


def _validate_labels(labels: Sequence[int], vocab_size: int | None) -> None:
    for tok in labels:
        if tok < 1 or (vocab_size is not None and tok > vocab_size):
            hi = vocab_size if vocab_size is not None else "?"
            raise ValueError(f"label {tok} outside vocabulary range 1..{hi}")


def _check_size(arcs: int) -> None:
    """Refuse a graph of more than ``MAX_GRAPH_ARCS`` arcs, before building it."""
    if arcs > MAX_GRAPH_ARCS:
        raise ValueError(f"graph too large: {arcs} arcs, limit {MAX_GRAPH_ARCS}")


def build_topology(vocab_size: int, variant: TopologyVariant = STANDARD) -> Fst:
    """Build the topology transducer over blank + ``vocab_size`` symbols.

    Input labels are {0 = blank, 1..V}; output labels are {0 = epsilon,
    1..V}. Arcs entering the final state carry the -1 sentinel. Raises
    ``ValueError`` for more than ``MAX_GRAPH_ARCS`` arcs.
    """
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    depth, loop = _run_shape(variant)
    # The hub's V + 2 arcs; per run state a blank, V - 1 label, a terminal and
    # a next-state or self-loop arc, which a hard run's last state lacks.
    _check_size(vocab_size + 2 + vocab_size * (depth * (vocab_size + 2) - (loop is None)))
    fst = Fst()
    hub = fst.add_state()  # blank hub, also the start state
    run = [[fst.add_state() for _ in range(depth)] for _ in range(vocab_size)]
    final = fst.add_state()
    fst.start, fst.final = hub, final
    fst.add_arc(hub, hub, BLANK, EPSILON)
    for k in range(1, vocab_size + 1):
        fst.add_arc(hub, run[k - 1][0], k, k)
    fst.add_arc(hub, final, TERMINAL, EPSILON)
    for k in range(1, vocab_size + 1):
        for c in range(depth):
            s = run[k - 1][c]
            if c + 1 < depth:
                fst.add_arc(s, run[k - 1][c + 1], k, EPSILON)
            elif loop is not None:
                fst.add_arc(s, s, k, EPSILON, loop)  # the non-blank self-loop
            fst.add_arc(s, hub, BLANK, EPSILON)
            for j in range(1, vocab_size + 1):
                if j != k:
                    fst.add_arc(s, run[j - 1][0], j, j)
            fst.add_arc(s, final, TERMINAL, EPSILON)
    return fst


def _run_shape(variant: TopologyVariant, num_frames: float = float("inf")):
    """A label run's depth and self-loop weight (None: no loop). A standard or
    soft run is one state that keeps its self-loop; a hard bound
    ``>= num_frames`` runs as standard, since no run can be longer."""
    if variant.kind == "hard" and variant.max_run < num_frames:
        return variant.max_run, None
    return 1, -variant.penalty if variant.kind == "soft" else 0.0


def _chain(labels: Sequence[int], variant: TopologyVariant, num_frames: float = float("inf")):
    """One chain's arcs ``(src, dst, weight)``, sorted so that each state's
    arcs enter and leave in state order; its state symbols; its final states."""
    depth, loop = _run_shape(variant, num_frames)
    arcs, syms = [(0, 0, 0.0)], [BLANK]
    blank, run = 0, []
    for tok, prev in zip(labels, [None, *labels]):
        # A repeated label must pass through the blank between the two runs.
        sources = [blank] + (run if tok != prev else [])
        run = list(range(blank + 1, blank + 1 + depth))
        blank = run[-1] + 1
        arcs += [(src, run[0], 0.0) for src in sources]
        arcs += [(a, b, 0.0) for a, b in zip(run, run[1:])]
        if loop is not None:
            arcs.append((run[-1], run[-1], loop))  # the non-blank self-loop
        arcs += [(s, blank, 0.0) for s in run] + [(blank, blank, 0.0)]
        syms += [tok] * depth + [BLANK]
    return sorted(arcs), syms, run + [blank]


def build_chain(labels: Sequence[int], vocab_size: int, variant: TopologyVariant = STANDARD) -> Fst:
    """Training graph for one utterance: blank state 0, then per label a run
    and a blank state, then a final state entered by ``TERMINAL`` arcs. A
    hard run is ``max_run`` states in a row, a standard or soft run one state
    with a self-loop weighted ``-penalty`` (0 for standard). This is the
    composed :func:`ctcfst.reference.build_training_graph` numbered in chain
    order, which for standard, soft and hard(k <= 2) is its own numbering.
    Raises ``ValueError`` for more than ``MAX_GRAPH_ARCS`` arcs."""
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    depth, _ = _run_shape(variant)
    # At most 3 * depth + 2 arcs per label, and 1 + depth + 1 besides.
    _check_size((len(labels) + 1) * (3 * depth + 2))
    _validate_labels(labels, vocab_size)
    arcs, syms, finals = _chain(labels, variant)
    fst = Fst()
    for _ in range(len(syms) + 1):
        fst.add_state()
    fst.start, fst.final = 0, len(syms)
    for src, dst, weight in arcs:
        # A label is output on entering its run from outside; BLANK is EPSILON.
        fst.add_arc(src, dst, syms[dst], syms[dst] if syms[src] != syms[dst] else EPSILON, weight)
    for state in finals:
        fst.add_arc(state, fst.final, TERMINAL, EPSILON)
    return fst


def collapse_ctc(alignment: Iterable[int]) -> list[int]:
    """CTC collapse: merge adjacent duplicates, then delete blanks."""
    return [k for k, _ in itertools.groupby(alignment) if k != BLANK]


def _max_nonblank_run(alignment: Sequence[int]) -> int:
    longest = 0
    for k, group in itertools.groupby(alignment):
        if k != BLANK:
            longest = max(longest, sum(1 for _ in group))
    return longest


def enumerate_alignments(
    labels: Sequence[int], frames: int, variant: TopologyVariant = STANDARD
) -> set[tuple[int, ...]]:
    """Brute-force the alignment set: every length-``frames`` string over
    blank plus the transcript's symbols that collapses to the transcript,
    filtered by the hard run-length rule when applicable.

    Guarded to ``frames`` <= 12 and <= 4 distinct symbols: it serves
    ``align`` and the brute-force oracle, not the loss.
    """
    _validate_labels(labels, None)
    if frames < 0:
        raise ValueError(f"frames must be >= 0, got {frames}")
    symbols = sorted(set(labels))
    if frames > MAX_ENUM_FRAMES or len(symbols) > MAX_ENUM_SYMBOLS:
        raise ValueError(
            f"enumeration guard: need frames <= {MAX_ENUM_FRAMES} and "
            f"<= {MAX_ENUM_SYMBOLS} distinct symbols"
        )
    alphabet = [BLANK] + symbols
    target = list(labels)
    out: set[tuple[int, ...]] = set()
    for candidate in itertools.product(alphabet, repeat=frames):
        if collapse_ctc(candidate) != target:
            continue
        if variant.kind == "hard" and _max_nonblank_run(candidate) > variant.max_run:
            continue
        out.add(candidate)
    return out


# benchmarks/run.py reads build_training_graph here. Last: reference imports this module.
from .reference import build_training_graph  # noqa: E402,F401
