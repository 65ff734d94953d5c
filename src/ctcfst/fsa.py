"""Weighted finite-state machinery in the log semiring.

Conventions used throughout the package:

* Weights live on the natural-log scale. Semiring addition is log-sum-exp,
  multiplication is ordinary addition, zero is ``-inf`` and one is ``0.0``.
* Input label 0 is the blank symbol; output label 0 is epsilon.
* Input label -1 is a terminal sentinel allowed only on arcs entering the
  final state (mirroring the ``-1:0/0`` convention of graph drawings).
* Every non-empty Fst has exactly one start state and one final state, and
  the final state has no outgoing arcs.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

EPSILON = 0
BLANK = 0
TERMINAL = -1


def parse_int(token: str, signed: bool = False) -> int:
    """An integer written in ASCII digits, after a ``-`` only when ``signed``.

    The one integer rule of the text formats and the command line: ``int``
    alone would also take other scripts' digits, ``_``, ``+`` and spaces.
    """
    if re.fullmatch("-?[0-9]+" if signed else "[0-9]+", token) is None:
        kind = "an integer" if signed else "a non-negative integer"
        raise ValueError(f"expected {kind} in ASCII digits, got {token!r}")
    return int(token)


def parse_float(token: str) -> float:
    """A float written in ASCII, as ``float`` reads it but without ``_``: the
    one float rule of the text formats and the command line, where ``float``
    alone would also take other scripts' digits and ``1_0``."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


class Arc(NamedTuple):
    src: int
    dst: int
    ilabel: int
    olabel: int
    weight: float


class Fst:
    """Mutable weighted transducer with arcs grouped by source state."""

    __slots__ = ("_out", "start", "final")

    def __init__(self) -> None:
        self._out: list[list[Arc]] = []
        self.start: int | None = None
        self.final: int | None = None

    @property
    def num_states(self) -> int:
        return len(self._out)

    @property
    def num_arcs(self) -> int:
        return sum(len(arcs) for arcs in self._out)

    @property
    def is_empty(self) -> bool:
        return len(self._out) == 0

    def add_state(self) -> int:
        self._out.append([])
        return len(self._out) - 1

    def add_arc(
        self, src: int, dst: int, ilabel: int, olabel: int, weight: float = 0.0
    ) -> None:
        if not (0 <= src < len(self._out) and 0 <= dst < len(self._out)):
            raise ValueError(f"arc endpoints ({src}, {dst}) out of range")
        self._out[src].append(Arc(src, dst, ilabel, olabel, weight))

    def arcs_from(self, state: int) -> list[Arc]:
        return self._out[state]

    def arcs(self) -> Iterator[Arc]:
        """All arcs, in source-state order."""
        for arcs in self._out:
            yield from arcs


def connect(fst: Fst) -> Fst:
    """Trim states unreachable from start or not co-reachable to final.

    The result accepts the same weighted language with densely renumbered
    states; an empty language comes back as the empty Fst (0 states), which
    callers must treat as "no valid path".
    """
    if fst.is_empty or fst.start is None or fst.final is None:
        return Fst()

    n = fst.num_states
    forward = [False] * n
    forward[fst.start] = True
    stack = [fst.start]
    while stack:
        s = stack.pop()
        for arc in fst.arcs_from(s):
            if not forward[arc.dst]:
                forward[arc.dst] = True
                stack.append(arc.dst)

    incoming: list[list[int]] = [[] for _ in range(n)]
    for arc in fst.arcs():
        incoming[arc.dst].append(arc.src)
    backward = [False] * n
    backward[fst.final] = True
    stack = [fst.final]
    while stack:
        s = stack.pop()
        for src in incoming[s]:
            if not backward[src]:
                backward[src] = True
                stack.append(src)

    keep = [s for s in range(n) if forward[s] and backward[s]]
    remap = {old: new for new, old in enumerate(keep)}
    if fst.start not in remap or fst.final not in remap:
        return Fst()

    out = Fst()
    for _ in keep:
        out.add_state()
    out.start = remap[fst.start]
    out.final = remap[fst.final]
    for old in keep:
        for arc in fst.arcs_from(old):
            if forward[arc.dst] and backward[arc.dst]:
                out.add_arc(remap[old], remap[arc.dst], arc.ilabel, arc.olabel, arc.weight)
    return out


def compose(a: Fst, b: Fst) -> Fst:
    """Weighted composition of ``a`` with an input-epsilon-free ``b``.

    Output-epsilon arcs of ``a`` advance ``a`` alone. Terminal sentinel arcs
    (ilabel -1) of the two operands are taken together, so the composed
    machine keeps the single-final-state convention. Weights combine by
    log-semiring multiplication (real addition).
    """
    if a.is_empty or b.is_empty:
        return Fst()
    for arc in b.arcs():
        if arc.ilabel == EPSILON:
            raise ValueError("compose: right operand must be epsilon-free on its input side")

    out = Fst()
    state_of: dict[tuple[int, int], int] = {}

    def state(pair: tuple[int, int]) -> int:
        sid = state_of.get(pair)
        if sid is None:
            sid = out.add_state()
            state_of[pair] = sid
        return sid

    start_pair = (a.start, b.start)
    queue = [start_pair]
    state(start_pair)
    head = 0
    while head < len(queue):
        sa, sb = queue[head]
        head += 1
        here = state_of[(sa, sb)]
        for arc_a in a.arcs_from(sa):
            if arc_a.ilabel == TERMINAL:
                for arc_b in b.arcs_from(sb):
                    if arc_b.ilabel == TERMINAL:
                        pair = (arc_a.dst, arc_b.dst)
                        fresh = pair not in state_of
                        out.add_arc(
                            here, state(pair), TERMINAL, EPSILON, arc_a.weight + arc_b.weight
                        )
                        if fresh:
                            queue.append(pair)
            elif arc_a.olabel == EPSILON:
                pair = (arc_a.dst, sb)
                fresh = pair not in state_of
                out.add_arc(here, state(pair), arc_a.ilabel, EPSILON, arc_a.weight)
                if fresh:
                    queue.append(pair)
            else:
                for arc_b in b.arcs_from(sb):
                    if arc_b.ilabel == arc_a.olabel:
                        pair = (arc_a.dst, arc_b.dst)
                        fresh = pair not in state_of
                        out.add_arc(
                            here,
                            state(pair),
                            arc_a.ilabel,
                            arc_b.olabel,
                            arc_a.weight + arc_b.weight,
                        )
                        if fresh:
                            queue.append(pair)

    final_pair = (a.final, b.final)
    if final_pair not in state_of:
        return Fst()
    out.start = state_of[start_pair]
    out.final = state_of[final_pair]
    return out


def fst_to_text(fst: Fst) -> str:
    """Serialize to the text format: one ``src dst ilabel olabel weight`` line
    per arc, then a line with the final state id. Weights keep 12 significant
    digits."""
    if fst.is_empty:
        return ""
    lines = [
        f"{arc.src} {arc.dst} {arc.ilabel} {arc.olabel} {arc.weight:.12g}"
        for arc in fst.arcs()
    ]
    lines.append(str(fst.final))
    return "\n".join(lines) + "\n"


def fst_from_text(text: str) -> Fst:
    """Parse the text format produced by :func:`fst_to_text`.

    The start state is the source of the first arc line. State ids are
    non-negative and labels may be negative, all in ASCII digits.
    """
    arcs: list[tuple[int, int, int, int, float]] = []
    final: int | None = None
    for raw in text.splitlines():
        fields = raw.split()
        if not fields:
            continue
        try:
            if len(fields) == 1:
                final = parse_int(fields[0])
                continue
            src, dst, ilabel, olabel, weight = fields
            arcs.append((parse_int(src), parse_int(dst), parse_int(ilabel, signed=True),
                         parse_int(olabel, signed=True), parse_float(weight)))
        except ValueError:
            raise ValueError(f"malformed FST line: {raw.strip()!r}") from None
    if not arcs:
        return Fst()
    if final is None:
        raise ValueError("missing final-state line")
    if any(src == final for src, *_ in arcs):
        raise ValueError(f"final state {final} has outgoing arcs")
    out = Fst()
    num_states = max(max(src, dst) for src, dst, *_ in arcs) + 1
    num_states = max(num_states, final + 1)
    for _ in range(num_states):
        out.add_state()
    for src, dst, ilabel, olabel, weight in arcs:
        out.add_arc(src, dst, ilabel, olabel, weight)
    out.start = arcs[0][0]
    out.final = final
    return out
