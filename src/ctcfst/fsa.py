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
