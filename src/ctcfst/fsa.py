"""Weighted finite-state machinery in the log semiring, and the text formats.

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

import numpy as np

EPSILON = 0
BLANK = 0
TERMINAL = -1
_NUMBER = "%.12g"  # 12 significant digits


def format_number(value: float) -> str:
    """The one rule for writing a number: 12 significant digits, ``-0`` as ``0``."""
    return _NUMBER % (value + 0.0)


def first_bad(ok: np.ndarray, values: np.ndarray) -> str:
    """The first entry, in row-major order, where ``ok`` is False, and the value
    of ``values`` there: ``row r`` of a 1-D array, ``row r, column c`` of a
    matrix, ``entry (i, j, ...)`` of any other."""
    ok, values = np.atleast_1d(ok, values)
    index = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
    if len(index) > 2:
        where = f"entry {index}"
    else:
        where = ", ".join(f"{axis} {i}" for axis, i in zip(("row", "column"), index))
    return f"{where} holds {format_number(values[index])}"


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
    per arc, then a line with the final state id. Weights are written by
    :func:`format_number`."""
    if fst.is_empty:
        return ""
    lines = [f"{s} {d} {i} {o} {format_number(w)}\n" for s, d, i, o, w in fst.arcs()]
    return "".join(lines) + f"{fst.final}\n"


def format_matrix(matrix) -> str:
    """Matrix text format: a ``T C`` header line, then T rows of C numbers."""
    matrix = np.asarray(matrix, dtype=float) + 0.0  # format_number's rule, vectorised
    rows, cols = matrix.shape
    row_format = " ".join([_NUMBER] * cols)
    lines = [f"{rows} {cols}"] + [row_format % tuple(row) for row in matrix.tolist()]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Parse the matrix text format produced by :func:`format_matrix`. A
    matrix needs at least one row and one column. Its text must be ASCII:
    ``str.split`` and ``np.loadtxt`` also split on a no-break space. Errors
    count lines, rows and columns from 0."""
    if not text.isascii():
        at = re.search(r"[^\x00-\x7f]", text).start()
        line, column = text.count("\n", 0, at), at - text.rfind("\n", 0, at) - 1
        raise ValueError(f"line {line}, column {column} holds {text[at]!r}, not ASCII")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    try:
        rows, cols = map(parse_int, lines[0].split())
    except ValueError:
        raise ValueError(f"malformed matrix header: {lines[0]!r}") from None
    if rows == 0 or cols == 0:
        raise ValueError(f"matrix needs at least one row and one column, got {rows} x {cols}")
    body = lines[1:]
    if len(body) != rows:
        raise ValueError(f"expected {rows} matrix rows, found {len(body)}")
    try:
        out = np.loadtxt(body, comments=None, ndmin=2)
    except ValueError:
        # Name the first short or long row, else the first value that is no number.
        rows = [line.split() for line in body]
        for i, values in enumerate(rows):
            if len(values) != cols:
                raise _bad_width(i, len(values), cols) from None
        for i, values in enumerate(rows):
            for j, value in enumerate(values):
                try:
                    parse_float(value)
                except ValueError:
                    raise ValueError(f"row {i}, column {j} holds {value!r}, not a number") from None
        raise
    if out.shape[1] != cols:
        raise _bad_width(0, out.shape[1], cols)
    return out


def _bad_width(row: int, width: int, cols: int) -> ValueError:
    return ValueError(f"row {row} has {width} values, expected {cols}")
