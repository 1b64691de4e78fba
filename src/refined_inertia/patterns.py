"""Sign patterns over {+, -, 0} and their qualitative structure.

Provides the pattern type itself, a diff-friendly text format, the three
arrowhead pattern families studied by the analysis layer, and
irreducibility via strong connectivity of the associated digraph.

Indices are 0-based internally; user-facing text (CLI, reports) is 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cache
from typing import Iterable, Sequence


class PatternParseError(ValueError):
    """Raised for malformed pattern text; carries 1-based row/column info."""


class Sign(IntEnum):
    """Entry sign. The integer values fix the canonical order MINUS < ZERO < PLUS."""

    MINUS = -1
    ZERO = 0
    PLUS = 1

    @property
    def char(self) -> str:
        return {Sign.MINUS: "-", Sign.ZERO: "0", Sign.PLUS: "+"}[self]

    @classmethod
    def from_char(cls, token: str) -> "Sign":
        try:
            return {"-": cls.MINUS, "0": cls.ZERO, "+": cls.PLUS}[token]
        except KeyError:
            raise PatternParseError(f"illegal sign token {token!r}") from None

    @classmethod
    def from_value(cls, value) -> "Sign":
        if value > 0:
            return cls.PLUS
        if value < 0:
            return cls.MINUS
        return cls.ZERO


@dataclass(frozen=True)
class SignPattern:
    """Square matrix of signs; immutable and hashable."""

    rows: tuple[tuple[Sign, ...], ...]

    def __init__(self, rows: Iterable[Iterable[Sign]]):
        packed = tuple(tuple(Sign(s) for s in row) for row in rows)
        if not packed:
            raise ValueError("pattern must have at least one row")
        n = len(packed)
        for row in packed:
            if len(row) != n:
                raise ValueError(f"pattern must be square, got row of length {len(row)} in order-{n} pattern")
        object.__setattr__(self, "rows", packed)

    @property
    def n(self) -> int:
        return len(self.rows)

    def render(self) -> str:
        return "\n".join(" ".join(s.char for s in row) for row in self.rows)

    def to_json(self) -> list[list[str]]:
        return [[s.char for s in row] for row in self.rows]


def parse_pattern(text: str) -> SignPattern:
    """Parse the text format: one row per line, tokens from {+, -, 0}.

    Tolerates extra whitespace and blank lines. Errors report the 1-based
    row and column of the offending token.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise PatternParseError("empty input")
    rows = []
    for r, line in enumerate(lines, start=1):
        row = []
        for c, token in enumerate(line.split(), start=1):
            try:
                row.append(Sign.from_char(token))
            except PatternParseError:
                raise PatternParseError(f"illegal token {token!r} at row {r}, column {c}") from None
        rows.append(row)
    width = len(rows[0])
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            raise PatternParseError(f"row {r} has {len(row)} tokens, expected {width}")
    if len(rows) != width:
        raise PatternParseError(f"pattern is {len(rows)}x{width}, must be square")
    return SignPattern(rows)


@cache
def family_pattern(i: int, n: int) -> SignPattern:
    """The i-th arrowhead family pattern of order n (i in {1, 2, 3}, n >= 4).

    All three share the shape: dense first row and first column, diagonal
    (d, 0, -, ..., -), and zeros elsewhere.  They differ in the sign d of
    the (1,1) entry, the signs down the first column, and (for i = 3) a +
    in the trailing diagonal position.  Patterns are immutable, so each
    (i, n) is built once and then served from a cache.
    """
    if i not in (1, 2, 3):
        raise ValueError(f"family index must be 1, 2 or 3, got {i}")
    if n < 4:
        raise ValueError(f"family patterns start at order 4, got {n}")
    P, M, Z = Sign.PLUS, Sign.MINUS, Sign.ZERO
    head = P if i == 1 else M
    if i == 1:
        column = [M] * (n - 1)
    elif i == 2:
        column = [M] + [P] * (n - 2)
    else:
        column = [P] * (n - 2) + [M]
    rows = [[head] + [P] * (n - 1)]
    for k in range(1, n):
        row = [Z] * n
        row[0] = column[k - 1]
        if k >= 2:
            row[k] = M
        rows.append(row)
    if i == 3:
        rows[n - 1][n - 1] = P
    return SignPattern(rows)


def sgn_of_matrix(matrix: Sequence[Sequence]) -> SignPattern:
    """Entrywise sign pattern of a real matrix (int, Fraction or float entries)."""
    return SignPattern([[Sign.from_value(x) for x in row] for row in matrix])


def is_irreducible(pattern: SignPattern) -> bool:
    """True iff the digraph with an arc (j, k) for each nonzero entry is strongly connected.

    A 1x1 pattern is irreducible by convention, zero diagonal included.
    """
    n = pattern.n
    if n == 1:
        return True
    forward = [[k for k in range(n) if pattern.rows[j][k] != Sign.ZERO] for j in range(n)]
    backward = [[] for _ in range(n)]
    for j in range(n):
        for k in forward[j]:
            backward[k].append(j)

    def reaches_all(adj: list[list[int]]) -> bool:
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return all(seen)

    return reaches_all(forward) and reaches_all(backward)

