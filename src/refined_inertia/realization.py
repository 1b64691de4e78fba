"""Rational realizations of sign patterns and the arrowhead normal form.

rational_rows is the one exact matrix reader and _fraction_rows its one
Fraction view.  ArrowMatrix holds the arrowhead parameters as integers;
arrow_char_poly rescales _spoke_expansion's G(y), whose docstring holds
the falsifier's argument.  A sample of Q(P) is its integer seed:
_signed_draws draws it, and _dyadic reads the draws as matrix rows
(_draw_rows) or a family arrow (_family_draw).  Also here: the arrowhead
normal form, the witness embedding, deflation of a repeated diagonal
parameter, and the matrix JSON wire format.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .patterns import SignPattern, family_pattern, sgn_of_matrix
from .ratpoly import RationalPoly, over_common

RationalMatrix = tuple[tuple[Fraction, ...], ...]

_ZERO = Fraction(0)  # shared by every zero entry; Fractions are immutable


def rational_rows(matrix: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(A, common): the matrix is A / common, with common the lcm of every entry's denominator.

    The one reader of an exact matrix: entries must be ints or Fractions
    (floats raise TypeError), and the matrix square and nonempty.  A
    matrix of plain ints is A itself, copied, over 1 (over_common).
    """
    nums, common = over_common([x for row in matrix for x in row])
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    return [nums[r * n : (r + 1) * n] for r in range(n)], common


def _fraction_rows(rows: list[list[int]], common: int) -> RationalMatrix:
    """The Fraction view of the integer rows over common: the matrix rows / common."""
    return tuple(tuple(Fraction(x, common) if x else _ZERO for x in row) for row in rows)


class MembershipError(ValueError):
    """A matrix does not belong to the qualitative class an operation requires."""


class DegenerateMergeError(ValueError):
    """Deflation merged two spoke entries to zero, leaving the qualitative class."""


@dataclass(frozen=True, eq=False)
class ArrowMatrix:
    """Parameters (a_1..a_n, b_1..b_{n-2}) of the arrowhead form.

    The realized matrix has first row (a_1, 1, ..., 1), first column
    (a_1, a_2, ..., a_n), diagonal (a_1, 0, -b_1, ..., -b_{n-2}), and zeros
    elsewhere.  The a_k are stored as a_num[k] / a_den and the b_j as
    b_num[j] / b_den, integers over one positive denominator each, not
    necessarily in lowest terms; equality and hashing follow the rationals.
    The a and b properties read them as Fractions.
    """

    a_num: tuple[int, ...]
    a_den: int
    b_num: tuple[int, ...]
    b_den: int

    def __init__(self, a: Sequence, b: Sequence):
        self._set(*over_common(a), *over_common(b))

    @classmethod
    def from_ints(cls, a: Sequence[int], a_den: int, b: Sequence[int], b_den: int) -> "ArrowMatrix":
        """The arrow with a_k = a[k] / a_den and b_j = b[j] / b_den, for positive a_den and b_den."""
        arrow = object.__new__(cls)
        arrow._set(a, a_den, b, b_den)
        return arrow

    def _set(self, a: Sequence[int], a_den: int, b: Sequence[int], b_den: int) -> None:
        if len(a) < 4:
            raise ValueError(f"arrow form needs order >= 4, got {len(a)}")
        if len(b) != len(a) - 2:
            raise ValueError(f"expected {len(a) - 2} diagonal parameters, got {len(b)}")
        if a_den <= 0 or b_den <= 0:
            raise ValueError(f"denominators must be positive, got {a_den} and {b_den}")
        self.__dict__.update(a_num=tuple(a), a_den=a_den, b_num=tuple(b), b_den=b_den)

    @property
    def a(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.a_den) for x in self.a_num)

    @property
    def b(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.b_den) for x in self.b_num)

    @property
    def n(self) -> int:
        return len(self.a_num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArrowMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and all(x * other.a_den == y * self.a_den for x, y in zip(self.a_num, other.a_num))
            and all(x * other.b_den == y * self.b_den for x, y in zip(self.b_num, other.b_num))
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def in_family(self, i: int) -> bool:
        """Whether the matrix lies in the qualitative class of family i (_arrow_in_family)."""
        return _arrow_in_family(self.a_num, self.b_num, i)

    def integer_rows(self) -> tuple[list[list[int]], int]:
        """(A, scale): the matrix is A / scale, with scale the lcm of the two denominators."""
        return _arrow_rows(self.a_num, self.a_den, self.b_num, self.b_den)

    def to_matrix(self) -> RationalMatrix:
        return _fraction_rows(*self.integer_rows())

    def to_json(self) -> dict:
        return {
            "a": [f"{x.numerator}/{x.denominator}" for x in self.a],
            "b": [f"{x.numerator}/{x.denominator}" for x in self.b],
        }


def _arrow_in_family(a: Sequence[int], b: Sequence[int], i: int) -> bool:
    """Whether the arrow with numerators a and b, over positive denominators, is in family i's class.

    Every family pattern has the arrowhead's shape: a positive first
    row, a zero (2, 2) entry, and zeros off the first row, the first
    column and the diagonal.  So membership reads only the signs of
    the a_k, against the first column, and of the -b_j, against the
    diagonal.  Raises ValueError when i is not a family index.
    """
    signs = family_pattern(i, len(a)).rows
    return all((x > 0) - (x < 0) == signs[k][0] for k, x in enumerate(a)) and all(
        (x < 0) - (x > 0) == signs[k][k] for k, x in enumerate(b, start=2)
    )


def _arrow_rows(a: Sequence[int], a_den: int, b: Sequence[int], b_den: int) -> tuple[list[list[int]], int]:
    """(A, scale): the arrow a / a_den, b / b_den is the matrix A / scale, scale = lcm(a_den, b_den)."""
    scale = math.lcm(a_den, b_den)
    ka, kb = scale // a_den, scale // b_den
    n = len(a)
    rows = [[a[0] * ka] + [scale] * (n - 1)]
    for k in range(1, n):
        row = [0] * n
        row[0] = a[k] * ka
        if k >= 2:
            row[k] = -b[k - 2] * kb
        rows.append(row)
    return rows, scale


def arrow_char_poly(arrow: ArrowMatrix) -> RationalPoly:
    """Characteristic polynomial det(xI - B) of the arrowhead form, by the spoke expansion.

    _spoke_char_poly on the arrow's integers, normalized.  Tests pin this
    closed form against the generic Berkowitz route.
    """
    return RationalPoly.from_ints(*_spoke_char_poly(arrow.a_num, arrow.a_den, arrow.b_num, arrow.b_den))


def _spoke_char_poly(a: Sequence[int], c: int, b: Sequence[int], q: int) -> tuple[list[int], int]:
    """(num, den) with det(xI - B) = sum(num[k] * x**k) / den for the arrow a / c, b / q, not reduced.

    _spoke_expansion's G(y) rescaled: num[k] = G_k q**k and den = c q**n.
    """
    g = _spoke_expansion(a, c, b, q)
    return [gk * q**k for k, gk in enumerate(g)], c * q ** (len(g) - 1)


def _spoke_expansion(a: Sequence[int], c: int, b: Sequence[int], q: int) -> list[int]:
    """G(y), low to high, with G(q x) = c q**n det(xI - B) for the arrow a / c, b / q.

    det(xI - B) = (x - a1) * x * prod_j (x + b_j)
                  - a2 * prod_j (x + b_j)
                  - sum_j a_{j+2} * x * prod_{m != j} (x + b_m)

    With a_k = A_k / c and b_j = p_j / q over the arrow's two denominators,
    put y = q x, so that x + b_j = (y + p_j) / q.  Then c q^n det(xI - B)
    is the integer polynomial

        G(y) = (c y - q A_1) y F(y) - q^2 A_2 F(y) - q^2 y H(y)

    with F(y) = prod_j (y + p_j) and H(y) = sum_j A_{j+2} prod_{m != j} (y + p_m).
    One pass over the spokes builds both by the product rule, H <- H (y + p)
    + A F and then F <- F (y + p), and no power of q enters it.  The roots
    of G are q > 0 times the eigenvalues, so G has the matrix's refined
    inertia; the coefficient of x^k in det(xI - B) is G_k q^k / (c q^n).
    """
    full, spokes = [1], []  # F and H, low to high
    for weight, p in zip(a[2:], b):
        spokes = [p * lo + hi + weight * f for lo, hi, f in zip(spokes + [0], [0] + spokes, full)]
        full = [p * lo + hi for lo, hi in zip(full + [0], [0] + full)]
    g = [0, 0] + [c * f for f in full]  # G, low to high, from its first term c y^2 F
    qa1, q2a2, q2 = q * a[0], q * q * a[1], q * q
    for k, f in enumerate(full):
        g[k + 1] -= qa1 * f
        g[k] -= q2a2 * f
    for k, h in enumerate(spokes):
        g[k + 1] -= q2 * h
    return g


def family_index(matrix: Sequence[Sequence]) -> int | None:
    """Index i with sgn(matrix) equal to the order-n family pattern, else None."""
    pattern = sgn_of_matrix(matrix)
    if pattern.n < 4:
        return None
    for i in (1, 2, 3):
        if pattern == family_pattern(i, pattern.n):
            return i
    return None


# -- sampling Q(P) ---------------------------------------------------------


@dataclass(frozen=True)
class RealizationConfig:
    """Sampling policy of the public API: the RNG seed, which the samplers below it take as an int."""

    seed: int = 0


def _signs(pattern: SignPattern) -> list[int]:
    """The nonzero signs of pattern, row-major, as plain ints: what _signed_draws reads."""
    return [int(s) for row in pattern.rows for s in row if s]


def _signed_draws(signs: Sequence[int], rng: random.Random) -> list[tuple[int, int]]:
    """(s * m, e), the entry s * m / 2**e, for each sign s of signs, drawn from rng where it stands.

    This is the one place a sample is drawn.  The caller seeds rng per
    sample, which puts it in the state random.Random(seed) starts in, so
    one generator serves many samples; a second call continues the
    stream.  The mantissa m comes from [2**12, 2**13) and then the
    exponent e from [3, 23): log-uniform to within a factor of two over
    [2**-10, 2**10), so samples span six decades, every denominator is a
    power of two, and the stream depends only on the seed and Python's
    integer Mersenne Twister, never on platform floats.  Each is drawn by
    the rejection loop randrange runs (getrandbits of the range's bit
    length, redrawn until it falls inside the range), inlined: the stream
    is randrange(2**12, 2**13) then randrange(3, 23) per entry, bit for
    bit, without randrange's argument handling.
    """
    bits = rng.getrandbits
    draws = []
    for s in signs:
        m = bits(13)
        while m >= 4096:
            m = bits(13)
        e = bits(5)
        while e >= 20:
            e = bits(5)
        draws.append((s * (m + 4096), e + 3))
    return draws


def _dyadic(draws: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """(nums, 2**top): the k-th pair (m, e), worth m / 2**e, is nums[k] / 2**top.

    top is the largest exponent (0 for no draws) and nums[k] = m << (top - e): no Fraction is built.
    """
    top = max((e for _, e in draws), default=0)
    return [m << (top - e) for m, e in draws], 1 << top


def _draw_rows(pattern: SignPattern, draws: Sequence[tuple[int, int]]) -> tuple[list[list[int]], int]:
    """(A, common): pattern's draws, from _signed_draws on its _signs, laid out as A / common by _dyadic."""
    nums, common = _dyadic(draws)
    entries = iter(nums)
    return [[next(entries) if s else 0 for s in row] for row in pattern.rows], common


def sample_realization(pattern: SignPattern, cfg: RealizationConfig) -> RationalMatrix:
    """One rational matrix in Q(pattern); deterministic for a fixed seed.

    The Fraction view of _signed_draws on a generator of its own seeded
    with cfg.seed, laid out by _draw_rows, for the API edges: the
    falsifier's counterexample, which is shrunk as a matrix, and tests.
    """
    draws = _signed_draws(_signs(pattern), random.Random(cfg.seed))
    return _fraction_rows(*_draw_rows(pattern, draws))


def _family_draw(draws: Sequence[tuple[int, int]]) -> tuple[list[int], int, list[int], int]:
    """(a, a_den, b, b_den): the arrow of a family pattern's sample is a / a_den, b / b_den.

    draws is _signed_draws' list for the pattern, 3n - 3 pairs at order n,
    row-major: the first row, then B_k1 and, from k = 3 on, B_kk.  Then
    a_1 = B_11, a_k = B_1k * B_k1 and b_j = -B_{j+2,j+2}, all dyadic; the
    a_k and the b_j each go over their own power of two by _dyadic.
    """
    n = len(draws) // 3 + 1
    head, rest = draws[:n], draws[n:]  # rest: B_21, B_31, B_33, B_41, B_44, ...
    column, diagonal = rest[:1] + rest[1::2], rest[2::2]
    a = head[:1] + [(p * m, f + e) for (p, f), (m, e) in zip(head[1:], column)]
    return (*_dyadic(a), *_dyadic([(-m, e) for m, e in diagonal]))


def _redraw_tied_diagonal(draws: list[tuple[int, int]], rng: random.Random) -> None:
    """Redraw, in place, each diagonal draw of _family_draw's list that repeats an earlier one.

    The diagonal draws, the -b_j, sit at n + 2, n + 4, ..., 3n - 4.  A tied
    one is drawn again on its sign from rng, continuing its stream, until
    it is new.  With m in [2**12, 2**13), m / 2**e has one (m, e) form, so
    distinct signed pairs are distinct b_j.
    """
    seen = set()
    for k in range(len(draws) // 3 + 3, len(draws), 2):
        sign = 1 if draws[k][0] > 0 else -1
        while draws[k] in seen:
            [draws[k]] = _signed_draws([sign], rng)
        seen.add(draws[k])


# -- arrowhead normalization -------------------------------------------------


def to_arrow_form(matrix: Sequence[Sequence]) -> ArrowMatrix:
    """Normalize a family-class matrix onto the arrowhead form by diagonal similarity.

    The scaling diagonal is D = diag(1, B_12, ..., B_1n), whose entries are
    positive by pattern membership; conjugating by it makes the first row
    (a_1, 1, ..., 1) while fixing the diagonal and the spectrum exactly.
    Over rational_rows' (A, common), the a_k are over common**2 and the b_j
    over common.  Raises MembershipError when the matrix is in no family's
    class.
    """
    A, common = rational_rows(matrix)
    if family_index(A) is None:
        raise MembershipError("matrix is not in the qualitative class of any family pattern")
    a = [A[0][0] * common] + [A[0][k] * A[k][0] for k in range(1, len(A))]
    return ArrowMatrix.from_ints(a, common**2, [-A[k][k] for k in range(2, len(A))], common)


def embed_witness(base: ArrowMatrix, n: int, i: int) -> ArrowMatrix:
    """Lift a 4x4 family realization to order n by replicating the third spoke.

    The third spoke weight a_3 splits into n-3 equal parts, each against a
    diagonal -b_1; the fourth spoke and its -b_2 stay last.  The result is
    in the order-n class of the same family, and its characteristic
    polynomial is (x + b_1)^(n-4) times the base one, exactly.  The a's
    go over n-3 times the base denominator, so each share of a_3 keeps its
    numerator and a_1, a_2 and a_4 are scaled by n-3.
    """
    if base.n != 4:
        raise ValueError(f"embedding starts from a 4x4 arrow matrix, got order {base.n}")
    if n < 5:
        raise ValueError(f"embedding target order must be >= 5, got {n}")
    if not base.in_family(i):
        raise MembershipError(
            f"base matrix is not in the order-4 class of family {i}; "
            f"arrow {json.dumps(base.to_json())}"
        )
    parts = n - 3
    a1, a2, a3, a4 = base.a_num
    b1, b2 = base.b_num
    a = (a1 * parts, a2 * parts) + (a3,) * parts + (a4 * parts,)
    return ArrowMatrix.from_ints(a, base.a_den * parts, (b1,) * parts + (b2,), base.b_den)


def deflate_repeated(arrow: ArrowMatrix) -> tuple[Fraction, ArrowMatrix]:
    """Extract the eigenvalue shared by a repeated diagonal parameter pair.

    For the first pair (j, k) with b_j = b_k, returns (-b_j, B1) where B1
    drops one of the two spokes and adds its weight to the other, so that
    char_poly(B) = (x + b_j) * char_poly(B1) exactly.  Raises
    DegenerateMergeError when the merged weight vanishes, since B1 would
    then leave the qualitative class the induction argument lives in.
    """
    b = arrow.b_num
    pair = next(
        ((j, k) for j in range(len(b)) for k in range(j + 1, len(b)) if b[j] == b[k]),
        None,
    )
    if pair is None:
        raise ValueError("deflation requires a repeated diagonal parameter")
    j, k = pair
    merged = arrow.a_num[j + 2] + arrow.a_num[k + 2]
    if merged == 0:
        raise DegenerateMergeError(
            f"spoke weights a_{j + 3} and a_{k + 3} cancel; deflated matrix would "
            "leave the qualitative class"
        )
    a = list(arrow.a_num)
    a[j + 2] = merged
    del a[k + 2]
    b_out = list(b)
    del b_out[k]
    return Fraction(-b[j], arrow.b_den), ArrowMatrix.from_ints(a, arrow.a_den, b_out, arrow.b_den)


# -- matrix JSON (exact wire format) ----------------------------------------


def matrix_to_json(matrix: Sequence[Sequence]) -> dict:
    A, common = rational_rows(matrix)
    entries = []
    for row in A:
        for x in row:
            g = math.gcd(x, common)
            entries.append([x // g, common // g])
    return {"n": len(A), "entries": entries}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _entry_from_json(k: int, item) -> Fraction | float:
    if isinstance(item, list) and len(item) == 2 and all(map(_is_int, item)) and item[1] != 0:
        return Fraction(item[0], item[1])
    if _is_int(item) or isinstance(item, float):
        try:
            value = float(item)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
    raise ValueError(
        f"entry {k + 1} is {item!r}, expected a [num, den] pair of integers with "
        "den != 0 or a finite number"
    )


def matrix_from_json(data) -> tuple[tuple[Fraction | float, ...], ...]:
    """Read the matrix wire format, {"n": n, "entries": [...]} with n*n row-major entries.

    An [num, den] integer pair becomes an exact Fraction; a plain finite
    number becomes a float, which only the numeric engine accepts.  Any
    other shape raises a one-line ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"matrix JSON must be an object, got {type(data).__name__}")
    n = data.get("n")
    if not _is_int(n) or n < 1:
        raise ValueError(f'"n" must be an integer >= 1, got {n!r}')
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise ValueError(f'"entries" must be a list, got {type(entries).__name__}')
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries for order {n}, got {len(entries)}")
    values = [_entry_from_json(k, item) for k, item in enumerate(entries)]
    return tuple(tuple(values[r * n : (r + 1) * n]) for r in range(n))
