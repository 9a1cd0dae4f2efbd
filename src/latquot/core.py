"""Exact rational model of a Euclidean lattice given by a Gram matrix.

A lattice is described purely by the Gram matrix of one of its bases; no
embedding coordinates are kept.  Lattice vectors are integer coordinate
tuples with respect to that implicit basis, so norms, inner products and
determinants computed here are exact rationals.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric, ParseError

Rational = Fraction
LatVec = tuple[int, ...]
Matrix = tuple[tuple[Fraction, ...], ...]

#: n-th power of the Hermite constant for dimensions 1..8, exact.
HERMITE_POWER = {
    1: Fraction(1),
    2: Fraction(4, 3),
    3: Fraction(2),
    4: Fraction(4),
    5: Fraction(8),
    6: Fraction(64, 3),
    7: Fraction(64),
    8: Fraction(256),
}


#: ``Fraction(x)`` for a Gram entry; equal entries share one, as a Fraction is immutable.
_fraction = functools.lru_cache(maxsize=1024)(Fraction)


def _exact(x) -> Fraction:
    """``x`` as a Fraction, refusing a float: it holds a binary approximation, not the value meant."""
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float; give an int, a Fraction or a string")
    return _fraction(x)


class IntegralForm(NamedTuple):
    """The Gram matrix cleared of denominators, with its fraction-free pivots.

    ``gram`` is ``scale * G`` for the least positive integer ``scale``
    making it integral; ``minors`` and ``lam`` are its leading minors and
    cleared Gram-Schmidt coefficients as ``_leading_minors`` defines them.
    """

    scale: int
    gram: tuple[tuple[int, ...], ...]
    minors: tuple[int, ...]
    lam: tuple[tuple[int, ...], ...]


def validate(matrix: Sequence[Sequence[Fraction | int]]) -> IntegralForm:
    """Check that ``matrix`` is a symmetric positive definite square matrix.

    Returns its integral form, whose last minor over ``scale**n`` is the
    determinant.  Raises ``NotSymmetric`` or ``NotPositiveDefinite`` with
    the offending position or leading minor as witness.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise DimensionMismatch("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise NotSymmetric(i, j)
    scale, a = _integral(matrix)
    minors, lam = _leading_minors(a)
    return IntegralForm(scale, tuple(map(tuple, a)), tuple(minors), tuple(map(tuple, lam)))


def _integral(gram) -> tuple[int, list[list[int]]]:
    """The least positive ``scale`` making ``scale * gram`` integral, and that matrix."""
    if all(type(x) is int for row in gram for x in row):
        return 1, [list(row) for row in gram]
    scale = 1
    for row in gram:
        for x in row:
            scale = math.lcm(scale, x.denominator)
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in gram]


def _pivot_row(products, minors, lam) -> list[int]:
    """One fraction-free Gram-Schmidt row (Cohen, GTM 138, Alg. 2.6.7).

    The vectors before the new one have integral Gram matrix with
    leading minors ``minors`` (``minors[0] == 1``, all positive) and
    coefficient rows ``lam``.  ``products`` holds the new vector's inner
    products with each of them, then its own norm.  Returns the new
    coefficients ``lam[k][:k]`` followed by the next leading minor,
    which is positive exactly when the new vector is independent of the
    others.  Costs O(k^2) integer operations and no Gram matrix.
    """
    k = len(products) - 1
    row: list[int] = []
    for j, u in enumerate(products):
        other = lam[j] if j < k else row
        for i in range(j):
            u = (minors[i + 1] * u - row[i] * other[i]) // minors[i]
        row.append(u)
    return row


def _leading_minors(a) -> tuple[list[int], list[list[int]]]:
    """Leading minors ``d`` (``d[0] == 1``) and ``lam[i][j] = d[j+1] * mu[i][j]``, j < i.

    ``a`` is an integral Gram matrix and mu its Gram-Schmidt coefficients.
    Raises ``NotPositiveDefinite`` at the first minor that is not positive.
    """
    minors, lam = [1], []
    for i in range(len(a)):
        row = _pivot_row(a[i][:i + 1], minors, lam)
        if row[-1] <= 0:
            raise NotPositiveDefinite(i + 1)
        minors.append(row.pop())
        lam.append(row)
    return minors, lam


@dataclass(frozen=True)
class GramLattice:
    """A lattice of rank ``n`` described by the Gram matrix of a basis."""

    n: int
    gram: Matrix
    label: str | None = None
    # The integral form of ``validate``, computed on construction.
    _form: IntegralForm = field(init=False, repr=False, compare=False, hash=False)
    # What latquot.enumeration keeps for the lattice, made on first use:
    # the reduction and, once listed, the minima ball.  A cache, not
    # part of the lattice's value; only that module reads it.
    _context: object = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        rows = self.gram
        if not rows:
            raise DimensionMismatch("rank must be at least 1")
        # integer rows are checked and cleared as ints, with no Fraction
        # arithmetic, and need no check for floats
        ints = all(type(x) is int for row in rows for x in row)
        convert = _fraction if ints else _exact
        gram = tuple(tuple(x if type(x) is Fraction else convert(x) for x in row)
                     for row in rows)
        if self.n != len(gram):
            raise DimensionMismatch("declared rank does not match matrix size")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_form", validate(rows if ints else gram))

    @classmethod
    def from_rows(cls, rows, label: str | None = None) -> "GramLattice":
        return cls(len(rows), rows, label)


def _bilinear(gram: Matrix, u: Sequence[Fraction | int], v: Sequence[Fraction | int]) -> Fraction:
    """``u * gram * v^T``, skipping zero coordinates."""
    total = Fraction(0)
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = gram[i]
        acc = Fraction(0)
        for j, vj in enumerate(v):
            if vj:
                acc += row[j] * vj
        total += ui * acc
    return total


def qform(gram: Matrix, v: Sequence[Fraction | int]) -> Fraction:
    """Evaluate the quadratic form of ``gram`` at a rational vector."""
    if len(v) != len(gram):
        raise DimensionMismatch("vector length does not match matrix size")
    return _bilinear(gram, v, v)


def norm(L: GramLattice, v: Sequence[int]) -> Fraction:
    """Squared length of the lattice vector with coordinates ``v``."""
    return qform(L.gram, v)


def inner(L: GramLattice, u: Sequence[int], v: Sequence[int]) -> Fraction:
    """Inner product of two lattice vectors given by coordinates."""
    if len(u) != L.n or len(v) != L.n:
        raise DimensionMismatch("vector length does not match lattice rank")
    return _bilinear(L.gram, u, v)


def determinant(L: GramLattice) -> Fraction:
    """Determinant of the Gram matrix (square of the covolume)."""
    return Fraction(L._form.minors[-1], L._form.scale**L.n)


@dataclass(frozen=True)
class InvariantReport:
    """Basic invariants of a lattice: minimum, determinant, Hermite power, kissing."""

    min: Fraction
    det: Fraction
    gamma_n_power: Fraction
    s: int

    def __post_init__(self):
        if self.min <= 0 or self.det <= 0 or self.s < 1:
            raise ValueError("invariants out of range")


def parse_rational(token: str) -> Fraction:
    """The exact value of an integer, "p/q" or decimal token."""
    # 10^e has e + 1 digits, so an exponent past the interpreter's limit
    # on integer digits is refused, as an integer of that many digits is
    _, e, exponent = token.lower().partition("e")
    limit = sys.get_int_max_str_digits()
    try:
        if e and limit and abs(int(exponent)) > limit:
            raise ValueError(f"exponent past {limit} digits")
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {token!r}") from exc


def format_rational(x: Fraction) -> str:
    try:
        return str(Fraction(x))
    except ValueError:
        # past the interpreter's limit on integer digits, which does not
        # bind a Decimal made from an integer
        from decimal import Decimal
        p, q = (str(Decimal(k)) for k in Fraction(x).as_integer_ratio())
        return p if q == "1" else f"{p}/{q}"


def parse_lattice_text(text: str) -> GramLattice:
    """Parse the plain text lattice format.

    Line 1 holds the rank n, the next n lines hold n whitespace-separated
    rationals each ("p/q" or integer), and an optional final line starting
    with "#" carries a label.
    """
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx == len(lines):
        raise ParseError(1, "empty input")
    try:
        n = int(lines[idx].strip())
    except ValueError:
        raise ParseError(idx + 1, f"expected rank, got {lines[idx].strip()!r}")
    if n < 1:
        raise ParseError(idx + 1, "rank must be at least 1")
    rows = []
    row_line = idx + 1
    while len(rows) < n:
        if row_line >= len(lines):
            raise ParseError(len(lines), f"expected {n} matrix rows, got {len(rows)}")
        line = lines[row_line].strip()
        if line:
            toks = line.split()
            if len(toks) != n:
                raise ParseError(row_line + 1, f"expected {n} entries, got {len(toks)}")
            try:
                rows.append(tuple(parse_rational(t) for t in toks))
            except ValueError as exc:
                raise ParseError(row_line + 1, str(exc))
        row_line += 1
    label = None
    for extra in range(row_line, len(lines)):
        line = lines[extra].strip()
        if not line:
            continue
        if line.startswith("#"):
            label = line[1:].strip() or None
        else:
            raise ParseError(extra + 1, f"unexpected trailing content {line!r}")
    return GramLattice(n, tuple(rows), label)


def parse_lattice_json(text: str) -> GramLattice:
    try:
        # a number with a fraction or an exponent is read from its text, not through a float
        data = json.loads(text, parse_float=parse_rational)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg)
    except ValueError as exc:
        raise ParseError(1, str(exc))
    if not isinstance(data, dict) or "gram" not in data:
        raise ParseError(1, "expected an object with a 'gram' field")
    gram, label = data["gram"], data.get("label")
    if not isinstance(gram, list) or not all(isinstance(row, list) for row in gram):
        raise ParseError(1, "'gram' must be an array of arrays")
    if label is not None and not isinstance(label, str):
        raise ParseError(1, "'label' must be a string or null")
    n = data.get("n", len(gram))
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParseError(1, "'n' must be an integer")
    try:
        rows = tuple(tuple(x if isinstance(x, Fraction) else parse_rational(str(x)) for x in r) for r in gram)
    except (ValueError, TypeError) as exc:
        raise ParseError(1, f"bad gram entry: {exc}")
    if not rows:
        raise ParseError(1, "rank must be at least 1")
    return GramLattice(n, rows, label)


def load_lattice(path) -> GramLattice:
    """Load a lattice from a text or JSON file, sniffing the format."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_lattice_json(text)
    return parse_lattice_text(text)
