"""Constructors for the lattices the package works with.

Everything is produced as a :class:`~latquot.core.GramLattice`, i.e. a
Gram matrix of an explicit basis.  Lifted lattices (centred cubic,
code lifts) live in a rational ambient space but the chosen bases keep
all Gram entries in ``Z[1/4d^2]``, so exact arithmetic is cheap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .core import GramLattice, load_lattice
from .enumeration import _Counter, _minimum
from .errors import (
    CodeTooLight,
    DimensionMismatch,
    MinimumDrops,
    UnknownLattice,
)
from .linalg import _rref2, hnf_rows, identity_rows, matmul, transpose

if TYPE_CHECKING:
    from .codes import Code

__all__ = [
    "NamedLattice",
    "zn",
    "centred_cubic",
    "code_lift",
    "zd_lift",
    "named",
    "fixture_path",
    "fixture_inventory",
    "search_corpus",
]


def zn(n: int) -> GramLattice:
    """The cubic lattice Z^n (identity Gram matrix)."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    gram = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return GramLattice.from_rows(gram, label=f"Z{n}")


def centred_cubic(n: int) -> GramLattice:
    """The centred cubic lattice: Z^n extended by e = (e_1 + ... + e_n)/2.

    The basis is (e_1, ..., e_{n-1}, e), so the Gram matrix is the
    identity bordered by a column of halves with corner n/4, and the
    determinant is 1/4.  For n < 4 the centre vector would be shorter
    than the unit vectors, so those ranks are refused.
    """
    if n < 4:
        raise MinimumDrops(f"centre vector has norm {n}/4 < 1 for n = {n}")
    half = Fraction(1, 2)
    gram = [
        [Fraction(int(i == j)) for j in range(n - 1)] + [half] for i in range(n - 1)
    ]
    gram.append([half] * (n - 1) + [Fraction(n, 4)])
    return GramLattice.from_rows(gram, label=f"C{n}")


def code_lift(c: Code) -> GramLattice:
    """The lift of a binary code C: the lattice generated by Z^n and C/2.

    The basis consists of the unit vectors at the non-pivot columns of
    the reduced generator matrix, in ascending column order, followed by
    the halved pivot rows.  Its determinant is 4^-k.  Codes of minimum
    weight below 4 would lift to a lattice of minimum below 1 and are
    rejected.
    """
    from .codes import min_weight_support

    if c.d != 2:
        raise ValueError("code_lift expects a binary code")
    w, _, _ = min_weight_support(c)
    if w < 4:
        raise CodeTooLight(f"minimum weight {w} < 4 lifts below the unit sphere")
    pivots, rows = _rref2(c.masks())
    free = [j for j in range(c.n) if j not in pivots]
    m = len(free)
    size = m + len(rows)
    gram = [[Fraction(0)] * size for _ in range(size)]
    for a in range(m):
        gram[a][a] = Fraction(1)
        for i, r in enumerate(rows):
            gram[a][m + i] = gram[m + i][a] = Fraction(r >> free[a] & 1, 2)
    for i, r in enumerate(rows):
        for j, s in enumerate(rows):
            gram[m + i][m + j] = Fraction((r & s).bit_count(), 4)
    return GramLattice.from_rows(gram, label=f"lift [{c.n},{c.k}]")


def zd_lift(c: Code, base: GramLattice | None = None,
            budget: int | None = None) -> GramLattice:
    """Lift a code over Z/dZ: the lattice generated by the base and C/d.

    With no ``base`` the ambient lattice is Z^n.  A basis of the span of
    the base vectors and the coset vectors (a_1 e_1 + ... + a_n e_n)/d
    is extracted by Hermite reduction of the stacked integer matrix
    (d*I over the generator rows), scaled back by 1/d.  The construction
    is rejected if the minimum drops below the minimum of the base,
    which is checked by enumeration after the fact; the two minima
    spend one node budget, ``budget`` or ``node_budget()``.  A binary
    code with no base is lifted by ``code_lift``, which needs no
    enumeration.
    """
    if c.d == 2 and base is None:
        return code_lift(c)
    return _checked_lift(c, base, _Counter(budget))[0]


def _checked_lift(c: Code, base: GramLattice | None,
                  counter: _Counter) -> tuple[GramLattice, Fraction]:
    """``zd_lift`` by Hermite reduction, paid for from ``counter``, and the lift's minimum."""
    ambient = zn(c.n) if base is None else base
    if ambient.n != c.n:
        raise DimensionMismatch("base lattice rank does not match code length")
    stacked = [[c.d * x for x in row] for row in identity_rows(c.n)]
    stacked += [list(row) for row in c.gen]
    # the basis is H/d for the Hermite form H: its Gram matrix is H (scale G) H^T / (scale d^2)
    h = hnf_rows(stacked)
    g = matmul(matmul(h, ambient._form.gram), transpose(h))
    gram = [[Fraction(x, ambient._form.scale * c.d**2) for x in row] for row in g]
    lifted = GramLattice.from_rows(gram, label=f"lift [{c.n},{c.k}] mod {c.d}")
    floor, _ = _minimum(ambient, counter)
    got, _ = _minimum(lifted, counter)
    if got < floor:
        raise MinimumDrops(f"lift minimum {got} is below the base minimum {floor}")
    return lifted, got


@dataclass(frozen=True)
class NamedLattice:
    """A catalogue lattice: its canonical name, Gram matrix and a note."""

    name: str
    lattice: GramLattice
    note: str


def _an(n: int) -> GramLattice:
    """A_n in its dense form: diagonal 2, all off-diagonal entries 1."""
    gram = [[2 if i == j else 1 for j in range(n)] for i in range(n)]
    return GramLattice.from_rows(gram, label=f"A{n}")


def _cartan(n: int, edges: Sequence[tuple[int, int]], label: str) -> GramLattice:
    gram = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = -1
    return GramLattice.from_rows(gram, label=label)


def _dn(n: int) -> GramLattice:
    if n < 3:
        raise UnknownLattice(f"D{n} needs rank at least 3")
    edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    return _cartan(n, edges, f"D{n}")


def _e7() -> GramLattice:
    edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)]
    return _cartan(7, edges, "E7")


def _e8() -> GramLattice:
    edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]
    return _cartan(8, edges, "E8")


def _a5_cubed() -> GramLattice:
    """The index-3 superlattice of A_5 spanned by the glue vector.

    Built in the usual Z^6 model A_5 = {x : sum x_i = 0} with basis
    (g, a_2, ..., a_5) where a_i = e_i - e_{i+1} and the glue vector is
    g = (1,1,1,1,-2,-2)/3, an order-3 class with 3g = a_1 + 2a_2 + 3a_3
    + 4a_4 + 2a_5.
    """
    amb = [[Fraction(x, 3) for x in (1, 1, 1, 1, -2, -2)]]
    for i in range(1, 5):
        row = [Fraction(0)] * 6
        row[i] = Fraction(1)
        row[i + 1] = Fraction(-1)
        amb.append(row)
    gram = matmul(amb, transpose(amb))
    return GramLattice.from_rows(gram, label="A5^3")


def _an_squared(n: int) -> GramLattice:
    """The index-2 superlattice of A_n (n odd) spanned by the half-sum.

    In the dense A_n form with basis u_1, ..., u_n the vector
    h = (u_1 + ... + u_n)/2 satisfies h * u_i = (n+1)/2 and
    N(h) = n(n+1)/4, and for odd n the span (u_1, ..., u_{n-1}, h) is a
    lattice of determinant (n+1)/4.
    """
    if n < 3 or n % 2 == 0:
        raise UnknownLattice(f"A{n}^2 needs odd rank at least 3")
    gram = [
        [Fraction(1 + int(i == j)) for j in range(n - 1)] + [Fraction(n + 1, 2)]
        for i in range(n - 1)
    ]
    gram.append([Fraction(n + 1, 2)] * (n - 1) + [Fraction(n * (n + 1), 4)])
    return GramLattice.from_rows(gram, label=f"A{n}^2")


def _d6_plus() -> GramLattice:
    """The minimum-3 copy of D6+: frame of norm 3 vectors with mutual
    inner product 1, extended by e = (e_1 + ... + e_6)/2 of norm 12."""
    gram = [[Fraction(1 + 2 * int(i == j)) for j in range(5)] + [Fraction(4)] for i in range(5)]
    gram.append([Fraction(4)] * 5 + [Fraction(12)])
    return GramLattice.from_rows(gram, label="D6+")


_A73_ROWS = (
    (22, -6, 9, 9, 9, 9, 9),
    (-6, 18, 3, 3, 3, 3, 3),
    (9, 3, 18, 3, 3, 3, 3),
    (9, 3, 3, 18, 3, 3, 3),
    (9, 3, 3, 3, 18, 3, 3),
    (9, 3, 3, 3, 3, 18, 3),
    (9, 3, 3, 3, 3, 3, 18),
)

_A74_ROWS = (
    (9, 4, 4, 4, 4, 4, 4),
    (4, 8, 2, 2, 2, 0, 0),
    (4, 2, 8, 2, 2, 0, 0),
    (4, 2, 2, 8, 2, 0, 0),
    (4, 2, 2, 2, 8, 0, 0),
    (4, 0, 0, 0, 0, 8, 0),
    (4, 0, 0, 0, 0, 0, 8),
)


def named(name: str) -> NamedLattice:
    """Look up a catalogue lattice by name.

    Recognized names: ``An`` and ``Dn`` with a numeric rank (A5, D6),
    ``E7``, ``E8``, the glue constructions ``A5^3`` and ``An^2`` for odd
    n, ``D6+``, and the two dimension-7 matrices ``A73`` and ``A74``
    realizing cyclic quotients of order 3 and 4.
    """
    key = name.strip().upper().replace(" ", "").replace(",", "")
    if key == "A5^3":
        return NamedLattice("A5^3", _a5_cubed(), "glue superlattice of A5, index 3")
    m = re.fullmatch(r"A(\d+)\^2", key)
    if m:
        n = int(m.group(1))
        return NamedLattice(
            f"A{n}^2", _an_squared(n), "glue superlattice of An, index 2"
        )
    if key == "D6+":
        return NamedLattice("D6+", _d6_plus(), "minimum-3 copy, det 64, N(e) = 12")
    if key == "E7":
        return NamedLattice("E7", _e7(), "root lattice, det 2, 63 minimal pairs")
    if key == "E8":
        return NamedLattice("E8", _e8(), "root lattice, det 1, 120 minimal pairs")
    if key == "A73":
        return NamedLattice(
            "A73",
            GramLattice.from_rows(_A73_ROWS, label="A7,3"),
            "order-3 cyclic quotient with Hb/M = 22/18",
        )
    if key == "A74":
        return NamedLattice(
            "A74",
            GramLattice.from_rows(_A74_ROWS, label="A7,4"),
            "order-4 cyclic quotient with Hb/M = 9/8",
        )
    m = re.fullmatch(r"A(\d+)", key)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise UnknownLattice(name)
        return NamedLattice(f"A{n}", _an(n), "root lattice, det n+1")
    m = re.fullmatch(r"D(\d+)", key)
    if m:
        return NamedLattice(f"D{int(m.group(1))}", _dn(int(m.group(1))), "root lattice, det 4")
    raise UnknownLattice(name)


def fixture_path(name: str) -> Path:
    """Path to a bundled .lat fixture file (no extension in ``name``)."""
    return Path(__file__).with_name("fixtures") / f"{name}.lat"


def fixture_inventory() -> dict[str, GramLattice]:
    """Every bundled fixture, keyed by file stem, built from scratch.

    The test suite checks that the shipped files match these
    constructors exactly.
    """
    from .codes import c8, c9, c10, c11, g12

    inv: dict[str, GramLattice] = {
        "zn4": zn(4),
        "c4": centred_cubic(4),
        "c5": centred_cubic(5),
        "c6": centred_cubic(6),
        "c7": centred_cubic(7),
        "c8": centred_cubic(8),
        "c9": centred_cubic(9),
        "liftc8": code_lift(c8()),
        "liftc9": code_lift(c9()),
        "liftc10": code_lift(c10()),
        "liftc11": code_lift(c11()),
        "liftc12": code_lift(g12()),
    }
    for name in ("A5", "A7", "D4", "D6", "E7", "E8", "A5^3", "A7^2", "D6+", "A73", "A74"):
        stem = name.lower().replace("^", "").replace("+", "plus")
        inv[stem] = named(name).lattice
    return inv


def search_corpus(n: int) -> list[GramLattice]:
    """Well rounded base lattices of rank n, for the random search.

    Draws from the cubic, centred cubic and root families plus the code
    lifts, all of them well rounded, so that perturbations are measured
    against bases that are hard to improve.  The lifts of ranks 8, 9 and
    10 are read from the bundled fixtures ``liftc8``, ``liftc9`` and
    ``liftc10``, which the test suite pins equal to ``code_lift`` of the
    codes they lift, so building the corpus imports no code module.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    candidates = [zn(n), _an(n)]
    if n >= 3:
        candidates.append(_dn(n))
    if n >= 4:
        candidates.append(centred_cubic(n))
    if n == 7:
        candidates.append(named("E7").lattice)
    if n == 8:
        candidates.append(named("E8").lattice)
    if n in (8, 9, 10):
        candidates.append(load_lattice(fixture_path(f"liftc{n}")))
    return candidates
