"""Constructors for the lattices the package works with.

Everything is produced as a :class:`~latquot.core.GramLattice`, i.e. a
Gram matrix of an explicit basis, and so is each catalogue lattice that
``named`` looks up in one table, ``_CATALOGUE``, one line per name or
rank family.  The centred cubic lattices, the code
lifts and the glue superlattices of the catalogue have one shape, a base
lattice extended by glue vectors r/d, and ``_glue`` builds them all.
Its basis depends only on the rows r.  If each row has a unit pivot, a
column where it is 1 and every other row is 0, the basis is the base
vectors at the other columns, in ascending order, then each row over d,
as given.  Otherwise it is the Hermite basis of d*I over the rows,
scaled by 1/d.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .core import GramLattice, _integral, load_lattice
from .enumeration import _Counter, _minimum
from .errors import (
    CodeTooLight,
    DimensionMismatch,
    MinimumDrops,
    UnknownLattice,
)
from .linalg import _rref2, hnf_rows, identity_rows

if TYPE_CHECKING:
    from .codes import Code

__all__ = [
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
    return GramLattice.from_rows(identity_rows(n), label=f"Z{n}")


def _glue(base, rows: Sequence[Sequence[int]], d: int, label: str) -> GramLattice:
    """The base with Gram matrix G = ``base`` glued to r/d for each integer row r.

    The basis, by the module's rule, is H/d for H the rows d*e_j off the
    pivots and then the rows, or the Hermite form; the Gram matrix
    H (scale G) H^T / (scale d^2) is formed in integers.
    """
    n, rows = len(base), [list(r) for r in rows]
    support = [sum(map(bool, col)) for col in zip(*rows)]
    pivots = [next((j for j, x in enumerate(r) if x == 1 and support[j] == 1), None) for r in rows]
    stacked = [[d * x for x in row] for row in identity_rows(n)]
    if None in pivots:
        h = hnf_rows(stacked + rows)
    else:
        h = [row for j, row in enumerate(stacked) if j not in pivots] + rows
    scale, g = _integral(base)
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in h]

    def times(s, m):
        """The row with nonzero entries ``s`` times the matrix ``m``."""
        (j, x), *rest = s
        out = [x * y for y in m[j]]
        for j, x in rest:
            out = [a + x * y for a, y in zip(out, m[j])]
        return out
    gh = list(zip(*(times(s, g) for s in sparse)))  # G H^T, as G is symmetric
    gram = [times(s, gh) for s in sparse]
    # one Fraction for each distinct entry
    fractions = {v: Fraction(v, scale * d * d) for v in set().union(*gram)}
    return GramLattice.from_rows([[fractions[v] for v in row] for row in gram], label=label)


def centred_cubic(n: int) -> GramLattice:
    """The centred cubic lattice: Z^n extended by e = (e_1 + ... + e_n)/2.

    The basis is (e_2, ..., e_n, e), so the Gram matrix is the identity
    bordered by a column of halves with corner n/4, and the determinant
    is 1/4.  For n < 4 the centre vector would be shorter than the unit
    vectors, so those ranks are refused.
    """
    if n < 4:
        raise MinimumDrops(f"centre vector has norm {n}/4 < 1 for n = {n}")
    return _glue(identity_rows(n), [[1] * n], 2, f"C{n}")


def _code_rows(c: Code) -> Sequence[Sequence[int]]:
    """The rows a lift of ``c`` glues: a binary code's reduced rows, else its generators."""
    if c.d != 2:
        return c.gen
    return [[m >> j & 1 for j in range(c.n)] for m in _rref2(c.masks())]


def code_lift(c: Code) -> GramLattice:
    """The lift of a binary code C: the lattice generated by Z^n and C/2.

    The glue rows are the reduced generator matrix over GF(2), whose
    pivots are unit pivots, so the basis is the unit vectors at the
    non-pivot columns, in ascending order, then the halved rows.  Its
    determinant is 4^-k.  Codes of minimum weight below 4 would lift to
    a lattice of minimum below 1 and are rejected.
    """
    from .codes import min_weight_support

    if c.d != 2:
        raise ValueError("code_lift expects a binary code")
    w, _, _ = min_weight_support(c)
    if w < 4:
        raise CodeTooLight(f"minimum weight {w} < 4 lifts below the unit sphere")
    return _glue(identity_rows(c.n), _code_rows(c), 2, f"lift [{c.n},{c.k}]")


def zd_lift(c: Code, base: GramLattice | None = None,
            budget: int | None = None) -> GramLattice:
    """Lift a code over Z/dZ: the lattice generated by the base and C/d.

    With no ``base`` the ambient lattice is Z^n.  A binary code glues its
    reduced echelon rows, as ``code_lift`` does, and any other code its
    generator rows.  With unit pivots the basis is the base vectors off
    the pivots, then the glue vectors; otherwise it is the Hermite basis
    (see the module docstring).  The construction is rejected if the
    minimum drops below the minimum of the base, which is checked by
    enumeration after the fact; the two minima spend one node budget,
    ``budget``, 10^9 nodes by default.  A binary code with no base is
    lifted by ``code_lift``, which needs no enumeration.
    """
    if c.d == 2 and base is None:
        return code_lift(c)
    return _checked_lift(c, base, _Counter(budget))[0]


def _checked_lift(c: Code, base: GramLattice | None,
                  counter: _Counter) -> tuple[GramLattice, Fraction]:
    """``zd_lift`` with its minima paid for from ``counter``, and the lift's minimum."""
    ambient = zn(c.n) if base is None else base
    if ambient.n != c.n:
        raise DimensionMismatch("base lattice rank does not match code length")
    lifted = _glue(ambient.gram, _code_rows(c), c.d, f"lift [{c.n},{c.k}] mod {c.d}")
    floor, _ = _minimum(ambient, counter)
    got, _ = _minimum(lifted, counter)
    if got < floor:
        raise MinimumDrops(f"lift minimum {got} is below the base minimum {floor}")
    return lifted, got


def _an(n: int) -> GramLattice:
    """A_n in its dense form: diagonal 2, all off-diagonal entries 1."""
    if n < 1:
        raise UnknownLattice(f"A{n} needs rank at least 1")
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


def _en(n: int) -> GramLattice:
    """E_n from its Cartan matrix in Bourbaki's numbering: the chain 1-3-4-...-n and 2-4."""
    edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    return _cartan(n, edges, f"E{n}")


def _a5_cubed() -> GramLattice:
    """The index-3 superlattice of A_5 spanned by the glue vector.

    Over the simple roots a_1, ..., a_5 the glue vector is
    g = (a_1 + 2a_2 + 3a_3 + 4a_4 + 2a_5)/3, an order-3 class; the basis
    is (g, a_2, ..., a_5).
    """
    cartan = _cartan(5, [(i, i + 1) for i in range(4)], "A5").gram
    glued = _glue(cartan, [[1, 2, 3, 4, 2]], 3, "A5^3")
    order = [4, 0, 1, 2, 3]
    return GramLattice.from_rows([[glued.gram[i][j] for j in order] for i in order], glued.label)


def _an_squared(n: int) -> GramLattice:
    """The index-2 superlattice of A_n (n odd) spanned by the half-sum.

    In the dense A_n form with basis u_1, ..., u_n the vector
    h = (u_1 + ... + u_n)/2 satisfies h * u_i = (n+1)/2 and
    N(h) = n(n+1)/4, and for odd n the span (u_2, ..., u_n, h) is a
    lattice of determinant (n+1)/4.
    """
    if n < 3 or n % 2 == 0:
        raise UnknownLattice(f"A{n}^2 needs odd rank at least 3")
    return _glue(_an(n).gram, [[1] * n], 2, f"A{n}^2")


def _d6_plus() -> GramLattice:
    """The minimum-3 copy of D6+: frame of norm 3 vectors with mutual
    inner product 1, extended by e = (e_1 + ... + e_6)/2 of norm 12."""
    frame = [[1 + 2 * int(i == j) for j in range(6)] for i in range(6)]
    return _glue(frame, [[1] * 6], 2, "D6+")


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

# The catalogue: a pattern for each name and its constructor, called
# with the rank a family's pattern captures.  The patterns are tried in
# this order, so A73 is the frame lattice and not A_73.  A family's
# constructor refuses the ranks it lacks.
_CATALOGUE = (
    (r"A5\^3", _a5_cubed),
    (r"D6\+", _d6_plus),
    (r"E([678])", _en),
    (r"A73", lambda: GramLattice.from_rows(_A73_ROWS, label="A7,3")),
    (r"A74", lambda: GramLattice.from_rows(_A74_ROWS, label="A7,4")),
    (r"A(\d+)", _an),
    (r"A(\d+)\^2", _an_squared),
    (r"D(\d+)", _dn),
)


def named(name: str) -> GramLattice:
    """The catalogue lattice of a name, read regardless of case, spaces and commas.

    Recognized names: ``An`` and ``Dn`` with a numeric rank (A5, D6),
    ``E6``, ``E7`` and ``E8``, the glue constructions ``A5^3`` and
    ``An^2`` for odd n, ``D6+``, and the two dimension-7 matrices
    ``A73`` and ``A74``, labelled ``A7,3`` and ``A7,4``, realizing
    cyclic quotients of order 3 and 4.  Any other name, or a rank its
    family lacks, raises ``UnknownLattice``.
    """
    key = name.strip().upper().replace(" ", "").replace(",", "")
    for pattern, build in _CATALOGUE:
        m = re.fullmatch(pattern, key)
        if m:
            return build(*map(int, m.groups()))
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

    inv: dict[str, GramLattice] = {"zn4": zn(4)}
    inv.update({f"c{n}": centred_cubic(n) for n in range(4, 10)})
    inv.update({f"liftc{c.n}": code_lift(c) for c in (c8(), c9(), c10(), c11(), g12())})
    for name in ("A5", "A7", "D4", "D6", "E7", "E8", "A5^3", "A7^2", "D6+", "A73", "A74"):
        stem = name.lower().replace("^", "").replace("+", "plus")
        inv[stem] = named(name)
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
        candidates.append(named("E7"))
    if n == 8:
        candidates.append(named("E8"))
    if n in (8, 9, 10):
        candidates.append(load_lattice(fixture_path(f"liftc{n}")))
    return candidates
