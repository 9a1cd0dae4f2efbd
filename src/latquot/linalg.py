"""Exact matrix helpers over Q, Z and GF(2); GF(2) rows are bit masks.

Each ring has one elimination: ``_insert`` keeps the annihilator of a
span over Q a vector at a time, ``_hermite`` the Hermite normal form
over Z, on which ``hnf_rows``, ``det_int`` and the Smith form stand, and
``_insert2`` a reduced echelon form over GF(2), on which ``_greedy2``,
the one greedy walk over a GF(2) matroid, finds the parity bound of
``quality`` and the code bound of ``codes``.  The Smith form yields the
invariant factors alone; no transform is kept.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from operator import mul
from typing import Sequence


def identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def det_rational(rows) -> Fraction:
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if m[i][k]:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return det


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _hermite(work: list[list[int]]) -> tuple[int, int]:
    """Bring the rows to the Hermite normal form of ``hnf_rows``, in place.

    Returns the rank r, the number of nonzero rows, which come first, and
    det U = +-1 for the moves U, each row swap and negation flipping it.
    """
    top, sign = 0, 1
    for col in range(len(work[0]) if work else 0):
        while True:
            live = [i for i in range(top, len(work)) if work[i][col]]
            if len(live) <= 1:
                break
            head = min(live, key=lambda i: abs(work[i][col]))
            for i in live:
                if i != head:
                    q = work[i][col] // work[head][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[head])]
        if not live:
            continue
        if live[0] != top:
            work[top], work[live[0]] = work[live[0]], work[top]
            sign = -sign
        if work[top][col] < 0:
            work[top] = [-a for a in work[top]]
            sign = -sign
        for i in range(top):
            q = work[i][col] // work[top][col]
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[top])]
        top += 1
    return top, sign


def hnf_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Hermite normal form basis of the row span of an integer matrix.

    Returns the nonzero rows, upper triangular along their pivot
    columns, pivots positive, entries above each pivot reduced into
    ``[0, pivot)``.  The result is a canonical basis of the subgroup of
    Z^n generated by the input rows.
    """
    work = [list(r) for r in rows]
    rank, _ = _hermite(work)
    return work[:rank]


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: det U times the product of the pivots of H = U·A."""
    work = [list(r) for r in rows]
    rank, sign = _hermite(work)
    return sign * prod(work[i][i] for i in range(rank)) if rank == len(work) else 0


def smith_invariants(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero invariant factors of an integer matrix, in divisibility order.

    Row and column Hermite forms alternate until the matrix is diagonal
    (Kannan and Bachem, SIAM J. Comput. 8, 1979), then each pair of
    diagonal entries becomes its gcd and lcm.
    """
    m = [list(r) for r in rows]
    while True:
        rank, _ = _hermite(m)
        if not any(any(row[i + 1:]) for i, row in enumerate(m)):
            break
        m = transpose(m)
    d = [m[i][i] for i in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(d)


def is_primitive(rows: Sequence[Sequence[int]]) -> bool:
    """Whether the rows span a primitive (saturated) sublattice of Z^n.

    Equivalent to all invariant factors being 1; in particular the rows
    must be independent.
    """
    inv = smith_invariants(rows)
    return len(inv) == len(rows) and all(d == 1 for d in inv)


def _insert2(rows: dict[int, int], mask: int) -> bool:
    """Add one row to a reduced echelon form over GF(2); whether the rank rose.

    ``rows`` maps the pivot bit of each reduced row, its lowest set bit,
    to the row, and no row has a bit at another row's pivot.  The mask
    is reduced against every row; a nonzero remainder becomes a row with
    its lowest bit as pivot, and that bit is cleared from the others.
    """
    for pivot, row in rows.items():
        if mask & pivot:
            mask ^= row
    if not mask:
        return False
    low = mask & -mask
    for pivot, row in rows.items():
        if row & low:
            rows[pivot] = row ^ mask
    rows[low] = mask
    return True


def _greedy2(pairs, rank: int) -> int:
    """The least product of values over the bases of the span of the masks.

    ``pairs`` are (value, mask) in increasing value.  The bases form a
    matroid, so the greedy walk finds that product: it multiplies the
    values whose mask raises the GF(2) rank, and stops at ``rank``.
    """
    rows: dict[int, int] = {}
    product = 1
    for value, mask in pairs:
        if _insert2(rows, mask):
            product *= value
            if len(rows) == rank:
                break
    return product


def _insert(rows: list[list[int]], v: Sequence[int]) -> bool:
    """Add one integer vector to a span over Q; whether the rank rose.

    ``rows`` is the span's annihilator: integer rows orthogonal, in
    coordinates, to every vector inserted so far, which start as
    ``identity_rows(n)``, so the rank is n minus their number.  ``v`` is
    in the span exactly when every row is orthogonal to it, which costs a
    dot product a row and builds no list.  Otherwise the first row c with
    c.v != 0 leaves, and each later row r with r.v != 0 becomes
    (c.v) r - (r.v) c, divided by its content: the rows left span, over
    Q, the vectors orthogonal to the old span and to ``v``.
    """
    for i, c in enumerate(rows):
        cv = sum(map(mul, c, v))
        if cv:
            break
    else:
        return False
    del rows[i]
    for j in range(i, len(rows)):
        r = rows[j]
        rv = sum(map(mul, r, v))
        if rv:
            r = [cv * a - rv * b for a, b in zip(r, c)]
            g = gcd(*r)
            rows[j] = [x // g for x in r] if g > 1 else r
    return True


def _rref2(masks) -> list[int]:
    """Reduced row echelon form over GF(2) of rows given as bit masks.

    Returns the nonzero reduced rows in ascending order of their pivots,
    each row's pivot being its lowest set bit; their number is the rank.
    """
    rows: dict[int, int] = {}
    for mask in masks:
        _insert2(rows, mask)
    return [rows[p] for p in sorted(rows)]
