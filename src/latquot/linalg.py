"""Exact matrix helpers over Q, Z and GF(2); GF(2) rows are bit masks."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence


def identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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


def _smith(rows: list[list[int]], want_transforms: bool):
    """Diagonalize an integer matrix by unimodular row and column operations."""
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    u = identity_rows(nrows) if want_transforms else None
    v = identity_rows(ncols) if want_transforms else None

    def row_op(i, j, f):
        # row i -= f * row j
        a[i] = [x - f * y for x, y in zip(a[i], a[j])]
        if u is not None:
            u[i] = [x - f * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, f):
        # col i -= f * col j
        for r in a:
            r[i] -= f * r[j]
        if v is not None:
            for r in v:
                r[i] -= f * r[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        if v is not None:
            for r in v:
                r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(nrows, ncols):
        # find a pivot of smallest absolute value in the remaining block
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        row_swap(t, i)
                    dirty = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        col_swap(t, j)
                    dirty = True
            if not dirty:
                break
        # make sure the pivot divides the rest of the block
        p = a[t][t]
        culprit = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % p:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            row_op(t, culprit, -1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            if u is not None:
                u[t] = [-x for x in u[t]]
        t += 1
    diag = [a[i][i] for i in range(min(nrows, ncols)) if a[i][i]]
    return diag, u, v


def smith_invariants(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero invariant factors of an integer matrix, in divisibility order."""
    diag, _, _ = _smith([list(r) for r in rows], want_transforms=False)
    return tuple(diag)


def smith_with_transforms(rows: Sequence[Sequence[int]]):
    """Invariant factors together with unimodular U, V such that U*A*V is diagonal."""
    diag, u, v = _smith([list(r) for r in rows], want_transforms=True)
    return tuple(diag), u, v


def is_primitive(rows: Sequence[Sequence[int]]) -> bool:
    """Whether the rows span a primitive (saturated) sublattice of Z^n.

    Equivalent to all invariant factors being 1; in particular the rows
    must be independent.
    """
    inv = smith_invariants(rows)
    return len(inv) == len(rows) and all(d == 1 for d in inv)


def hnf_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Hermite normal form basis of the row span of an integer matrix.

    Returns the nonzero rows, upper triangular along their pivot
    columns, pivots positive, entries above each pivot reduced into
    ``[0, pivot)``.  The result is a canonical basis of the subgroup of
    Z^n generated by the input rows.
    """
    work = [list(r) for r in rows]
    if not work:
        return []
    n = len(work[0])
    top = 0
    for col in range(n):
        while True:
            live = [i for i in range(top, len(work)) if work[i][col]]
            if len(live) <= 1:
                break
            head = min(live, key=lambda i: abs(work[i][col]))
            for i in live:
                if i == head:
                    continue
                q = work[i][col] // work[head][col]
                work[i] = [a - q * b for a, b in zip(work[i], work[head])]
        if not live:
            continue
        work[top], work[live[0]] = work[live[0]], work[top]
        if work[top][col] < 0:
            work[top] = [-a for a in work[top]]
        for i in range(top):
            q = work[i][col] // work[top][col]
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[top])]
        top += 1
    return work[:top]


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


def _insert(rows: dict[int, list[int]], v: Sequence[int]) -> bool:
    """Add one integer row to an echelon form over Q; whether the rank rose.

    The integer counterpart of ``_insert2``: ``rows`` maps the pivot
    column of each row to the row, and each row is zero at the pivots of
    the rows inserted before it.  So reducing ``v`` against the rows in
    that order, without fractions, clears every pivot, and a nonzero
    remainder, divided by its content, becomes a row with its first
    nonzero column as pivot.
    """
    for col, row in rows.items():
        x = v[col]
        if x:
            v = [row[col] * a - x * b for a, b in zip(v, row)]
    g = gcd(*v)
    if not g:
        return False
    rows[next(i for i, x in enumerate(v) if x)] = [x // g for x in v]
    return True


def _rref2(masks) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over GF(2) of rows given as bit masks.

    Returns the pivot columns in ascending order and the nonzero reduced
    rows, the row with pivot ``pivots[i]`` at position i; the number of
    pivots is the rank.
    """
    rows: dict[int, int] = {}
    for mask in masks:
        _insert2(rows, mask)
    pivots = sorted(rows)
    return [p.bit_length() - 1 for p in pivots], [rows[p] for p in pivots]
