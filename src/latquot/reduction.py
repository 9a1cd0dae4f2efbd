"""LLL reduction carried out on Gram matrices in exact integer arithmetic.

The lattice never appears through an embedding; every step works on the
integral form that construction computed (the Gram matrix cleared of
denominators, its leading minors and the Gram-Schmidt coefficients they
clear; Cohen, GTM 138, Alg. 2.6.7) and maintains an integer change of
basis.  The reduced lattice receives the final form instead of being
validated again.  With the reduction parameter close to 1 the diagonal
of the reduced Gram matrix gives useful upper bounds on the successive
minima, and the product of its entries bounds the minimal basis norm
product from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import GramLattice, IntegralForm

#: Default reduction parameter.  Anything in (1/4, 1) works; a value
#: close to 1 gives the strongest bases at a modest cost in swaps.
DELTA = Fraction(99, 100)


@dataclass(frozen=True)
class ReducedBasis:
    """Outcome of a reduction: the reduced lattice and the basis change.

    ``transform`` holds the coordinate rows of the reduced basis written
    in the original basis, so ``gram.gram == U * G * U^T`` where ``U``
    stacks the rows.  The reduced lattice carries its integral form, with
    the scale of the original's, as U is unimodular.
    """

    gram: GramLattice
    transform: tuple[tuple[int, ...], ...]


def lll(lattice: GramLattice, delta: Fraction = DELTA) -> ReducedBasis:
    """Reduce the standard basis of the lattice, returning Gram and transform.

    The decisions are the textbook ones, taken in integers: with
    ``mu = lam / d``, the nearest integer to mu is ``(2 lam + d) // (2 d)``,
    and for ``delta = p / q`` the Lovasz test reads
    ``q (d[k+1] d[k-1] + lam[k][k-1]^2) >= p d[k]^2``.
    """
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise ValueError("delta must lie strictly between 1/4 and 1")
    p, q = delta.numerator, delta.denominator
    n = lattice.n
    scale, g, d, lam = lattice._form
    g, d, lam = [list(row) for row in g], list(d), [list(row) for row in lam]
    r = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            m = (2 * lk[j] + dj) // (2 * dj)
            if m:
                # basis vector k -= m * basis vector j, in the transform,
                # the Gram rows and columns, and the coefficients
                r[k] = [x - m * y for x, y in zip(r[k], r[j])]
                g[k] = [x - m * y for x, y in zip(g[k], g[j])]
                for row in g:
                    row[k] -= m * row[j]
                lk[:j] = [x - m * y for x, y in zip(lk, lam[j])]
                lk[j] -= m * dj
        t = lk[k - 1]
        if q * (d[k + 1] * d[k - 1] + t * t) >= p * d[k] * d[k]:
            k += 1
            continue
        # exchange basis vectors k-1 and k (Alg. 2.6.7, step SWAPI);
        # every division below is exact
        r[k], r[k - 1] = r[k - 1], r[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        lam[k - 1], lam[k] = lk[:k - 1], lam[k - 1] + [t]
        big = (d[k - 1] * d[k + 1] + t * t) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            s = li[k]
            li[k] = (d[k + 1] * li[k - 1] - t * s) // d[k]
            li[k - 1] = (big * s + t * li[k]) // d[k + 1]
        d[k] = big
        k = max(k - 1, 1)

    gram = tuple(tuple(Fraction(x, scale) for x in row) for row in g)
    form = IntegralForm(scale, tuple(map(tuple, g)), tuple(d), tuple(map(tuple, lam)))
    label = f"{lattice.label} (reduced)" if lattice.label else ""
    return ReducedBasis(
        gram=GramLattice(n=n, gram=gram, label=label, _form=form),
        transform=tuple(tuple(row) for row in r),
    )
