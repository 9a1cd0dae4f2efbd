"""LLL reduction carried out on Gram matrices in exact integer arithmetic.

The lattice never appears through an embedding; every step works on the
integral form that construction computed (the Gram matrix cleared of
denominators, its leading minors and the Gram-Schmidt coefficients they
clear; Cohen, GTM 138, Alg. 2.6.7) and maintains an integer change of
basis.  The decisions read only the minors and the coefficients, so only
they and the transform are kept up to date.  The diagonal of the reduced
Gram matrix is read off the final pivots; the reduced Gram matrix itself
is never built, as enumeration reads only the pivots.  The reduction
parameter is fixed at delta = 99/100; that close to 1 the diagonal gives
useful upper bounds on the successive minima, and the product of its
entries bounds the minimal basis norm product from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import GramLattice

#: The reduction parameter.  Anything in (1/4, 1) works; a value close
#: to 1 gives the strongest bases at a modest cost in swaps.
DELTA = Fraction(99, 100)


def _weights(minors) -> tuple[int, list[int]]:
    """The common ``weight`` of the levels and each level's share of it.

    For an integral form ``(scale, _, minors, lam)`` of G, a vector y has

        weight * scale * y G y^T = sum_i weights[i] * T_i^2,
        T_i = minors[i+1] * y_i + sum_{j>i} lam[j][i] * y_j,

    where ``weight`` is the lcm of ``minors[i] * minors[i+1]`` and
    ``weights[i] = weight // (minors[i] * minors[i+1])``.
    """
    pairs = [minors[i] * minors[i + 1] for i in range(len(minors) - 1)]
    weight = math.lcm(*pairs)
    return weight, [weight // x for x in pairs]


@dataclass(frozen=True)
class ReducedBasis:
    """Outcome of a reduction: the basis change and the pivots of the reduced form.

    ``transform`` stacks the coordinate rows U of the reduced basis in
    the original basis.  ``minors``, ``lam`` and ``diagonal`` are the
    leading minors, cleared coefficients and diagonal of ``scale * U G
    U^T``, whose ``scale`` is the original's, as U is unimodular.
    """

    transform: tuple[tuple[int, ...], ...]
    scale: int
    minors: tuple[int, ...]
    lam: tuple[tuple[int, ...], ...]
    diagonal: tuple[int, ...]


def lll(lattice: GramLattice) -> ReducedBasis:
    """Reduce the standard basis of the lattice, returning its pivots and transform.

    The decisions are the textbook ones, taken in integers: with
    ``mu = lam / d``, the nearest integer to mu is ``(2 lam + d) // (2 d)``,
    and for ``DELTA = p / q`` the Lovasz test reads
    ``q (d[k+1] d[k-1] + lam[k][k-1]^2) >= p d[k]^2``.
    """
    p, q = DELTA.numerator, DELTA.denominator
    n = lattice.n
    scale, _, d, lam = lattice._form
    d, lam = list(d), [list(row) for row in lam]
    r = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            m = (2 * lk[j] + dj) // (2 * dj)
            if m:
                # basis vector k -= m * basis vector j, in the transform
                # and the coefficients
                r[k] = [x - m * y for x, y in zip(r[k], r[j])]
                lk[:j] = [x - m * y for x, y in zip(lk, lam[j])]
                lk[j] -= m * dj
        t = lk[k - 1]
        if q * (d[k + 1] * d[k - 1] + t * t) >= p * d[k] * d[k]:
            k += 1
            continue
        # exchange basis vectors k-1 and k (Alg. 2.6.7, step SWAPI);
        # every division below is exact
        r[k], r[k - 1] = r[k - 1], r[k]
        lam[k - 1], lam[k] = lk[:k - 1], lam[k - 1] + [t]
        big = (d[k - 1] * d[k + 1] + t * t) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            s = li[k]
            li[k] = (d[k + 1] * li[k - 1] - t * s) // d[k]
            li[k - 1] = (big * s + t * li[k]) // d[k + 1]
        d[k] = big
        k = max(k - 1, 1)

    # scale * G_kk of the reduced basis, from _weights at y = e_k
    weight, w = _weights(d)
    diagonal = tuple((w[k] * d[k + 1] ** 2 + sum(x * c * c for x, c in zip(w, lam[k]))) // weight
                     for k in range(n))
    return ReducedBasis(tuple(map(tuple, r)), scale, tuple(d), tuple(map(tuple, lam)), diagonal)
