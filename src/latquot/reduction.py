"""LLL reduction carried out on Gram matrices in exact arithmetic.

The lattice never appears through an embedding; every step works on the
Gram matrix directly and maintains an integer change of basis.  With the
reduction parameter close to 1 the diagonal of the reduced Gram matrix
gives useful upper bounds on the successive minima, and the product of
its entries bounds the minimal basis norm product from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import GramLattice

#: Default reduction parameter.  Anything in (1/4, 1) works; a value
#: close to 1 gives the strongest bases at a modest cost in swaps.
DELTA = Fraction(99, 100)


@dataclass(frozen=True)
class ReducedBasis:
    """Outcome of a reduction: the reduced lattice and the basis change.

    ``transform`` holds the coordinate rows of the reduced basis written
    in the original basis, so ``gram.gram == U * G * U^T`` where ``U``
    stacks the rows.
    """

    gram: GramLattice
    transform: tuple[tuple[int, ...], ...]


def _gso(gram, n):
    """Gram-Schmidt data (squared norms b and coefficients mu) from a Gram matrix."""
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            s = gram[i][j] - sum(mu[i][k] * mu[j][k] * b[k] for k in range(j))
            mu[i][j] = s / b[j]
        b[i] = gram[i][i] - sum(mu[i][k] ** 2 * b[k] for k in range(i))
    return b, mu


def lll(lattice: GramLattice, delta: Fraction = DELTA) -> ReducedBasis:
    """Reduce the standard basis of the lattice, returning Gram and transform."""
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise ValueError("delta must lie strictly between 1/4 and 1")
    n = lattice.n
    g = [[Fraction(x) for x in row] for row in lattice.gram]
    r = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def apply_shift(i, j, m):
        # basis vector i -= m * basis vector j, updating g symmetrically
        r[i] = [x - m * y for x, y in zip(r[i], r[j])]
        for k in range(n):
            g[i][k] -= m * g[j][k]
        for k in range(n):
            g[k][i] -= m * g[k][j]

    def apply_swap(k):
        # exchange basis vectors k-1 and k and update the Gram-Schmidt
        # data in place (Cohen, GTM 138, Alg. 2.6.3, step SWAP)
        r[k], r[k - 1] = r[k - 1], r[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        m = mu[k][k - 1]
        big = b[k] + m * m * b[k - 1]
        mu[k][k - 1] = m * b[k - 1] / big
        b[k] = b[k - 1] * b[k] / big
        b[k - 1] = big
        for j in range(k - 1):
            mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
        for i in range(k + 1, n):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]

    b, mu = _gso(g, n)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            m = math.floor(mu[k][j] + Fraction(1, 2))
            if m:
                apply_shift(k, j, m)
                for l in range(j):
                    mu[k][l] -= m * mu[j][l]
                mu[k][j] -= m
        if b[k] >= (delta - mu[k][k - 1] ** 2) * b[k - 1]:
            k += 1
        else:
            apply_swap(k)
            k = max(k - 1, 1)

    gram = tuple(tuple(x for x in row) for row in g)
    label = f"{lattice.label} (reduced)" if lattice.label else ""
    reduced = GramLattice(n=n, gram=gram, label=label)
    return ReducedBasis(gram=reduced, transform=tuple(tuple(row) for row in r))
