"""Seeded random instances for property tests and the search command.

Every generator takes a ``random.Random`` so runs are reproducible from
a single seed.  The lattice models are documented here because failures
found by randomized checks must be reportable: a seed plus a model
version pins down the exact instance.
"""

from __future__ import annotations

import random

from .core import GramLattice, _leading_minors
from .errors import NotPositiveDefinite
from .linalg import _insert, matmul, transpose
from .watson import CosetVector

__all__ = [
    "random_basis",
    "random_gram",
    "random_coset",
    "perturbed",
]


def random_basis(rand: random.Random, n: int, spread: int = 3) -> list[list[int]]:
    """A nonsingular integer matrix with entries in [-spread, spread]."""
    while True:
        rows = [[rand.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        echelon: dict[int, list[int]] = {}
        # nonsingular: each row raises the rank of the echelon form over Q
        if all(_insert(echelon, row) for row in rows):
            return rows


def random_gram(rand: random.Random, n: int, spread: int = 3) -> GramLattice:
    """A random integral lattice: the Gram matrix B*B^T of a random basis."""
    rows = random_basis(rand, n, spread)
    gram = matmul(rows, transpose(rows))
    return GramLattice.from_rows(gram, label=f"random{n}")


def _moves(rand: random.Random, n: int, steps: int = 12) -> list[tuple[int, int, int, bool]]:
    """The elementary moves ``(i, j, c, swap)`` of one random unimodular matrix.

    Move ``(i, j, c, swap)`` adds ``c`` times row ``j`` to row ``i``, then
    exchanges the two rows if ``swap``.  Rank 1 draws nothing.
    """
    if n == 1:
        return []
    moves = []
    for _ in range(steps):
        i, j = rand.sample(range(n), 2)
        c = rand.choice((-2, -1, 1, 2))
        moves.append((i, j, c, rand.random() < 0.5))
    return moves


def _apply(moves, a: list[list[int]]) -> list[list[int]]:
    """``u * a``, in place, for the matrix ``u`` that ``moves`` build from the identity."""
    for i, j, c, swap in moves:
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        if swap:
            a[i], a[j] = a[j], a[i]
    return a


def random_coset(rand: random.Random, n: int, dmax: int = 5) -> CosetVector:
    """A valid coset vector: order exactly d with balanced coefficients."""
    while True:
        d = rand.randint(2, dmax)
        a = tuple(rand.randint(-d, d) for _ in range(n))
        try:
            return CosetVector(d, a)
        except ValueError:
            continue


def perturbed(rand: random.Random, L: GramLattice, magnitude: int = 1) -> GramLattice:
    """A random integer perturbation of an integer-scaled copy of L.

    The Gram matrix is scaled to clear denominators, a random symmetric
    integer matrix with entries in [-magnitude, magnitude] is added, and
    the result is conjugated by a random unimodular matrix.  A candidate
    that is not positive definite is drawn again with the same magnitude,
    up to 12 times in all; after that the noise is zero, so the result is
    a conjugated copy of L itself.  Unimodular congruence preserves
    definiteness, so each candidate is tested before it is conjugated and
    only the accepted one is conjugated.
    """
    base = L._form.gram
    n = L.n
    for attempt in range(13):
        # the 13th candidate is base itself, which is positive definite,
        # but its zero-width draws still advance the generator
        m = magnitude if attempt < 12 else 0
        cand = [list(row) for row in base]
        for i in range(n):
            for j in range(i, n):
                cand[i][j] = cand[j][i] = base[i][j] + rand.randint(-m, m)
        moves = _moves(rand, n)
        try:
            _leading_minors(cand)
        except NotPositiveDefinite:
            continue
        # u * cand * u^T, which is u * (u * cand)^T as cand is symmetric
        gram = _apply(moves, transpose(_apply(moves, cand)))
        return GramLattice.from_rows(gram, label=f"perturbed {L.label}")
