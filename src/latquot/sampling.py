"""Seeded random instances for property tests and the search command.

Every generator takes a ``random.Random`` so runs are reproducible from
a single seed.  The lattice models are documented here because failures
found by randomized checks must be reportable: a seed plus a model
version pins down the exact instance.
"""

from __future__ import annotations

import random

from .core import GramLattice, _integral
from .errors import NotPositiveDefinite
from .linalg import det_int, identity_rows, matmul, transpose
from .watson import CosetVector

__all__ = [
    "random_basis",
    "random_gram",
    "random_unimodular",
    "conjugate",
    "random_coset",
    "perturbed",
]


def random_basis(rand: random.Random, n: int, spread: int = 3) -> list[list[int]]:
    """A nonsingular integer matrix with entries in [-spread, spread]."""
    while True:
        rows = [[rand.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        if det_int(rows):
            return rows


def random_gram(rand: random.Random, n: int, spread: int = 3) -> GramLattice:
    """A random integral lattice: the Gram matrix B*B^T of a random basis."""
    rows = random_basis(rand, n, spread)
    gram = matmul(rows, transpose(rows))
    return GramLattice.from_rows(gram, label=f"random{n}")


def random_unimodular(rand: random.Random, n: int, steps: int = 12) -> list[list[int]]:
    """A random determinant +-1 matrix built from elementary row moves."""
    u = identity_rows(n)
    if n == 1:
        return u
    for _ in range(steps):
        i, j = rand.sample(range(n), 2)
        c = rand.choice((-2, -1, 1, 2))
        for col in range(n):
            u[i][col] += c * u[j][col]
        if rand.random() < 0.5:
            u[i], u[j] = u[j], u[i]
    return u


def conjugate(L: GramLattice, u) -> GramLattice:
    """The same lattice presented on the transformed basis u."""
    gram = matmul(matmul(u, [list(r) for r in L.gram]), transpose(u))
    return GramLattice.from_rows(gram, label=L.label)


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
    the result is conjugated by a random unimodular matrix.  Candidates
    that lose positive definiteness are retried with the perturbation
    halved toward zero; the unperturbed copy is the final fallback.
    """
    _, base = _integral(L.gram)
    n = L.n
    for attempt in range(24):
        m = magnitude if attempt < 12 else 0
        noise = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                noise[i][j] = noise[j][i] = rand.randint(-m, m)
        cand = [[base[i][j] + noise[i][j] for j in range(n)] for i in range(n)]
        u = random_unimodular(rand, n)
        gram = matmul(matmul(u, cand), transpose(u))
        try:
            return GramLattice.from_rows(gram, label=f"perturbed {L.label}")
        except NotPositiveDefinite:
            continue
    return GramLattice.from_rows(base, label=L.label)
