"""Seeded random instances for property tests and the search command.

Every generator takes a ``random.Random``, so a seed plus a model
version pins down any instance that a randomized check reports.
``perturbed`` reads only ``getrandbits`` and ``random``: a subclass
overriding ``randint``, ``sample`` or ``choice`` is not consulted.
"""

from __future__ import annotations

import random

from .core import GramLattice, _leading_minors
from .errors import NotPositiveDefinite
from .linalg import det_int, matmul, transpose
from .watson import CosetVector

__all__ = ["random_basis", "random_gram", "random_coset", "perturbed"]


def random_basis(rand: random.Random, n: int) -> list[list[int]]:
    """A nonsingular integer matrix with entries in [-3, 3]."""
    while True:
        rows = [[rand.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if det_int(rows):
            return rows


def random_gram(rand: random.Random, n: int) -> GramLattice:
    """A random integral lattice: B*B^T for a random basis B with entries in [-3, 3]."""
    rows = random_basis(rand, n)
    return GramLattice.from_rows(matmul(rows, transpose(rows)), label=f"random{n}")


def _moves(rand: random.Random, n: int) -> list[tuple[int, int, int, bool]]:
    """The 12 elementary moves ``(i, j, c, swap)`` of one random unimodular matrix.

    Move ``(i, j, c, swap)`` adds ``c`` times row ``j`` to row ``i``, then
    exchanges the two rows if ``swap``, drawn as ``rand.sample(range(n), 2)``,
    ``rand.choice((-2, -1, 1, 2))`` and ``rand.random() < 0.5`` draw them.
    Each index is ``rand._randbelow(w)`` as CPython 3.10-3.13 draw it: ``r
    = getrandbits(w.bit_length())`` until ``r < w``.
    """
    bits, uniform, moves = rand.getrandbits, rand.random, []
    # sample's pool (n <= 21) puts n - 1 in the slot of i; its set draws j again
    wj = n - (n <= 21)
    ki, kj = n.bit_length(), wj.bit_length()
    for _ in range(12 if n > 1 else 0):  # rank 1 draws nothing
        i = bits(ki)
        while i >= n:
            i = bits(ki)
        j = bits(kj)
        while j >= wj or (j == i and n > 21):
            j = bits(kj)
        c = bits(3)  # choice's index below 4
        while c >= 4:
            c = bits(3)
        moves.append((i, n - 1 if j == i else j, (-2, -1, 1, 2)[c], uniform() < 0.5))
    return moves


def _apply(moves, a: list[list[int]]) -> list[list[int]]:
    """``u * a``, in place, for the matrix ``u`` that ``moves`` build from the identity."""
    for i, j, c, swap in moves:
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        if swap:
            a[i], a[j] = a[j], a[i]
    return a


def random_coset(rand: random.Random, n: int) -> CosetVector:
    """A valid coset vector: order d in 2..5 exactly, with balanced coefficients."""
    while True:
        d = rand.randint(2, 5)
        try:
            return CosetVector(d, tuple(rand.randint(-d, d) for _ in range(n)))
        except ValueError:
            continue


def perturbed(rand: random.Random, L: GramLattice) -> GramLattice:
    """A random integer perturbation of an integer-scaled copy of L.

    The Gram matrix, cleared of denominators, gets symmetric integer noise
    in {-1, 0, 1}; a candidate that is not positive definite is drawn
    again, up to 12 times, and then the noise is zero.  Only the accepted
    one is conjugated by a random unimodular matrix, since congruence
    keeps definiteness.  The draws read ``rand.getrandbits`` and
    ``rand.random`` only, never ``randint``, ``sample`` or ``choice``, and
    leave the generator where those calls would.  They are most of the
    cost: a rank 8 candidate, kept or not, draws 36 noise entries and 12
    moves of four values each.
    """
    base, n, bits = L._form.gram, L.n, rand.getrandbits
    for attempt in range(13):
        # the 13th candidate is base itself, definite as given; its draws still advance rand
        m = 1 if attempt < 12 else 0
        w = 2 * m + 1
        k = w.bit_length()
        cand: list[list[int]] = []
        for i, row in enumerate(base):
            # entries left of the diagonal mirror the rows above
            new = [above[i] for above in cand]
            for x in row[i:]:  # rand.randint(-m, m) is -m + rand._randbelow(w)
                r = bits(k)
                while r >= w:
                    r = bits(k)
                new.append(x - m + r)
            cand.append(new)
        moves = _moves(rand, n)
        if attempt < 12:
            try:
                _leading_minors(cand)
            except NotPositiveDefinite:
                continue
        # u * cand * u^T, which is u * (u * cand)^T as cand is symmetric
        gram = _apply(moves, transpose(_apply(moves, cand)))
        return GramLattice.from_rows(gram, label=f"perturbed {L.label}")
