"""Codes over Z/dZ: weights, distributions and classification.

A code over Z/dZ is a generator matrix, which ``zd_lift`` turns into a
lattice.  Weights are counted for binary codes only: their weight
distributions control the quality bounds of the lattices lifted from
them, and the small parameter ranges that matter here (length at most
12, dimension at most 4) allow complete classification by explicit
enumeration.

Words of binary codes are handled as bit masks; bit j of a mask is the
entry in column j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from operator import index

from .enumeration import _Counter
from .errors import CodeTooLight
from .linalg import _greedy2, _rref2, hnf_rows


@dataclass(frozen=True)
class Code:
    """A code over Z/dZ given by a k x n generator matrix.

    The rows must generate a group of order d^k, so every coefficient
    vector in (Z/dZ)^k yields a distinct codeword.
    """

    d: int
    n: int
    k: int
    gen: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("modulus must exceed 1")
        gen = tuple(tuple(index(x) % self.d for x in row) for row in self.gen)
        object.__setattr__(self, "gen", gen)
        if len(gen) != self.k or any(len(row) != self.n for row in gen):
            raise ValueError("generator matrix shape disagrees with (k, n)")
        if self.k < 1 or self.k > self.n:
            raise ValueError("dimension out of range")
        stacked = [list(row) for row in gen]
        stacked += [[self.d if i == j else 0 for j in range(self.n)]
                    for i in range(self.n)]
        # the stack holds d * I, so its Hermite form is square and its
        # diagonal multiplies to the index
        hermite = hnf_rows(stacked)
        if prod(hermite[i][i] for i in range(self.n)) != self.d ** (self.n - self.k):
            raise ValueError("rows do not generate a group of order d^k")

    def masks(self) -> tuple[int, ...]:
        """Generator rows as bit masks; binary codes only."""
        if self.d != 2:
            raise ValueError("bit masks are defined for binary codes only")
        return tuple(_mask(row) for row in self.gen)


def _mask(row) -> int:
    out = 0
    for j, x in enumerate(row):
        if x:
            out |= 1 << j
    return out


def _binary_words(masks) -> list[int]:
    """All nonzero words of the span of the given masks."""
    words = {0}
    for m in masks:
        words |= {w ^ m for w in words}
    words.discard(0)
    return sorted(words)


@dataclass(frozen=True)
class WeightDistribution:
    """Multiset of weights of the nonzero codewords."""

    counts: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, counts: dict[int, int]) -> "WeightDistribution":
        return cls(tuple(sorted((w, c) for w, c in counts.items() if c)))

    def __str__(self) -> str:
        parts = []
        for w, c in self.counts:
            parts.append(f"{w}^{c}" if c > 1 else f"{w}")
        return "·".join(parts)


def weight_distribution(c: Code) -> WeightDistribution:
    """Exact weight distribution over the nonzero words of a binary code."""
    counts: dict[int, int] = {}
    for word in _binary_words(c.masks()):
        w = word.bit_count()
        counts[w] = counts.get(w, 0) + 1
    return WeightDistribution.from_dict(counts)


def min_weight_support(c: Code) -> tuple[int, int, bool]:
    """Minimum nonzero weight, support size, and whether support is full.

    Binary codes only.
    """
    masks = c.masks()
    support = 0
    for m in masks:
        support |= m
    w = min(word.bit_count() for word in _binary_words(masks))
    size = support.bit_count()
    return w, size, size == c.n


@lru_cache(maxsize=None)
def _gl2(k: int) -> tuple[tuple[int, ...], ...]:
    """GL(k, 2), each matrix given by its action on columns in F_2^k.

    Entry v of a table is the image of the column v, bit i of the image
    being the parity of row i of the matrix against v.
    """
    return tuple(
        tuple(sum(((row & v).bit_count() & 1) << i for i, row in enumerate(rows))
              for v in range(1 << k))
        for rows in product(range(1, 1 << k), repeat=k)
        if len(_rref2(rows)[0]) == k
    )


def _orbit(cols, k: int) -> set[tuple[int, ...]]:
    """The GL(k, 2) orbit of a column multiset, as sorted tuples."""
    return {tuple(sorted(t[c] for c in cols)) for t in _gl2(k)}


def _code_from_signature(sig: tuple[int, ...], n: int, k: int) -> Code:
    gen = tuple(
        tuple((col >> i) & 1 for col in sig) for i in range(k)
    )
    return Code(d=2, n=n, k=k, gen=gen)


def classify_binary(n: int, k: int, min_w: int,
                    budget: int | None = None) -> list[Code]:
    """All binary [n, k] codes with full support and weight >= min_w.

    One representative per column-permutation class, each presented by
    its canonical column multiset, in ascending order of that multiset.
    Such a code is a multiset of n nonzero columns in F_2^k, up to
    GL(k, 2) (Slepian, BSTJ 35, 1956), so the walk runs over the
    non-decreasing column sequences.  A branch is cut as soon as some
    nonzero functional, whose weight is that of a codeword, can no
    longer reach ``max(min_w, 1)`` with the columns left; weight 1 for
    every functional is exactly rank k.  The first member of each orbit
    the walk completes marks the whole orbit as seen.  The budget counts
    the nodes of the walk, the pruned ones included.
    """
    if n > 12 or not 1 <= k <= 4:
        raise ValueError("classification supported for 1 <= k <= 4, n <= 12")
    if n < 1:
        raise ValueError("code length must be at least 1")
    counter = _Counter(budget)
    target = max(min_w, 1)
    parities = [[(f & v).bit_count() & 1 for f in range(1, 1 << k)]
                for v in range(1 << k)]
    cols: list[int] = []
    seen: set[tuple[int, ...]] = set()
    found: list[tuple[int, ...]] = []

    def walk(weights: list[int]) -> None:
        counter.spend()
        if min(weights) + n - len(cols) < target:
            return
        if len(cols) == n:
            if tuple(cols) not in seen:
                orbit = _orbit(cols, k)
                seen.update(orbit)
                found.append(min(orbit))
            return
        for v in range(cols[-1] if cols else 1, 1 << k):
            cols.append(v)
            walk([w + p for w, p in zip(weights, parities[v])])
            cols.pop()

    try:
        walk([0] * ((1 << k) - 1))
    finally:
        # ``walk`` refers to itself; break the cycle so ``seen`` and
        # ``found`` are freed on return
        walk = None
    return [_code_from_signature(sig, n, k) for sig in sorted(found)]


def code_qb_bound(c: Code) -> Fraction:
    """Minimum of wt(a_1)...wt(a_k)/4^k over bases of a binary code.

    The bases of the code form a matroid, so ``linalg._greedy2`` over
    the nonzero words sorted by (weight, mask) finds the least product.
    """
    if c.d != 2:
        raise ValueError("the bound is defined for binary codes only")
    words = sorted((w.bit_count(), w) for w in _binary_words(c.masks()))
    if words[0][0] < 4:
        raise CodeTooLight("minimum weight below 4")
    return Fraction(_greedy2(words, c.k), 4**c.k)


def c8() -> Code:
    """The unique full-support [8, 2, 5] binary code."""
    return Code(d=2, n=8, k=2, gen=(
        (1, 1, 1, 1, 1, 0, 0, 0),
        (0, 0, 0, 1, 1, 1, 1, 1),
    ))


def c9() -> Code:
    """The unique [9, 2, 6] binary code, weight distribution 6^3."""
    return Code(d=2, n=9, k=2, gen=(
        (1, 1, 1, 1, 1, 1, 0, 0, 0),
        (0, 0, 0, 1, 1, 1, 1, 1, 1),
    ))


def c10() -> Code:
    """The unique odd [10, 2, 6] binary code, weight distribution 6*7^2."""
    return Code(d=2, n=10, k=2, gen=(
        (1, 1, 1, 1, 1, 1, 0, 0, 0, 0),
        (0, 0, 0, 1, 1, 1, 1, 1, 1, 1),
    ))


def c11() -> Code:
    """The even [11, 3] code of weight 6, distribution 6^6*8."""
    return Code(d=2, n=11, k=3, gen=(
        (1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0),
        (1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 1),
    ))


def g12() -> Code:
    """The even [12, 4] code of weight 6, distribution 6^12*8^3."""
    return Code(d=2, n=12, k=4, gen=(
        (1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0),
        (1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0),
        (1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1),
    ))
