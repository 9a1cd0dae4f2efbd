"""Short-vector enumeration and the invariants built on it.

Everything here is exact.  Each lattice is LLL-reduced once, in
integers, and the reduction is kept on the lattice object for every
later listing.  The reduced lattice carries its integral form (the Gram
matrix scaled to integers, its leading minors and the coefficients they
clear), and the Fincke-Pohst tree runs on it in integer arithmetic alone:
the centre at each level is an integer over a known minor, the weight of
each level an integer over one common denominator, and the admissible
interval comes from an integer square root, so no vector is ever lost
to rounding.  Listings carry each norm as its integer numerator over
one denominator per lattice; callers turn into fractions only the norms
they keep.

Each lattice also keeps its minima ball: the listing at the radius
``successive_minima`` uses, the largest diagonal entry of the reduced
Gram matrix, with the nodes that listing cost and the frame chosen from
it.  ``successive_minima``, ``is_well_rounded``, ``qb`` and
``maximal_index`` all list that ball, and it is enumerated once.  A
reuse spends the nodes the listing cost, so every result, node total and
budget failure is what a fresh lattice would give, whatever ran before.

A global node budget guards against runaway trees.  It can be overridden
through the ``LATQUOT_NODE_BUDGET`` environment variable or per call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .core import GramLattice, InvariantReport, LatVec, _pivot_row, determinant
from .errors import ResourceExceeded
from .reduction import ReducedBasis, lll

DEFAULT_NODE_BUDGET = 10**9


def node_budget() -> int:
    """The enumeration node budget currently in force."""
    return int(os.environ.get("LATQUOT_NODE_BUDGET", DEFAULT_NODE_BUDGET))


@dataclass(frozen=True)
class Frame:
    """Independent vectors realizing the successive minima, with their norms."""

    vectors: tuple[LatVec, ...]
    norms: tuple[Fraction, ...]


@dataclass(frozen=True)
class ShellListing:
    """All nonzero vectors of norm at most ``bound``, one per +- pair.

    The listing is sorted by norm, then by coordinates; each pair is
    represented by the member whose first nonzero coordinate is positive.
    """

    bound: Fraction
    vectors: tuple[LatVec, ...]

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


@dataclass
class _Ball:
    """A lattice's minima ball: its sorted listing, the nodes it cost, its frame."""

    pairs: tuple[tuple[int, LatVec], ...]
    nodes: int
    frame: Frame | None = None


class _Counter:
    __slots__ = ("nodes", "budget")

    def __init__(self, budget: int | None):
        self.nodes = 0
        self.budget = node_budget() if budget is None else budget

    def spend(self, amount: int = 1):
        """Count ``amount`` nodes at once.

        The walk stops as soon as the count passes the budget, and the
        error names the node that crossed it, as when counting one by one.
        """
        self.nodes += amount
        if self.nodes > self.budget:
            raise ResourceExceeded(self.budget + 1, self.budget)


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


def _times(v, cols) -> list[int]:
    """The inner products of ``v`` with each of ``cols``: ``v * a`` for a symmetric ``a``."""
    return [sum(map(mul, v, col)) for col in cols]


def _dot(u, v) -> int:
    """The inner product of two integer vectors."""
    return sum(map(mul, u, v))


def _reduction(L: GramLattice) -> ReducedBasis:
    """The lattice's LLL reduction, made on first use only."""
    reduced = L._reduced
    if reduced is None:
        reduced = lll(L)
        object.__setattr__(L, "_reduced", reduced)
    return reduced


def _radius(L: GramLattice) -> Fraction:
    """The radius of the minima ball: the largest diagonal entry of the reduced Gram matrix."""
    gram = _reduction(L).gram.gram
    return max(gram[i][i] for i in range(L.n))


def _denominator(L: GramLattice) -> int:
    """The denominator ``weight * scale`` of the norm numerators in ``L``'s listings."""
    form = _reduction(L).gram._form
    return _weights(form.minors)[0] * form.scale


def _enumerate(reduced: ReducedBasis, bound: Fraction, counter: _Counter):
    """Nonzero solutions of y G y^T <= bound, one per +- pair, unsorted.

    Returns (numerator, coords) pairs, where the norm is numerator over
    ``weight * scale`` (see ``_weights``) and coords are in the original
    basis with their first nonzero entry positive.  Levels are visited
    top down and the integers of each level in increasing order.
    """
    scale, _, d, lam = reduced.gram._form
    n = len(d) - 1
    weight, w = _weights(d)
    rows = reduced.transform
    top = weight * scale * bound.numerator // bound.denominator
    x = [0] * n
    # partial[i] = sum over j >= i of x[j] * rows[j], in original coordinates
    partial = [(0,) * n] * (n + 1)
    out = []

    def descend(level: int, used: int, top_zero: bool):
        centre = 0
        if not top_zero:
            for j in range(level + 1, n):
                centre += lam[j][level] * x[j]
        dl, wl = d[level + 1], w[level]
        # the values with wl * (dl * value + centre)^2 <= top - used
        s = math.isqrt((top - used) // wl)
        hi = (s - centre) // dl
        lo = 0 if top_zero else -((s + centre) // dl)
        if hi < lo:
            return
        counter.spend(hi - lo + 1)
        above = partial[level + 1]
        row = rows[level]
        if level == 0:
            for value in range(lo, hi + 1):
                if value or not top_zero:
                    t = dl * value + centre
                    v = tuple([p + value * r for p, r in zip(above, row)])
                    out.append((used + wl * t * t, _canonical_sign(v)))
            return
        for value in range(lo, hi + 1):
            x[level] = value
            partial[level] = [p + value * r for p, r in zip(above, row)]
            t = dl * value + centre
            descend(level - 1, used + wl * t * t, top_zero and value == 0)
        x[level] = 0

    descend(n - 1, 0, True)
    # ``descend`` refers to itself, so the cycle would keep ``out`` alive
    # until the next full collection; break it to free a dropped listing
    descend = None
    return out


def _canonical_sign(v: tuple[int, ...]) -> tuple[int, ...]:
    for entry in v:
        if entry > 0:
            return v
        if entry < 0:
            return tuple(-x for x in v)
    return v


def _listing(L: GramLattice, bound: Fraction,
             budget: int | None = None) -> Sequence[tuple[int, LatVec]]:
    """Sorted (norm, coords) pairs for nonzero vectors of norm <= bound.

    Each norm is its integer numerator over ``_denominator(L)``.  The
    listing at ``_radius(L)`` is the minima ball: the first complete one
    is kept on the lattice as a tuple with the nodes it cost, and a later
    request spends those nodes in one step and returns the same tuple.
    When they exceed the budget the tree is walked again instead, so the
    request stops at the node where a fresh walk stops.
    """
    bound = Fraction(bound)
    counter = _Counter(budget)
    at_radius = bound == _radius(L)
    ball = L._ball
    if at_radius and ball is not None and ball.nodes <= counter.budget:
        counter.spend(ball.nodes)
        return ball.pairs
    pairs = _enumerate(_reduction(L), bound, counter)
    pairs.sort()
    # in place, with one object per distinct norm, to keep the
    # memory of a long listing at one list
    norms: dict[int, int] = {}
    for i, (num, v) in enumerate(pairs):
        pairs[i] = (norms.setdefault(num, num), v)
    if at_radius:
        pairs = tuple(pairs)
        object.__setattr__(L, "_ball", _Ball(pairs, counter.nodes))
    return pairs


def vectors_up_to(L: GramLattice, bound: Fraction,
                  budget: int | None = None) -> ShellListing:
    """Complete listing of nonzero vectors of norm at most ``bound``."""
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    pairs = _listing(L, bound, budget)
    return ShellListing(bound=bound, vectors=tuple(v for _, v in pairs))


def minimum(L: GramLattice, budget: int | None = None) -> tuple[Fraction, ShellListing]:
    """The minimum of the lattice together with all its minimal vectors."""
    gram = _reduction(L).gram.gram
    start = min(gram[i][i] for i in range(L.n))
    pairs = _listing(L, start, budget)
    top = pairs[0][0]
    shell = tuple(v for value, v in pairs if value == top)
    best = Fraction(top, _denominator(L))
    return best, ShellListing(bound=best, vectors=shell)


def successive_minima(L: GramLattice, budget: int | None = None) -> Frame:
    """A frame of the successive minima.

    Ties at each minimum are broken toward the lexicographically
    smallest coordinate vector whose first nonzero coordinate is
    positive, so the output is deterministic.  The frame is chosen from
    the minima ball once and kept with it; a later call spends the
    ball's nodes again and returns the kept frame.
    """
    pairs = _listing(L, _radius(L), budget)
    ball = L._ball
    if ball.frame is not None:
        return ball.frame
    a = L._form.gram
    vectors: list[LatVec] = []
    norms = []
    minors, lam = [1], []
    for value, v in pairs:
        va = _times(v, a)
        row = _pivot_row([_dot(va, w) for w in vectors] + [_dot(va, v)], minors, lam)
        if row[-1] > 0:
            minors.append(row.pop())
            lam.append(row)
            vectors.append(v)
            norms.append(value)
            if len(vectors) == L.n:
                break
    denominator = _denominator(L)
    ball.frame = Frame(vectors=tuple(vectors), norms=tuple(Fraction(x, denominator) for x in norms))
    return ball.frame


def minkowski_M(L: GramLattice, budget: int | None = None) -> Fraction:
    """Product of the successive minima divided by the determinant."""
    frame = successive_minima(L, budget)
    return math.prod(frame.norms) / determinant(L)


def is_well_rounded(L: GramLattice, budget: int | None = None) -> bool:
    """Whether the lattice has n independent minimal vectors."""
    frame = successive_minima(L, budget)
    return frame.norms[0] == frame.norms[-1]


def invariant_report(L: GramLattice, budget: int | None = None) -> InvariantReport:
    """Minimum, determinant, Hermite power and kissing number in one record."""
    best, shell = minimum(L, budget)
    det = determinant(L)
    return InvariantReport(
        min=best,
        det=det,
        gamma_n_power=best**L.n / det,
        s=len(shell),
    )
