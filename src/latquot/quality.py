"""The basis invariant H_b and the quality ratio Q_b = H_b / M.

H_b is the minimum, over all bases of the lattice, of the product of
the basis norms divided by the determinant.  Computing it exactly is a
branch-and-bound over short vectors: every member of an optimal basis
is shorter than the incumbent product allows, so a single enumeration
yields the complete candidate pool, and partial selections are pruned
by product bounds and by primitivity (a vector family extends to a
basis if and only if its span is a primitive sublattice).  Its first
pass is the lattice's minima ball, which ``_ball`` lists and charges
once for the minima and the pass together, so a search that settles
there walks no node beyond the ball; otherwise one listing to the
incumbent's cap holds every member of a better basis, and its pass ends
the search.

The search is certified once its incumbent reaches a proven lower
bound, even if trees are left.  Besides the product of the successive
minima, each listing yields a parity bound: a basis of L maps to a basis
of L/2L = F_2^n, so its product is at least the least product of class
minima over the bases of L/2L, which form a matroid, so the greedy walk
``linalg._greedy2`` over the sorted listing finds it.  The bound settles
the well-rounded code lifts, whose trees would otherwise walk the
n-subsets of their minimal vectors.

The second pass lists past the ball's radius, the largest reduced
diagonal entry, so its listing holds the reduced basis and generates
the lattice, and it starts with the ball: the parity bound of the ball
is the parity bound of that listing.

Primitivity is read off a unimodular completion carried down the tree
(Cohen, GTM 138, Sec. 2.4): a unimodular W with the chosen prefix times
W unit lower triangular.  A candidate v extends the prefix of k vectors
to a primitive family exactly when coordinates k..n-1 of v * W have gcd
1, and pushing it clears those coordinates with extended-gcd column
operations, so no Smith form runs inside the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import GramLattice, LatVec, Rational
from .enumeration import _Context, _Counter, _ball, _context, _listing, _times
from .errors import ResourceExceeded
from .linalg import _greedy2, _xgcd, identity_rows
from .linalg import hnf_rows, is_primitive  # noqa: F401  uncalled; perfbench's tracer wraps these names

__all__ = ["QualityReport", "hermite_Hb", "qb"]


@dataclass(frozen=True)
class QualityReport:
    """Everything qb() measures, with the witness basis.

    ``frontier`` is a proven lower bound on Hb; it is None when the
    result is certified (then Hb itself is exact).
    """

    M: Rational
    Hb: Rational
    Qb: Rational
    best_basis: tuple[LatVec, ...]
    certified: bool
    frontier: Rational | None = None


def _cleared(cols, tail):
    """The completion columns one level down, after pushing a vector with ``tail``.

    Extended-gcd column operations on columns k..n-1 of W fold the tail
    into column k and leave zeros in the others.  The pushed vector then
    reads (*, +-1, 0, ..., 0) in the new W, and since column k never
    enters a later test only the columns k+1..n-1 are returned.  Each step
    has determinant 1, so W stays unimodular.
    """
    acc, g = cols[0], tail[0]
    out = []
    for c, t in zip(cols[1:], tail[1:]):
        if t:
            h, x, y = _xgcd(g, t)
            p, q = g // h, t // h
            out.append(tuple(p * b - q * a for a, b in zip(acc, c)))
            acc = tuple(x * a + y * b for a, b in zip(acc, c))
            g = h
        else:
            out.append(c)
    return out


def _parity_bound(pairs, n: int) -> int:
    """A lower bound on the norm product of every basis, over scale^n.

    A basis of L maps to a basis of L/2L, so its product is at least the
    least product of class minima over the bases of L/2L, which
    ``linalg._greedy2`` finds; ``pairs`` is a sorted listing in L's own
    coordinates, so a vector's class is its coordinate parities.  The
    minima ball holds the reduced basis, so the walk reaches rank n in it;
    the second pass's listing starts with the ball in the same order, so
    its walk is the ball's.
    """
    return _greedy2(((x, sum((c & 1) << i for i, c in enumerate(v))) for x, v in pairs), n)


def _search(L: GramLattice, counter: _Counter, context: _Context):
    """Branch-and-bound for the minimal basis norm product.

    ``context`` is what ``_ball`` returned: the reduction, the frame of
    successive minima and the minima ball, whose listing is the first
    pass.  Returns (product, rows, certified, frontier product), the
    product and the frontier over scale^n.  The second pass's listing
    and every tree node spend from ``counter``, the one counter of the
    calling ``qb``, which has already paid for the ball; running out
    anywhere downgrades the result to an uncertified upper bound instead
    of raising.

    The search runs in integers: listed norms are the integers v (scale
    G) v^T of the lattice's integral form, a product of k of them is kept
    over scale^k and the incumbent over scale^n, which is the product of
    the reduced diagonal itself, and no Fraction is made until the
    report.  Each tree level holds the columns k..n-1 of the completion
    W of its prefix.  A candidate costs n - k inner products and one
    gcd; only a candidate that passes pays for the column operations of
    the next level, and the columns of a level are dropped when it
    returns.
    """
    n = L.n
    reduced = context.reduced
    best, rows = math.prod(reduced.diagonal), reduced.transform
    target = math.prod(context.minima)
    if best == target:
        return best, rows, True, None

    chosen: list[LatVec] = []
    norms: list[int] = []
    vecs: list[LatVec] = []

    def descend(start: int, prod: int, cols) -> bool:
        """Exhaust the bases that extend ``chosen`` from the listed candidates.

        Returns True as soon as a recorded basis reaches ``target``, a
        lower bound on every basis product over scale^n.
        """
        nonlocal best, rows
        k = len(chosen)
        if k == n:
            best, rows = prod, tuple(chosen)
            return prod <= target
        need, total = n - k, len(norms)
        # The cheapest completion from index i is the product of the
        # next `need` norms.  Slide that window along instead of
        # storing cumulative products, whose bit size would grow
        # linearly along a long listing and swamp memory.
        window = 1
        for x in norms[start:start + need]:
            window *= x
        for i in range(start, total - need + 1):
            counter.spend()
            if prod * window >= best:
                break
            v = vecs[i]
            tail = _times(v, cols)
            if gcd(*tail) == 1:
                chosen.append(v)
                settled = descend(i + 1, prod * norms[i], _cleared(cols, tail))
                chosen.pop()
                if settled:
                    return True
            if i + need < total:
                window = window * norms[i + need] // norms[i]
        return False

    def walk(listing) -> bool:
        """Walk one pass's tree over ``listing``, charging a node for its root."""
        nonlocal norms, vecs
        norms, vecs = listing.norms, listing.vectors
        counter.spend()
        return descend(0, 1, identity_rows(n))

    # A basis that beats the incumbent has n-1 members no shorter than the
    # first n-1 minima, whose product is ``head`` over scale^n, so each of
    # its members is shorter than best / head.  The first pass is the
    # minima ball, already paid for; if it neither reaches ``target``, the
    # larger of the minima product and the parity bound, nor covers
    # best / head, one listing to best / head holds every member of every
    # better basis and its pass certifies.
    head = reduced.scale * math.prod(context.minima[:-1])
    target = max(target, _parity_bound(context.ball, n))
    done = 0
    try:
        if best > target and not walk(context.ball) and context.radius < Fraction(best, head):
            done = context.radius
            walk(_listing(L, Fraction(best, head), counter))
        return best, rows, True, None
    except ResourceExceeded:
        # The pass over the ball was exhaustive when `done` is its radius,
        # so any basis still beating the incumbent owns a vector longer
        # than that, plus n-1 more no shorter than the first n-1
        # successive minima, and ``target`` bounds every basis.
        return best, rows, False, max(min(best, done * head), target)
    finally:
        # ``descend`` refers to itself; break the cycle so the listings
        # are freed on return
        descend = norms = vecs = None


def hermite_Hb(L: GramLattice, budget: int | None = None):
    """Minimal basis norm product over det, with witness basis.

    Returns (value, basis rows, certified), the ``Hb``, ``best_basis``
    and ``certified`` of ``qb``: an upper bound with its witness when the
    budget runs out, and the reduced basis, uncertified, when the minima
    ball itself cannot be listed.
    """
    try:
        report = qb(L, budget)
    except ResourceExceeded:
        reduced = _context(L).reduced
        return Fraction(math.prod(reduced.diagonal), L._form.minors[-1]), reduced.transform, False
    return report.Hb, report.best_basis, report.certified


def qb(L: GramLattice, budget: int | None = None) -> QualityReport:
    """Assemble M, Hb and their ratio Qb into one report.

    The minima and the basis search spend one budget, and the minima
    ball is charged once for both.  M needs the minima, so when the
    ball cannot be listed within the budget this raises
    ``ResourceExceeded``; a search that runs out later returns an
    uncertified report with its ``frontier``.
    """
    counter = _Counter(budget)
    context = _ball(L, counter)
    best, rows, certified, frontier = _search(L, counter, context)
    floor, det = math.prod(context.minima), L._form.minors[-1]
    return QualityReport(
        M=Fraction(floor, det),
        Hb=Fraction(best, det),
        Qb=Fraction(best, floor),
        best_basis=tuple(rows),
        certified=certified,
        frontier=None if frontier is None else Fraction(frontier, det),
    )
