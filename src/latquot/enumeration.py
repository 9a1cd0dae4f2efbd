"""Short-vector enumeration and the invariants built on it.

Everything here is exact.  Each lattice is LLL-reduced once, in
integers, and the reduction is kept in the lattice's one context (see
``_context``) for every later listing.  The reduction carries the pivots
of the reduced Gram matrix scaled to integers (its leading minors and
the coefficients they clear) and its diagonal, but builds the matrix
itself only on request, and the Fincke-Pohst tree runs on the pivots in
integer arithmetic alone: the centre at each level is an integer over a
known minor, the weight of each level an integer share of one common
``weight`` (``_weights``), and the admissible interval comes from an
integer square root, so no vector is ever lost to rounding.  A parent
tests each child's interval before it builds the child's vector or calls
it; the leaves are listed in the loop over level 1.  Each partial vector
and each leaf is one int that holds the coordinates in fixed-width
fields, so a step down the tree is one integer addition.  The centres of
the lower levels go down the tree the same way, in one int per child
with a field per level: a child adds one multiple of its level's packed
coefficients, and a node reads the one centre it needs with a shift and
a mask.  Both widths come from
bounds on every coordinate and every centre the tree can reach, proved
together from the form in O(n^2) integer operations; the coordinate
fields are 8 or 16 bits on the bundled fixtures.  The walk counts its
nodes in a local total and charges it once, at its end or at the node
that crosses the budget.

Symmetric lattices repeat their subtrees, and the walk does each
distinct subtree of its lowest three levels, and of its lowest six,
once per listing.  The subtree below a node of level 3, or 6, is fixed
by a small state: what the levels above leave of the bound and the
centres of the levels below.  The walk writes every leaf to one output
in walk order, so a subtree's leaves are one range of it.  The first
visit of a state walks it and records its node count, its range and the
vector above it; a later visit adds the nodes to the count and appends
the range again, each leaf shifted by the step from that vector to its
own.  Ranges nest, so a subtree of the lowest three levels replayed
inside one of the lowest six is copied with it.  A visit whose recorded
nodes would pass the budget walks the subtree instead, so every charge
and every stop is a walk's.  On the liftc12 listing to norm 3 this
computes 6,227 of a walk's 20,919 intervals (10,705 with the lowest
three levels alone).  Which levels replay is set once per listing, so a
tree too short for the deeper records pays nothing for them.

Leaves are bucketed by norm; each bucket is made positive, one sign
comparison a leaf, sorted as ints, which is the order of their
coordinates, and decoded to tuples once, in place.  So a listing is
sorted one norm at a time.  ``_listing`` hands it to its callers as two
columns, the norms and the vectors, where the vectors of one norm share
its one int.  Listings carry each norm in the scale of the lattice's
integral form, as the integer v (scale G) v^T; callers turn into
fractions only the norms they keep.

The context also keeps the minima ball: the listing at the largest
diagonal entry of the reduced Gram matrix, with the nodes it cost and
the frame chosen from it by ``linalg._insert``, the rank test over Q
on coordinates, which keeps the annihilator of the frame's span.
``_ball`` alone lists, keeps and charges it, and it is enumerated once:
``successive_minima``, ``qb``, ``hermite_Hb`` and ``maximal_index`` read
the frame and the listing from the context it returns.  A later call
spends the nodes the listing cost, so every result, node total and
budget failure is what a fresh lattice would give, whatever ran before.
No other listing is kept: ``vectors_up_to`` and ``minimum`` walk the
tree on each call.

A node budget guards against runaway trees.  It is one allowance per
public call, its ``budget`` argument or else ``DEFAULT_NODE_BUDGET``,
held by the one ``_Counter`` the call makes; every phase of the call
spends from it, and the private helpers take that counter, never a
budget.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from itertools import chain, islice, repeat
from operator import lshift, mul

from .core import GramLattice, InvariantReport, LatVec, _exact, determinant
from .errors import ResourceExceeded
from .linalg import _insert, identity_rows
from .reduction import ReducedBasis, _weights, lll

DEFAULT_NODE_BUDGET = 10**9

# The levels whose subtrees ``_enumerate`` replays, wherever they lie
# below the top level: the subtree below a node of level 3 spans levels
# 2, 1 and 0, and the one below a node of level 6 levels 5 to 0.
# Replaying level 4 instead of 5, or level 8 as well, is no faster on
# the liftc12 listings.
_REPLAYED = (2, 5)


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


class _Columns:
    """A sorted listing: ``vectors[i]`` has the norm ``norms[i]``, as v (scale G) v^T.

    Its length and its iteration, (norm, vector) pairs in order, are
    those of the listing.  A plain class: a dataclass would add half a
    millisecond to importing the package.
    """

    __slots__ = ("norms", "vectors")

    def __init__(self, norms: tuple[int, ...], vectors: tuple[LatVec, ...]):
        self.norms, self.vectors = norms, vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return zip(self.norms, self.vectors)


@dataclass
class _Context:
    """All a lattice keeps for its listings; ``_context`` makes it.

    The LLL reduction, the largest and least reduced diagonal entries
    and, once ``_ball`` has listed it, the minima ball at ``radius``:
    its listing, node cost and frame, and the frame's norms as integers
    v (scale G) v^T, which only ``_ball`` writes.
    """

    reduced: ReducedBasis
    radius: Fraction
    least: Fraction
    ball: _Columns | None = None
    nodes: int = 0
    frame: Frame | None = None
    minima: tuple[int, ...] | None = None


def _context(L: GramLattice) -> _Context:
    """The lattice's context, reduced on first use; no other module touches ``L._context``."""
    if L._context is None:
        reduced, scale = lll(L), L._form.scale
        object.__setattr__(L, "_context", _Context(
            reduced, Fraction(max(reduced.diagonal), scale), Fraction(min(reduced.diagonal), scale)))
    return L._context


class _Counter:
    __slots__ = ("nodes", "budget")

    def __init__(self, budget: int | None):
        self.nodes = 0
        self.budget = DEFAULT_NODE_BUDGET if budget is None else budget
        if self.budget < 0:
            raise ValueError(f"node budget must not be negative, got {self.budget}")

    def spend(self, amount: int = 1):
        """Count ``amount`` nodes at once.

        The walk stops as soon as the count passes the budget, and the
        error names the node that crossed it, as when counting one by one.
        """
        self.nodes += amount
        if self.nodes > self.budget:
            raise ResourceExceeded(self.budget + 1, self.budget)


def _times(v, cols) -> list[int]:
    """The inner products of ``v`` with each of ``cols``: ``v * a`` for a symmetric ``a``."""
    return [sum(map(mul, v, col)) for col in cols]


def _dot(u, v) -> int:
    """The inner product of two integer vectors."""
    return sum(map(mul, u, v))


# struct codes of the signed fields up to 64 bits, by width
_FIELD_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}


def _bounds(reduced: ReducedBasis, w: list[int], top: int) -> tuple[int, int]:
    """Bounds on |x_i| and |centre_j| for every coordinate and centre ``_enumerate`` visits.

    ``w`` and ``top`` are the level weights and the bound over ``weight *
    scale``, as in ``_enumerate``.  Level j of the tree admits the y_j
    with |d[j+1] * y_j + centre_j| at most isqrt(top // w[j]), and
    |centre_j|, or any partial sum of it, is at most the reach R[j], the
    sum over k > j of |lam[k][j]| * Y[k]; so every y_j is bounded by
    Y[j], and every coordinate of sum y_j * rows[j] by max_i sum_j Y[j]
    * |rows[j][i]|.  Returns that bound and the largest R[j], in O(n^2)
    integer operations.
    """
    d, lam = reduced.minors, reduced.lam
    n = len(d) - 1
    ys = [0] * n
    centres = 0
    for j in reversed(range(n)):
        reach = 0
        for k in range(j + 1, n):
            reach += abs(lam[k][j]) * ys[k]
        if reach > centres:
            centres = reach
        ys[j] = (isqrt(top // w[j]) + reach) // d[j + 1]
    coords = [0] * n
    for y, row in zip(ys, reduced.transform):
        coords = [c + y * abs(x) for c, x in zip(coords, row)]
    return max(coords), centres


def _field_width(bound: int) -> int:
    """The least of 8, 16, 32 and 64, else of the multiples of 64, above ``bound``'s bit length."""
    bits = bound.bit_length() + 1  # with the sign
    for width in _FIELD_CODES:
        if bits <= width:
            return width
    return -(-bits // 64) * 64


def _enumerate(reduced: ReducedBasis, bound: Fraction,
               counter: _Counter) -> dict[int, list[LatVec]]:
    """Nonzero solutions of y G y^T <= bound, one per +- pair, bucketed by norm.

    Returns a dict from each norm, as the integer y (scale G) y^T, to
    the sorted coords of its vectors, in the original basis with their
    first nonzero entry positive.  Levels are visited top down and the
    integers of each level in increasing order, from level n above the
    top, which takes only the value 0 and weighs nothing, so ``descend``
    computes every interval and lists every leaf, a rank 1 tree's too.
    The walk keys its buckets by what a leaf leaves of ``top``, the bound
    over ``weight * scale`` (see ``_weights``), and turns each key into
    the norm, with one exact division by ``weight``, once at its end.

    Partial vectors and leaves are packed ints: coordinate i sits in
    field n-1-i of W bits, offset by 2^(W-1), where W is the least width
    whose signed fields hold the coordinate bound of ``_bounds``.  So
    adding a multiple of a packed row adds the coordinates, the packed
    zero vector compares above exactly the vectors whose first nonzero
    coordinate is positive, and the order of packed ints is the
    lexicographic order of their coordinates.  The centres of the lower
    levels travel down in one int too: centre i sits in field i of C
    bits, offset by 2^(C-1), where C holds the centre bound of
    ``_bounds``, so a child adds a multiple of its level's packed ``lam``
    row.  The walk counts its nodes itself and charges the counter once,
    at its end or at the node that crosses the budget.

    The leaves go to one output of two lists in walk order: ``leaves``
    holds each packed leaf and ``keys`` what it leaves of ``top``.  The
    subtree below a node of level r + 1 is fixed by what the levels
    above leave of ``top``, which is all of it exactly when every level
    above is zero, and by fields 0..r of the packed centres, which hold
    the centres of the levels below; its leaves are the vector above plus
    leaves of that state alone, with the same keys.  Each level r of
    ``_REPLAYED`` below the top level gets one dict per call, which maps
    each such state the walk meets to the nodes of its subtree, the range
    of the output its first visit wrote and the vector above them; the
    table of levels, made once per call, names the ``visit`` of that dict
    as the child of level r + 1, and ``descend`` as the child of every
    other level.  A state's first visit walks the subtree with the same
    ``descend``, charged and stopped like any walk, and records it; a
    later visit adds the recorded nodes to the count when they fit in
    what is left of the budget, and appends the recorded range again,
    the keys as they are and each leaf plus the difference of its vector
    above and the recorded one, and otherwise walks the subtree to the
    node that crosses the budget.  The output is bucketed by key once,
    after the walk, and dropped, so the buckets alone hold the leaves
    through the decoding.  A leaf's sign depends on the vector above, so
    the leaves are made positive at the end, before they are sorted.
    """
    scale, d, lam = reduced.scale, reduced.minors, reduced.lam
    n = len(d) - 1
    weight, w = _weights(d)
    top = weight * scale * bound.numerator // bound.denominator
    coords, centres = _bounds(reduced, w, top)
    width = _field_width(coords)
    shifts = range(width * (n - 1), -1, -width)
    zero = sum(map(lshift, repeat(1 << (width - 1), n), shifts))
    twice = 2 * zero
    rows = [sum(map(lshift, row, shifts)) for row in reduced.transform]
    bits = centres.bit_length() + 1
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    cshifts = range(0, bits * n, bits)
    keys, leaves = [], []
    d1, w0, row0 = d[1], w[0], rows[0]
    left = counter.budget - counter.nodes

    def descend(level, lo, hi, rem, centre, cen, above, count):
        # The values [lo, hi] of ``level`` in 1..n, in ``count`` but for the
        # root at level n, below the y_j of the levels j above: ``above`` is
        # sum y_j * rows[j] plus the packed zero vector, ``rem`` what their
        # weight leaves of ``top``, ``centre`` this level's centre and field
        # i of ``cen`` holds half + sum lam[j][i] * y_j.  Returns ``count``
        # with the nodes below added.
        dl, wl, dc, wc, coeff, shift, row, lam_row, below = levels[level]
        t = dl * lo + centre
        cc = ((cen >> shift) & mask) - half
        for value in range(lo, hi + 1):
            # the child's values z: wc * (dc * z + centre)^2 <= r
            r = rem - wl * t * t
            t += dl
            centre = cc + value * coeff
            s = isqrt(r // wc)
            child_hi = (s - centre) // dc
            zero_above = not value and above == zero
            child_lo = 0 if zero_above else -((s + centre) // dc)
            if child_hi < child_lo:
                continue
            count += child_hi - child_lo + 1
            if count > left:
                counter.spend(count)
            v = above + value * row
            if level > 1:
                count = below(level - 1, child_lo, child_hi, r, centre,
                              cen + value * lam_row, v, count)
                continue
            # the leaves v + y * rows[0]; below an all-zero prefix the
            # first, y = 0, is the zero vector
            if zero_above:
                child_lo = 1
            t0 = d1 * child_lo + centre
            leaf = v + child_lo * row0
            for _ in range(child_lo, child_hi + 1):
                keys.append(r - w0 * t0 * t0)
                leaves.append(leaf)
                t0 += d1
                leaf += row0
        return count

    def replayer(kept):
        # ``descend`` for the subtrees whose state is what their parent
        # leaves of ``top`` and the fields of the packed centres below bit
        # ``kept``, keyed by both in one int; a state's record is its
        # nodes, the range of the output its first visit wrote and the
        # vector above that range
        low = (1 << kept) - 1
        memo = {}

        def visit(level, lo, hi, rem, centre, cen, above, count):
            key = rem << kept | cen & low
            entry = memo.get(key)
            if entry is None:
                start, spent = len(leaves), count
                count = descend(level, lo, hi, rem, centre, cen, above, count)
                memo[key] = (count - spent, start, len(leaves), above)
                return count
            nodes, start, end, first = entry
            if count + nodes > left:
                # the budget runs out inside: walk to the node that crosses it
                return descend(level, lo, hi, rem, centre, cen, above, count)
            keys.extend(keys[start:end])
            leaves.extend(map((above - first).__add__, leaves[start:end]))
            return count + nodes
        return visit

    # level l >= 1: d[l+1], w[l], d[l], w[l-1], lam[l][l-1], the shift of
    # centre l-1, rows[l], the packed lam[l] and the child it calls; level
    # n, above the top, has no weight, no row and its one value 0
    below = [descend] * n
    for r in _REPLAYED:
        if n >= r + 2:
            below[r + 1] = replayer(bits * (r + 1))
    levels = [None] + list(zip(d[2:], w[1:], d[1:], w, [row[-1] for row in lam[1:]], cshifts,
                               rows[1:], [sum(map(lshift, row, cshifts)) for row in lam[1:]],
                               below[1:]))
    levels.append((0, 0, d[n], w[n - 1], 0, cshifts[n - 1], 0, 0, descend))
    try:
        count = descend(n, 0, 0, top, 0, sum(map(lshift, repeat(half, n), cshifts)), zero, 0)
    finally:
        # ``descend`` and the visits refer to each other through
        # ``levels``; break the cycle so that a dropped listing is freed
        # at once, not at the next full collection
        descend = levels = below = None
    counter.spend(count)
    buckets: defaultdict[int, list] = defaultdict(list)
    for r, leaf in zip(keys, leaves):
        buckets[r].append(leaf)
    # the buckets alone hold the leaves through the decoding
    del keys[:], leaves[:]
    # Each field of ``p ^ zero`` holds its coordinate in two's complement.
    size = n * width // 8
    if width in _FIELD_CODES:
        decode = struct.Struct(f">{n}{_FIELD_CODES[width]}").unpack
    else:
        step = width // 8

        def decode(raw):
            return tuple([int.from_bytes(raw[i:i + step], "big", signed=True)
                          for i in range(0, size, step)])
    listing = {}
    for r in list(buckets):
        # each leaf made positive, and each raw bucket dropped as it goes
        vectors = [p if p > zero else twice - p for p in buckets.pop(r)]
        vectors.sort()
        for k, p in enumerate(vectors):
            vectors[k] = decode((p ^ zero).to_bytes(size, "big"))
        listing[(top - r) // weight] = vectors
    return listing


def _listing(L: GramLattice, bound: Fraction, counter: _Counter) -> _Columns:
    """The nonzero vectors of norm <= bound, sorted, as two columns.

    Each norm is the integer v (scale G) v^T of the lattice's integral
    form, and the vectors of one norm share its one int object.
    """
    buckets = _enumerate(_context(L).reduced, Fraction(bound), counter)
    order = sorted(buckets)
    norms = tuple(chain.from_iterable([repeat(num, len(buckets[num])) for num in order]))
    return _Columns(norms, tuple(chain.from_iterable(map(buckets.pop, order))))


def _ball(L: GramLattice, counter: _Counter) -> _Context:
    """The lattice's context holding its minima ball, paid for from ``counter``.

    The ball is the listing at the context's ``radius``.  The first call
    lists it and keeps its listing, the nodes it cost and the frame of
    successive minima: each ball vector independent of those before it
    joins the frame, so ties go to the least coordinate vector with
    positive first nonzero entry.  A vector is independent when some
    row of the span's annihilator, kept by ``linalg._insert``, is not
    orthogonal to it, so a dependent one costs a dot product per row.
    Equal norms of the frame share one Fraction.
    A later call spends the kept nodes in one step.  When they exceed
    what is left of the counter's budget the tree is walked again
    instead, so the call stops at the node where a fresh walk stops.
    """
    context = _context(L)
    if context.ball is not None and context.nodes <= counter.budget - counter.nodes:
        counter.spend(context.nodes)
        return context
    start = counter.nodes
    ball = _listing(L, context.radius, counter)
    annihilator = identity_rows(L.n)
    values, vectors = zip(*islice(((x, v) for x, v in ball if _insert(annihilator, v)), L.n))
    fractions = {x: Fraction(x, L._form.scale) for x in set(values)}
    norms = tuple(map(fractions.__getitem__, values))
    context.ball, context.nodes, context.minima = ball, counter.nodes - start, values
    context.frame = Frame(vectors=vectors, norms=norms)
    return context


def vectors_up_to(L: GramLattice, bound: Fraction,
                  budget: int | None = None) -> ShellListing:
    """Complete listing of nonzero vectors of norm at most ``bound``."""
    bound = _exact(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    return ShellListing(bound=bound, vectors=_listing(L, bound, _Counter(budget)).vectors)


def minimum(L: GramLattice, budget: int | None = None) -> tuple[Fraction, ShellListing]:
    """The minimum of the lattice together with all its minimal vectors.

    The listing runs to the least diagonal entry of the reduced Gram
    matrix and is made afresh on each call.
    """
    return _minimum(L, _Counter(budget))


def _minimum(L: GramLattice, counter: _Counter) -> tuple[Fraction, ShellListing]:
    """``minimum``, paid for from ``counter``."""
    listing = _listing(L, _context(L).least, counter)
    top = listing.norms[0]
    shell = listing.vectors[:bisect_right(listing.norms, top)]
    best = Fraction(top, L._form.scale)
    return best, ShellListing(bound=best, vectors=shell)


def successive_minima(L: GramLattice, budget: int | None = None) -> Frame:
    """A frame of the successive minima, chosen deterministically (see ``_ball``)."""
    return _ball(L, _Counter(budget)).frame


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
