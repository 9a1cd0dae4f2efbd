"""The search machinery of ``watson.maximal_index`` over frames of successive minima.

The frame search reads the minima ball in one layout, ``_shells``: one
(count, vectors) pair per distinct successive minimum, in increasing
norm, where ``count`` minima take that norm and ``vectors`` are the
ball's coordinate vectors of that norm, in listing order.  A frame takes
``count`` distinct vectors from each shell.  Three tools read the
shells: ``_orthogonal_seed``, a greedy frame that prefers orthogonal
vectors; ``_divides``, which decides whether p divides some frame's
index by looking for a kernel of a functional mod p that holds a frame;
and ``_first_frame``, the frame tree, which finds the first frame of
index at least m in one fixed order.  Only the tree reads every inner
product, so only its shells pair each vector with the vector times the
cleared Gram matrix; the seed multiplies just the vectors it picks.
Everything is exact: independence comes from an integer echelon on
coordinates (``linalg._insert``) and Gram determinants from
fraction-free pivot rows (Cohen, GTM 138, Alg. 2.6.7).
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import groupby, product
from operator import and_, itemgetter, mul, or_

from .core import _pivot_row
from .enumeration import _Context, _Counter, _dot, _times
from .linalg import _insert


def _shells(context: _Context) -> list[tuple[int, list[tuple[int, ...]]]]:
    """The minima ball of ``context`` (see ``_ball``) as the frame search reads it.

    One (count, vectors) pair per distinct successive minimum, in
    increasing norm: ``count`` is how many of the minima take that norm
    and ``vectors`` are the ball's coordinate vectors of that norm, in
    listing order.  The ball reaches past the last minimum and is sorted
    as a listing at it would be, so the walk stops at the first norm past
    it.
    """
    counts = Counter(context.minima)
    last = context.minima[-1]
    shells = []
    for value, group in groupby(context.pairs, key=itemgetter(0)):
        if value > last:
            break
        if value in counts:
            shells.append((counts[value], [v for _, v in group]))
    return shells


def _orthogonal_seed(shells, a):
    """Best-effort frame preferring pairwise orthogonal vectors.

    A pairwise orthogonal frame attains the Hadamard bound, and a seed
    that reaches the bound settles ``maximal_index`` with no search at
    all.  ``shells`` is laid out as ``_shells`` lays it out, and ``a``
    is the cleared Gram matrix.  Each of a shell's ``count`` positions
    takes the first vector of the shell whose integral inner products
    with the vectors already chosen all vanish, which makes it
    independent of them.  Failing that, it takes the first vector of the
    shell independent of them.  Only a chosen vector is multiplied by
    ``a``: each shell is narrowed, in listing order, to the vectors
    orthogonal to every pick so far, once per pick.  Returns None when
    the greedy pass dead-ends.
    """
    chosen: list[tuple[int, ...]] = []
    picked: list[list[int]] = []
    echelon: dict[int, list[int]] = {}
    for count, shell in shells:
        left, seen = shell, 0
        for _ in range(count):
            for wa in picked[seen:]:
                left = [v for v in left if not _dot(v, wa)]
            seen = len(picked)
            if left:
                v = left[0]
                _insert(echelon, v)
            else:
                for v in shell:
                    if _insert(echelon, v):
                        break
                else:
                    return None
            chosen.append(v)
            picked.append(_times(v, a))
    return tuple(chosen)


def _primes(m: int) -> list[int]:
    """The prime divisors of ``m``, in increasing order."""
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def _holds_frame(kernel: int, shells) -> bool:
    """Whether the shell vectors whose bits ``kernel`` sets contain a frame of the minima.

    Bit t of ``kernel`` is the t-th vector of ``shells`` (see
    ``_shells``), counted shell after shell.  Independent sets form a
    matroid, so a greedy pass that takes each vector independent of
    those already taken, in norm order, finds such a frame whenever one
    exists: the set holds one exactly when every shell adds its count.
    A shell fails as soon as more of its vectors are dependent than it
    can spare.
    """
    echelon: dict[int, list[int]] = {}
    for count, shell in shells:
        bits = kernel & ((1 << len(shell)) - 1)
        kernel >>= len(shell)
        spare = bits.bit_count() - count
        if spare < 0:
            return False
        for t, v in enumerate(shell):
            if bits >> t & 1:
                if _insert(echelon, v):
                    count -= 1
                    if not count:
                        break
                else:
                    spare -= 1
                    if spare < 0:
                        return False
    return True


def _divides(p: int, shells, counter: _Counter) -> bool:
    """Whether p divides the index of some frame of the minima.

    p divides [L:F] exactly when F lies in the kernel of a nonzero
    functional L -> Z/p, so the answer is whether some such kernel holds
    a frame; it is given at the first kernel that does.  A kernel is a
    bit mask over the vectors of ``shells`` (see ``_holds_frame``).  A
    functional is its values on the basis, up to a unit, so there are
    (p^n - 1)/(p - 1) of them, each counted as one node.  They are met
    in the middle: the values on the first n // 2 coordinates and on the
    rest each get a table that lists, for every residue r, the shell
    vectors on which that half takes r, so a functional's kernel is the
    union over r of head[-r] & tail[r], a few integer operations whatever
    the shells' size.  A kernel with fewer than n vectors, or one already tested, is
    dropped before the greedy test.
    """
    residues = [[x % p for x in v] for _, shell in shells for v in shell]
    n = len(residues[0])
    h = n // 2

    def tables(lo, hi, partials):
        out = []
        for g in partials:
            table = [0] * p
            for t, r in enumerate(residues):
                table[sum(map(mul, g, r[lo:hi])) % p] |= 1 << t
            out.append(table)
        return out

    def units(k):
        # nonzero partial functionals whose first nonzero value is 1
        return [(0,) * i + (1,) + rest for i in range(k) for rest in product(range(p), repeat=k - i - 1)]

    # each head table re-indexed by -r mod p, so its entry r pairs with
    # the tail tables' entry r
    heads = [table[:1] + table[:0:-1] for table in tables(0, h, units(h))]
    tails = tables(h, n, product(range(p), repeat=n - h))
    pairs = [(head, tails) for head in heads]
    # the functionals that vanish on the head coordinates
    pairs.append(([(1 << len(residues)) - 1] + [0] * (p - 1), tables(h, n, units(n - h))))
    seen: set[int] = set()
    for head, rest in pairs:
        counter.spend(len(rest))
        for tail in rest:
            kernel = reduce(or_, map(and_, head, tail))
            if kernel.bit_count() < n or kernel in seen:
                continue
            seen.add(kernel)
            if _holds_frame(kernel, shells):
                return True
    return False


def _first_frame(m: int, shells, room, counter: _Counter):
    """The first frame of index at least ``m`` in the frame tree's order, or None.

    ``shells`` is laid out as ``_shells`` lays it out, but each vector
    comes paired with the vector times the cleared Gram matrix.  The
    tree fills the ``count`` positions of a shell in turn with vectors of
    that shell, in strictly increasing listing order, and takes a node's
    children by decreasing leading minor, then by listing order.  That
    order depends on the prefix alone, so a prune that cuts only subtrees
    holding no frame of index at least m leaves the first such frame
    where it was.  The one prune is the Hadamard bound: with the Gram
    matrix cleared as ``scale * G``, a prefix of k + 1 vectors with Gram
    determinant minor / scale**(k+1) has completions of index m only if
    minor * tail[k+1] >= m**2 * det(L) * scale**(k+1), with tail[k+1]
    the product of the minima still to place, i.e. when minor >= m**2 *
    room[k] for ``room[k] = det(L) * scale**(k+1) / tail[k+1]``.  Each
    leading minor computed is counted as a node.  Every leaf has index
    at least m.
    """
    # position k draws from ``pools[k][0]``, after the last pick when it
    # is not the first position of its shell
    pools = [(shell, i) for count, shell in shells for i in range(count)]
    n = len(pools)
    # minor > limits[k] exactly when minor >= m**2 * room[k]
    limits = [-(-m * m * x.numerator // x.denominator) - 1 for x in room]
    chosen: list[tuple[int, ...]] = []
    minors, coeffs = [1], []
    spend = counter.spend

    def descend(k: int, last: int):
        if k == n:
            return tuple(chosen)
        pool, i = pools[k]
        start = last + 1 if i else 0
        limit = limits[k]
        ranked = []
        for j in range(start, len(pool)):
            spend()
            v, va = pool[j]
            row = _pivot_row([_dot(va, w) for w in chosen] + [_dot(va, v)], minors, coeffs)
            if row[-1] > limit:
                ranked.append((-row[-1], j, row))
        ranked.sort()
        for negminor, j, row in ranked:
            chosen.append(pool[j][0])
            minors.append(-negminor)
            coeffs.append(row[:-1])
            found = descend(k + 1, j)
            if found is not None:
                return found
            chosen.pop()
            minors.pop()
            coeffs.pop()
        return None

    try:
        return descend(0, -1)
    finally:
        # ``descend`` refers to itself; break the cycle so the shells are
        # freed on return
        descend = None
