"""The search machinery of ``watson.maximal_index`` over frames of successive minima.

The frame search reads the minima ball in one layout, ``_shells``: one
(count, vectors) pair per distinct successive minimum, in increasing
norm, where ``count`` minima take that norm and ``vectors`` are the
ball's coordinate vectors of that norm, in listing order.  A frame takes
``count`` distinct vectors from each shell.  Three tools read the
shells: ``_orthogonal_seed``, a greedy frame that prefers orthogonal
vectors; ``_root_index``, which gives the largest index of a frame in
closed form when the minima form a root system, from the types of its
irreducible components; and ``_frames``, the frame tree, which yields
every frame of index at least a bar that its reader may raise, with its
index, in one fixed order, and charges a node only when the walk
reaches it.  The seed multiplies just the vectors it picks by the
cleared Gram matrix; the root system test and the tree read shells that
pair each vector with the vector times that matrix, built once, and the
seed's picks there carry the products the seed formed.
Everything is exact: independence comes from the annihilator of the
span of the picks, integer rows orthogonal to them on coordinates
(``linalg._insert``), and Gram determinants from fraction-free pivot
rows (Cohen, GTM 138, Alg. 2.6.7).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter

from .core import _pivot_row
from .enumeration import _Context, _Counter, _dot, _times
from .linalg import _insert, identity_rows


def _shells(context: _Context) -> list[tuple[int, tuple[tuple[int, ...], ...]]]:
    """The minima ball of ``context`` (see ``_ball``) as the frame search reads it.

    One (count, vectors) pair per distinct successive minimum, in
    increasing norm: ``count`` is how many of the minima take that norm
    and ``vectors`` are the ball's coordinate vectors of that norm, in
    listing order.  The ball's norms are sorted, so each shell is the
    slice of its vectors between two bisections of them.
    """
    norms, vectors = context.ball.norms, context.ball.vectors
    shells, end = [], 0
    for value, count in Counter(context.minima).items():
        start = bisect_left(norms, value, end)
        end = bisect_right(norms, value, start)
        shells.append((count, vectors[start:end]))
    return shells


def _orthogonal_seed(shells, a):
    """A greedy frame of minima preferring pairwise orthogonal vectors.

    A pairwise orthogonal frame attains the Hadamard bound, and a seed
    that reaches the bound settles ``maximal_index`` with no search at
    all.  ``shells`` is laid out as ``_shells`` lays it out, and ``a``
    is the cleared Gram matrix.  Each of a shell's ``count`` positions
    takes the first vector of the shell whose integral inner products
    with the vectors already chosen all vanish, which makes it
    independent of them.  Failing that, it takes the first vector of the
    shell independent of them, which exists: the vectors up to the
    shell's norm span more dimensions than the picks so far, and the
    shorter ones lie in the span of the earlier shells' picks.  Only a
    chosen vector is multiplied by ``a``: each shell is narrowed, in
    listing order, to the vectors orthogonal to every pick so far, once
    per pick.  Returns the frame and a dict from each pick to its
    product with ``a``, for the pairing to reuse.
    """
    chosen: list[tuple[int, ...]] = []
    picked: list[list[int]] = []
    annihilator = identity_rows(len(a))
    for count, shell in shells:
        left, seen = shell, 0
        for _ in range(count):
            for wa in picked[seen:]:
                left = [v for v in left if not _dot(v, wa)]
            seen = len(picked)
            if left:
                v = left[0]
                _insert(annihilator, v)
            else:
                for v in shell:
                    if _insert(annihilator, v):
                        break
            chosen.append(v)
            picked.append(_times(v, a))
    return tuple(chosen), dict(zip(chosen, picked))


# The largest determinant of a full-rank subsystem of E6, E7 and E8,
# keyed by rank and number of pairs: A2^3, A1^7 and A1^8.
_EXCEPTIONAL = {(6, 36): 27, (7, 63): 128, (8, 120): 256}


def _subsystem_det(r: int, p: int) -> int:
    """The largest determinant of a full-rank subsystem of an irreducible root system.

    The system is simply laced, of rank ``r`` with ``p`` pairs of roots
    of norm 2.  A_r has r(r+1)/2 pairs and no full-rank subsystem but
    itself; D_r has r(r-1) and its largest one is D_2^(r/2) or D_3 +
    D_2^((r-3)/2) (D_2 = A_1^2, D_3 = A_3); A_3 = D_3 is the one type
    both formulas count.  See Borel and de Siebenthal (Comment. Math.
    Helv. 23, 1949) and Dynkin (Mat. Sbornik 30, 1952).
    """
    if 2 * p == r * (r + 1):
        return r + 1
    if p == r * (r - 1):
        return 4 ** (r // 2)
    return _EXCEPTIONAL[r, p]


def _root_index(shells, det_a: int) -> int | None:
    """The maximal index over frames of minima when the minima form a root system, else None.

    ``shells`` is laid out as ``_frames`` reads it, each vector paired
    with the vector times the cleared Gram matrix, and ``det_a`` is that
    matrix's determinant.  The minima form a root system when they are
    one shell and 2(u.v)/min is an integer for every pair u, v of
    minimal vectors: then, scaled to norm 2, they are the roots of a
    simply laced system, since u - v or u + v is again minimal whenever
    u.v is nonzero.  A frame of minima spans the root lattice of the
    roots its span holds, a full-rank subsystem, and the simple roots of
    any full-rank subsystem form a frame, so the largest index is
    sqrt(prod d_c / det L) with L scaled to minimum 2, where d_c is
    ``_subsystem_det`` of each irreducible component c: the connected
    components of the graph on the minimal vectors joined by a nonzero
    inner product, typed by their rank and their number of pairs.  The
    test stops at the first pair that fails it; it reads only the shell
    and charges no nodes.
    """
    if len(shells) > 1:
        return None
    ((n, shell),) = shells
    least = _dot(*shell[0])
    links: list[list[int]] = [[] for _ in shell]
    for i, (_, va) in enumerate(shell):
        for j in range(i):
            x = _dot(shell[j][0], va)
            if 2 * x % least:
                return None
            if x:
                links[i].append(j)
                links[j].append(i)
    dets, seen = 1, set()
    for start in range(len(shell)):
        if start in seen:
            continue
        seen.add(start)
        stack, annihilator, pairs = [start], identity_rows(n), 0
        while stack:
            i = stack.pop()
            pairs += 1
            _insert(annihilator, shell[i][0])
            for j in links[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        dets *= _subsystem_det(n - len(annihilator), pairs)
    # [L:F]^2 = prod d_c / det(L * 2/min), and det(L * 2/min) is
    # det_a * 2^n / least^n with least = scale * min
    return math.isqrt(dets * least**n // (det_a << n))


def _frames(bar: list[int], shells, tail, det_a: int, counter: _Counter):
    """Yield (index, frame) for each frame of index at least ``bar[0]``, in the tree's order.

    The reader may raise ``bar[0]`` between yields; one that never does
    gets every frame of index at least its first value.  A leaf's minor
    det(F (scale G) F^T) is the frame's index squared times ``det_a``,
    so no frame is reduced again.  ``shells`` is laid out as ``_shells``
    lays it out, but each vector comes paired with the vector times the
    cleared Gram matrix.  The tree fills the ``count`` positions of a
    shell in turn with vectors of that shell, in strictly increasing
    listing order, so it meets each frame once, and takes a node's
    children by decreasing leading minor, then by listing order.  That
    order depends on the prefix alone, so a prune that cuts only
    subtrees holding no frame of index at least the bar keeps those
    frames in their order.  The one prune is the Hadamard bound in the
    cleared form ``scale * G``: a prefix of k + 1 vectors has leading
    minor scale**(k+1) times its Gram determinant, ``tail[k+1]`` is the
    product of the minima still to place, each as v (scale G) v^T, and
    ``det_a`` is det(scale G).  The scales cancel: the prefix has
    completions of index m only if minor > ceil(m**2 * det_a /
    tail[k+1]) - 1.  A node stops at its first child that fails the bar
    as it then stands; the rest have smaller minors.  Each minor is a
    node, charged when the walk reaches it.
    """
    # position k draws from ``pools[k][0]``, after the last pick when it
    # is not the first position of its shell
    pools = [(shell, i) for count, shell in shells for i in range(count)]
    n = len(pools)
    chosen: list[tuple[int, ...]] = []
    minors, coeffs = [1], []
    spend = counter.spend

    def descend(k: int, last: int):
        if k == n:
            yield math.isqrt(minors[-1] // det_a), tuple(chosen)
            return
        pool, i = pools[k]
        start = last + 1 if i else 0
        ranked = []
        for j in range(start, len(pool)):
            spend()
            v, va = pool[j]
            row = _pivot_row([_dot(va, w) for w in chosen] + [_dot(va, v)], minors, coeffs)
            ranked.append((-row[-1], j, row))
        ranked.sort()
        for negminor, j, row in ranked:
            # minor > limit exactly when minor * tail[k+1] >= bar**2 * det_a
            limit = -(-bar[0] ** 2 * det_a // tail[k + 1]) - 1
            if -negminor <= limit:
                break
            chosen.append(pool[j][0])
            minors.append(-negminor)
            coeffs.append(row[:-1])
            yield from descend(k + 1, j)
            chosen.pop()
            minors.pop()
            coeffs.pop()

    try:
        yield from descend(0, -1)
    finally:
        # ``descend`` refers to itself; break the cycle so the shells are
        # freed when the reader drops the walk
        descend = None
