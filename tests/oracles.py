"""Independent brute force reference implementations.

Everything here recomputes package results along a different code path:
ranks and inverses by Gaussian elimination over Q, integer determinants
by fraction-free (Bareiss) elimination, vector listings by coordinate
boxes, the class minima of L/2L by one covering box on the reference LLL
basis and the least product over their bases by trying every subset,
Smith invariants by minor gcds, basis search by testing every candidate
subset, LLL by recomputing the Gram-Schmidt data from scratch after
every swap, the reduced Gram matrix as U G U^T, binary code classes by
walking every generator matrix in echelon form, the canonical form of a
binary code by applying every matrix of GL(k, 2) to its columns, the
code bound by trying every k-subset of the words, construction witnesses
from their definitions, the random lattice models by conjugating every
candidate with matrix products, short-vector listings by the
Fincke-Pohst kernel as first written (a centre loop per node, a sign
test per leaf, one sort), frames of successive minima by fraction-free
pivot rows over the Gram matrix, the greedy frame of the index
search by scanning every pool vector's inner products, the index of
every frame of the minima by listing every frame, the index
ceiling floor(gamma_n^(n/2)) by squaring candidates, and the shells of
E8 by the divisor sums of its theta series.  Slow on purpose;
the tests only feed these small instances.

``_below``, ``random_unimodular``, ``narrow_random_gram``,
``conjugate``, ``scaled`` and ``repetition`` are test helpers rather
than references: they draw an index below a width the way the sampler
does, draw unimodular matrices the way it does, draw random lattices
with smaller entries than it does, present a lattice on a new basis,
multiply its form by a positive rational and build the binary
repetition code.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
import math
from math import floor, gcd, isqrt

from latquot.linalg import identity_rows, matmul, transpose
from latquot.core import HERMITE_POWER, GramLattice, _pivot_row, determinant, qform, validate
from latquot.enumeration import (
    Frame, _Counter, _context, _dot, _listing, _times, _weights, successive_minima,
)
from latquot.errors import NotPositiveDefinite, ResourceExceeded
from latquot.reduction import lll
from latquot.watson import IndexReport, quotient_structure
from latquot.sampling import _apply, _moves


def det_int(rows) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank_rational(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = None
        for i in range(rank, len(m)):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        for i in range(rank + 1, len(m)):
            f = m[i][col] * inv
            if f:
                for j in range(col, cols):
                    m[i][j] -= f * m[rank][j]
        rank += 1
        if rank == len(m):
            break
    return rank


def inverse_rational(rows):
    """Inverse of a square rational matrix; raises ZeroDivisionError if singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [row[n:] for row in m]


def _ceil_sqrt(x: Fraction) -> int:
    """Smallest integer r with r*r >= x, for x >= 0."""
    num, den = x.numerator, x.denominator
    r = isqrt(num // den)
    while Fraction(r * r) < x:
        r += 1
    return r


def reference_index_bound(n: int) -> int:
    """Largest k with k*k <= gamma_n^n, found by counting up in Fractions."""
    k = 0
    while Fraction((k + 1) ** 2) <= HERMITE_POWER[n]:
        k += 1
    return k


def divisor_sigma(k: int, m: int) -> int:
    """The sum of d^k over the positive divisors d of m, by trial division."""
    return sum(d**k for d in range(1, m + 1) if m % d == 0)


def box_vectors(gram, bound: Fraction):
    """All nonzero vectors of norm <= bound, one per +- pair.

    Coordinates are boxed by |x_i| <= sqrt(bound * (G^-1)_ii), which is
    valid for any positive definite G, then filtered by exact norm.
    """
    n = len(gram)
    inv = inverse_rational([list(r) for r in gram])
    radii = [_ceil_sqrt(bound * inv[i][i]) for i in range(n)]
    out = []
    for coords in product(*[range(-r, r + 1) for r in radii]):
        if all(x == 0 for x in coords):
            continue
        first = next(x for x in coords if x)
        if first < 0:
            continue
        value = qform(gram, coords)
        if value <= bound:
            out.append((value, coords))
    out.sort()
    return out


def brute_minimum(gram) -> Fraction:
    """Lattice minimum; the shortest basis vector bounds the search."""
    bound = min(Fraction(gram[i][i]) for i in range(len(gram)))
    hits = box_vectors(gram, bound)
    return hits[0][0]


def brute_minima(gram) -> list[Fraction]:
    """Successive minima via the sorted box listing and rank tracking."""
    n = len(gram)
    bound = max(Fraction(gram[i][i]) for i in range(n))
    while True:
        listing = box_vectors(gram, bound)
        chosen: list[tuple[int, ...]] = []
        norms: list[Fraction] = []
        for value, coords in listing:
            if rank_rational([list(v) for v in chosen] + [list(coords)]) > len(chosen):
                chosen.append(coords)
                norms.append(value)
                if len(chosen) == n:
                    return norms
        bound *= 2


def brute_Hb_product(gram) -> tuple[Fraction, tuple]:
    """Minimal basis norm product by checking candidate subsets.

    A subset is a basis exactly when its determinant in basis
    coordinates is +-1.  The search bound is sound: in an optimal basis
    each member norm is at most the incumbent product divided by the
    product of the other members' norms, which is at least the product
    of the n-1 first successive minima.  Subsets are visited in
    ascending norm order so that losing branches can be cut on the
    partial product alone; every surviving subset is still tested by
    its determinant.
    """
    n = len(gram)
    incumbent = Fraction(1)
    for i in range(n):
        incumbent *= Fraction(gram[i][i])
    witness = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

    # a greedy independent frame of short vectors usually is a basis
    # and then gives a far smaller starting bound than the diagonal
    greedy: list[tuple[int, ...]] = []
    prod = Fraction(1)
    for value, coords in box_vectors(gram, max(Fraction(gram[i][i]) for i in range(n))):
        if rank_rational([list(v) for v in greedy] + [list(coords)]) > len(greedy):
            greedy.append(coords)
            prod *= value
            if len(greedy) == n:
                break
    if len(greedy) == n and abs(det_int(greedy)) == 1 and prod < incumbent:
        incumbent = prod
        witness = tuple(greedy)

    minima = brute_minima(gram)
    head = Fraction(1)
    for lam in minima[:-1]:
        head *= lam
    listing = box_vectors(gram, incumbent / head)
    state = {"best": incumbent, "witness": witness}

    def walk(start: int, chosen: list, prod: Fraction):
        k = len(chosen)
        if k == n:
            if abs(det_int(chosen)) == 1 and prod < state["best"]:
                state["best"] = prod
                state["witness"] = tuple(tuple(v) for v in chosen)
            return
        need = n - k
        for i in range(start, len(listing) - need + 1):
            value, coords = listing[i]
            if prod * value**need >= state["best"]:
                return
            if rank_rational([list(v) for v in chosen] + [list(coords)]) == k:
                continue
            chosen.append(coords)
            walk(i + 1, chosen, prod * value)
            chosen.pop()

    walk(0, [], Fraction(1))
    return state["best"], state["witness"]


def parity_cover(gram) -> Fraction:
    """A norm up to which every class of L/2L holds a vector.

    A class with parities c holds every vector with coordinates in
    {-1, 0, 1} that is nonzero exactly where c is odd; the cover is the
    largest, over the classes, of the least norm among those vectors.
    """
    least = {}
    for coords in product((-1, 0, 1), repeat=len(gram)):
        if any(coords):
            key = tuple(x % 2 for x in coords)
            value = qform(gram, coords)
            if key not in least or value < least[key]:
                least[key] = value
    return max(least.values())


def class_minima_mod2(gram) -> dict[tuple[int, ...], Fraction]:
    """The least norm in each nonzero class of L/2L, keyed by coordinate parities.

    The box runs on the reference LLL basis, whose box is small, and
    each listed vector is mapped back to the given basis.
    """
    reduced, rows = reference_lll(gram)
    minima = {}
    for value, y in box_vectors(reduced, parity_cover(reduced)):
        coords = [sum(a * row[j] for a, row in zip(y, rows)) for j in range(len(gram))]
        minima.setdefault(tuple(x % 2 for x in coords), value)
    return minima


def parity_product(gram) -> Fraction:
    """Least product of class minima over the F_2-bases of L/2L.

    Tries every n-subset of the nonzero classes, so only small ranks are
    affordable.
    """
    n = len(gram)
    minima = class_minima_mod2(gram)
    best = None
    for combo in combinations(minima, n):
        if _gf2_rank([sum(b << i for i, b in enumerate(c)) for c in combo]) < n:
            continue
        prod = Fraction(1)
        for c in combo:
            prod *= minima[c]
        if best is None or prod < best:
            best = prod
    return best


def minor_gcd_invariants(rows) -> list[int]:
    """Smith invariant factors from the gcds of all k x k minors."""
    m, n = len(rows), len(rows[0])
    rank = rank_rational([list(r) for r in rows])
    gcds = []
    for k in range(1, rank + 1):
        g = 0
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                minor = det_int([[rows[i][j] for j in csel] for i in rsel])
                g = gcd(g, minor)
        gcds.append(g)
    inv = []
    prev = 1
    for g in gcds:
        inv.append(g // prev)
        prev = g
    return inv


def gram_schmidt(gram):
    """Squared Gram-Schmidt norms b and coefficients mu of a Gram matrix."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            s = gram[i][j] - sum(mu[i][k] * mu[j][k] * b[k] for k in range(j))
            mu[i][j] = s / b[j]
        b[i] = gram[i][i] - sum(mu[i][k] ** 2 * b[k] for k in range(i))
    return b, mu


def reference_validate(matrix):
    """What constructing a lattice on ``matrix`` must report, by definition.

    ``("square",)`` if some row has the wrong length; ``("symmetric", (i,
    j))`` for the first entry above the diagonal, in row order, that
    differs from its mirror; ``("definite", k)`` for the order of the
    first leading principal minor that is not positive; otherwise
    ``("pivots", b)`` with b the squared Gram-Schmidt norms.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        return ("square",)
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                return ("symmetric", (i, j))
    g = [[Fraction(x) for x in row] for row in matrix]
    b, mu = [], []
    for i in range(n):
        mu.append([])
        for j in range(i):
            s = g[i][j] - sum(mu[i][k] * mu[j][k] * b[k] for k in range(j))
            mu[i].append(s / b[j])
        # earlier pivots are positive, so this one has the sign of minor i + 1
        pivot = g[i][i] - sum(mu[i][k] ** 2 * b[k] for k in range(i))
        if pivot <= 0:
            return ("definite", i + 1)
        b.append(pivot)
    return ("pivots", tuple(b))


def _below(bits, w: int) -> int:
    """``rand._randbelow(w)`` as CPython 3.10-3.13 draw it, from ``bits = rand.getrandbits``.

    The sampler inlines this draw; the tests check it against ``randint``.
    """
    k = w.bit_length()
    r = bits(k)
    while r >= w:
        r = bits(k)
    return r


def random_unimodular(rand, n):
    """A random determinant +-1 matrix built from the sampler's 12 elementary row moves."""
    return _apply(_moves(rand, n), identity_rows(n))


def narrow_random_gram(rand, n):
    """``sampling.random_gram`` with basis entries in [-2, 2], not [-3, 3].

    The box oracles stay affordable on these lattices.  The draws are
    ``rand.randint(-2, 2)`` row by row until the basis is nonsingular.
    """
    while True:
        rows = [[rand.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if det_int(rows):
            return GramLattice.from_rows(matmul(rows, transpose(rows)), label=f"random{n}")


def conjugate(L, u):
    """The same lattice presented on the transformed basis u."""
    gram = matmul(matmul(u, [list(r) for r in L.gram]), transpose(u))
    return GramLattice.from_rows(gram, label=L.label)


def scaled(L, c):
    """The same lattice with the quadratic form multiplied by ``c > 0``."""
    c = Fraction(c)
    assert c > 0
    return GramLattice.from_rows([[c * x for x in row] for row in L.gram], L.label)


def reference_random_unimodular(rand, n):
    """The sampler's unimodular draw as first written: each of 12 moves applied as it is drawn."""
    u = identity_rows(n)
    if n == 1:
        return u
    for _ in range(12):
        i, j = rand.sample(range(n), 2)
        c = rand.choice((-2, -1, 1, 2))
        for col in range(n):
            u[i][col] += c * u[j][col]
        if rand.random() < 0.5:
            u[i], u[j] = u[j], u[i]
    return u


def reference_perturbed(rand, L):
    """``sampling.perturbed`` as first written.

    Every candidate is conjugated by two matrix products and rejected
    only when constructing its lattice fails; after 12 noisy attempts
    the noise is zero, and the last fallback is never reached.
    """
    scale = 1
    for row in L.gram:
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
    base = [[int(x * scale) for x in row] for row in L.gram]
    n = L.n
    for attempt in range(24):
        m = 1 if attempt < 12 else 0
        noise = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                noise[i][j] = noise[j][i] = rand.randint(-m, m)
        cand = [[base[i][j] + noise[i][j] for j in range(n)] for i in range(n)]
        u = reference_random_unimodular(rand, n)
        gram = matmul(matmul(u, cand), transpose(u))
        try:
            return GramLattice.from_rows(gram, label=f"perturbed {L.label}")
        except NotPositiveDefinite:
            continue
    return GramLattice.from_rows(base, label=L.label)


def reference_lll(gram, delta=Fraction(99, 100)):
    """LLL on a Gram matrix that recomputes Gram-Schmidt after each swap.

    Returns (reduced Gram rows, transform rows).  The swap and size
    reduction decisions are those of the textbook algorithm, so an
    exact implementation must reproduce both outputs entry for entry.
    """
    n = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]
    r = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    b, mu = gram_schmidt(g)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            m = floor(mu[k][j] + Fraction(1, 2))
            if m:
                r[k] = [x - m * y for x, y in zip(r[k], r[j])]
                for c in range(n):
                    g[k][c] -= m * g[j][c]
                for c in range(n):
                    g[c][k] -= m * g[c][j]
                for l in range(j):
                    mu[k][l] -= m * mu[j][l]
                mu[k][j] -= m
        if b[k] >= (delta - mu[k][k - 1] ** 2) * b[k - 1]:
            k += 1
        else:
            r[k], r[k - 1] = r[k - 1], r[k]
            g[k], g[k - 1] = g[k - 1], g[k]
            for row in g:
                row[k], row[k - 1] = row[k - 1], row[k]
            b, mu = gram_schmidt(g)
            k = max(k - 1, 1)
    return [list(row) for row in g], [list(row) for row in r]


def reduced_gram(L):
    """The Gram matrix U G U^T of the basis ``lll(L)`` reduces to, over Fractions."""
    u = [list(r) for r in lll(L).transform]
    return matmul(matmul(u, [list(r) for r in L.gram]), transpose(u))


def kept_pivots(gram):
    """What a ``ReducedBasis`` keeps of its Gram matrix: scale, minors, lam and diagonal."""
    scale, a, minors, lam = validate(gram)
    return scale, minors, lam, tuple(a[i][i] for i in range(len(a)))


def _gf2_rank(rows) -> int:
    rows, rank = list(rows), 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


@lru_cache(maxsize=None)
def _gl2_transforms(k):
    """GL(k, 2), each matrix as its k rows, given as bit masks."""
    return [rows for rows in product(range(1, 1 << k), repeat=k) if _gf2_rank(rows) == k]


def _gl2_orbit(cols, k):
    """Every image of a column multiset under GL(k, 2), as sorted tuples."""
    return {
        tuple(sorted(
            sum(((row & col).bit_count() & 1) << i for i, row in enumerate(t))
            for col in cols
        ))
        for t in _gl2_transforms(k)
    }


def canonical_form(c) -> tuple[int, ...]:
    """The least sorted column multiset over GL(k, 2) of a binary code.

    The columns, read as functionals on the row space, determine the
    code up to column permutation once the choice of basis is quotiented
    out, so this is a complete invariant.
    """
    if c.d != 2:
        raise ValueError("canonical forms are defined for binary codes only")
    cols = [sum(c.gen[i][j] << i for i in range(c.k)) for j in range(c.n)]
    return min(_gl2_orbit(cols, c.k))


def equivalent(a, b) -> bool:
    """Whether two binary codes agree up to a column permutation."""
    return (a.n, a.k) == (b.n, b.k) and canonical_form(a) == canonical_form(b)


def repetition(n):
    """The [n, 1, n] binary repetition code."""
    from latquot.codes import Code

    return Code(d=2, n=n, k=1, gen=((1,) * n,))


@lru_cache(maxsize=None)
def _echelon_classes(n, k):
    """Least column multiset and minimum weight of every full-support
    binary [n, k] code, one entry per generator matrix in reduced row
    echelon form; each orbit is computed once and cached by its members.
    """
    least = {}
    out = []
    full = (1 << n) - 1
    for pivots in combinations(range(n), k):
        free = [[j for j in range(p + 1, n) if j not in pivots] for p in pivots]
        for bits in product(*(product((0, 1), repeat=len(f)) for f in free)):
            rows = [
                (1 << p) | sum(b << j for b, j in zip(row_bits, f))
                for p, f, row_bits in zip(pivots, free, bits)
            ]
            support = 0
            for row in rows:
                support |= row
            if support != full:
                continue
            words = {0}
            for row in rows:
                words |= {w ^ row for w in words}
            cols = tuple(sorted(
                sum((rows[i] >> j & 1) << i for i in range(k)) for j in range(n)
            ))
            if cols not in least:
                orbit = _gl2_orbit(cols, k)
                least.update(dict.fromkeys(orbit, min(orbit)))
            out.append((min(w.bit_count() for w in words if w), least[cols]))
    return out


def reference_classify_binary(n, k, min_w):
    """Full-support binary [n, k] codes of weight >= min_w, one per class.

    Walks every generator matrix in reduced row echelon form, which
    visits every code exactly once, and presents each class by its least
    sorted column multiset over GL(k, 2), in ascending order.
    """
    from latquot.codes import Code

    classes = sorted({sig for w, sig in _echelon_classes(n, k) if w >= min_w})
    return [
        Code(d=2, n=n, k=k, gen=tuple(tuple(c >> i & 1 for c in sig) for i in range(k)))
        for sig in classes
    ]


def reference_code_qb_bound(c) -> Fraction:
    """``codes.code_qb_bound`` as first written: every k-subset of the words.

    The least weight product over the k-subsets of the nonzero words
    that have GF(2) rank k, over 4^k.
    """
    from latquot.codes import _binary_words
    from latquot.errors import CodeTooLight

    if c.d != 2:
        raise ValueError("the bound is defined for binary codes only")
    words = _binary_words(c.masks())
    weights = {w: w.bit_count() for w in words}
    if min(weights.values()) < 4:
        raise CodeTooLight("minimum weight below 4")
    best = None
    for combo in combinations(words, c.k):
        if _gf2_rank(combo) < c.k:
            continue
        p = 1
        for w in combo:
            p *= weights[w]
        if best is None or p < best:
            best = p
    return Fraction(best, 4**c.k)


def reference_enumerate(reduced, bound: Fraction, counter, centres=None):
    """``enumeration._enumerate`` as first written, pairs unsorted in one list.

    Nonzero solutions of y G y^T <= bound, one per +- pair.  Returns
    (numerator, coords) pairs, where the norm is numerator over
    ``weight * scale`` (see ``_weights``) and coords are in the original
    basis with their first nonzero entry positive.  Levels are visited
    top down and the integers of each level in increasing order.  A list
    ``centres`` receives, for each value tried on a level above 0, the
    largest |sum_{j >= level} lam[j][i] * x[j]| over the levels i below:
    the partial centres the packed kernel carries.
    """
    scale, d, lam = reduced.scale, reduced.minors, reduced.lam
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
            if centres is not None:
                centres.append(max(abs(sum(lam[j][i] * x[j] for j in range(level, n)))
                                   for i in range(level)))
            partial[level] = [p + value * r for p, r in zip(above, row)]
            t = dl * value + centre
            descend(level - 1, used + wl * t * t, top_zero and value == 0)
        x[level] = 0

    descend(n - 1, 0, True)
    # ``descend`` refers to itself, so the cycle would keep ``out`` alive
    # until the next full collection; break it to free a dropped listing
    descend = None
    return out


def reference_frame(L: GramLattice) -> Frame:
    """The frame of successive minima, chosen by pivot rows over the Gram matrix.

    Walks the minima ball in listing order and takes each vector whose
    fraction-free pivot row (Cohen, GTM 138, Alg. 2.6.7) against the
    vectors already taken ends in a positive minor, until n are taken.
    """
    context = _context(L)
    pairs = _listing(L, context.radius, _Counter(None))
    a = L._form.gram
    vectors = []
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
    return Frame(vectors=tuple(vectors),
                 norms=tuple(Fraction(x, L._form.scale) for x in norms))


def _canonical_sign(v: tuple[int, ...]) -> tuple[int, ...]:
    for entry in v:
        if entry > 0:
            return v
        if entry < 0:
            return tuple(-x for x in v)
    return v


def reference_orthogonal_seed(pools):
    """The greedy frame of ``maximal_index`` as first written.

    ``pools`` holds (vector, vector times the cleared Gram matrix) pairs,
    every pool vector multiplied up front.  Each position scans its whole
    pool for the first vector whose inner products with the vectors
    already chosen all vanish; failing that it takes the first vector of
    the pool that raises the rank over Q.  None when the pass dead-ends.
    """
    chosen: list[tuple[int, ...]] = []
    for pool in pools:
        for v, va in pool:
            if not any(_dot(va, w) for w in chosen):
                break
        else:
            for v, _ in pool:
                if rank_rational(chosen + [v]) > len(chosen):
                    break
            else:
                return None
        chosen.append(v)
    return tuple(chosen)


# The most frames ``reference_frame_indices`` lists before it refuses.
FRAME_LIMIT = 100_000


def reference_frame_indices(shells) -> list[int]:
    """The index of every frame of the minima, by listing every frame.

    ``shells`` holds one (count, vectors) pair per distinct minimum, as
    ``frames._shells`` lays them out; a frame takes every combination of
    ``count`` distinct vectors of each shell, and is any such choice
    whose rows are independent.  Returns one index per frame, in listing
    order.  Refuses with ValueError, before it builds a single
    combination, when there are more than ``FRAME_LIMIT`` choices to
    list.
    """
    if math.prod(math.comb(len(shell), count) for count, shell in shells) > FRAME_LIMIT:
        raise ValueError("too many frames to list")
    indices = []
    for parts in product(*(combinations(shell, count) for count, shell in shells)):
        index = abs(det_int([v for part in parts for v in part]))
        if index:
            indices.append(index)
    return indices


def reference_maximal_index(L: GramLattice, budget: int | None = None) -> IndexReport:
    """``watson.maximal_index`` as a plain branch and bound, as first written.

    Largest index of a sublattice spanned by a frame of successive minima.

    Branch and bound: positions are filled with vectors of the exact
    successive-minimum norm, equal-norm positions draw from a shared
    shell with strictly increasing listing order, and a partial choice
    is abandoned when the Hadamard bound on its completions cannot beat
    the incumbent.  If the node budget runs out the incumbent is
    returned with ``exhaustive=False``.

    The lattice's integral form holds the Gram matrix cleared of
    denominators, as ``scale * G``, and every pool vector is multiplied
    into it once.
    Each tree node carries the integral leading minors and Gram-Schmidt
    coefficients of its prefix, so a candidate costs its k inner products
    with the prefix and one fraction-free pivot row: the Gram determinant
    of the prefix plus the candidate is the new minor over
    ``scale**(k+1)``.  The prune and the ranking compare that minor with
    an integer threshold that is exactly equivalent to the rational
    Hadamard test.
    """
    counter = _Counter(budget)
    base = successive_minima(L)
    lam = base.norms
    n = L.n
    scale, a, _, _ = L._form
    # The shells come from the minima ball ``successive_minima`` has
    # just listed, keyed by its norms as v (scale G) v^T: the ball
    # reaches past lam[-1] and is sorted as a listing at lam[-1] would be.
    context = _context(L)
    keys = [int(value * scale) for value in lam]
    wanted = set(keys)
    shells: dict[int, list[tuple[tuple[int, ...], list[int]]]] = {}
    for value, v in context.ball:
        if value > keys[-1]:
            break
        if value in wanted:
            shells.setdefault(value, []).append((v, _times(v, a)))
    pools = [shells[key] for key in keys]

    # A prefix of k + 1 vectors with Gram determinant minor / scale**(k+1)
    # survives the Hadamard prune exactly when
    #   minor * tail[k+1] > index**2 * det(L) * scale**(k+1),
    # with tail[k+1] the product of the minima still to be placed, i.e.
    # when minor exceeds the floor kept in limits[k].
    tail = [Fraction(1)] * (n + 1)
    for i in range(n - 1, -1, -1):
        tail[i] = tail[i + 1] * lam[i]
    det_l = determinant(L)
    room = [det_l * scale ** (k + 1) / tail[k + 1] for k in range(n)]
    limits: list[int] = []

    best = {"index": 0, "rows": base.vectors}

    def improve(index: int, rows) -> None:
        best["index"] = index
        best["rows"] = rows
        limits[:] = [math.floor(index**2 * x) for x in room]

    improve(abs(det_int(base.vectors)), base.vectors)
    seed = reference_orthogonal_seed(pools)
    if seed is not None:
        seed_index = abs(det_int(seed))
        if seed_index > best["index"]:
            improve(seed_index, seed)
    chosen: list[tuple[int, ...]] = []
    minors, coeffs = [1], []

    def descend(k: int, last: int):
        if k == n:
            # minors[n] = det(C scale G C^T) and the lattice's own minor
            # is det(scale G), so their ratio is det(C)^2
            index = math.isqrt(minors[n] // L._form.minors[n])
            if index > best["index"]:
                improve(index, tuple(chosen))
            return
        pool = pools[k]
        start = last + 1 if k and lam[k] == lam[k - 1] else 0
        limit = limits[k]
        ranked = []
        for j in range(start, len(pool)):
            counter.spend()
            v, va = pool[j]
            row = _pivot_row([_dot(va, w) for w in chosen] + [_dot(va, v)], minors, coeffs)
            minor = row[-1]
            if minor <= 0 or minor <= limit:
                continue
            ranked.append((-minor, j, row))
        ranked.sort()
        for negminor, j, row in ranked:
            if -negminor <= limits[k]:
                break
            chosen.append(pool[j][0])
            minors.append(-negminor)
            coeffs.append(row[:-1])
            descend(k + 1, j)
            chosen.pop()
            minors.pop()
            coeffs.pop()

    exhaustive = True
    try:
        descend(0, -1)
    except ResourceExceeded:
        exhaustive = False
    # ``descend`` refers to itself; break the cycle so the pools are
    # freed on return
    descend = None

    rows = best["rows"]
    frame = Frame(vectors=rows, norms=lam)
    structure = quotient_structure(L, rows)
    return IndexReport(
        max_index=best["index"],
        witness_frame=frame,
        witness_structure=structure,
        exhaustive=exhaustive,
    )
