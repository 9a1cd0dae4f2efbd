"""Index theory for lattice quotients.

Given a lattice and a frame of successive minima, the sublattice
generated by the frame sits with finite index, and the quotient group
carries the invariants studied here: its elementary-divisor structure,
coset representatives, the associated code over Z/dZ, and the identity
and condition that constrain the norms of coset vectors.

The central search is ``maximal_index``: the largest quotient order over
all frames of successive minima, found by branch and bound over the
shells of minimal vectors.  The search runs in integers: the Gram matrix
is cleared of denominators once, each tree node carries the fraction-free
Gram-Schmidt pivots of its prefix (Cohen, GTM 138, Alg. 2.6.7), and a
candidate costs one new pivot row instead of a fresh Gram determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .codes import Code
from .core import HERMITE_POWER, GramLattice, Surd, _pivot_row, determinant, qform
from .enumeration import Frame, _Counter, _denominator, _dot, _times, successive_minima
from .errors import DependentFrame, RepsDoNotGenerate, ResourceExceeded
from .linalg import det_int, smith_invariants, smith_with_transforms
from .linalg import det_rational, matmul  # noqa: F401  uncalled; perfbench's tracer wraps these names


@dataclass(frozen=True)
class CosetVector:
    """A coset of order ``d``: the vector (a_1 e_1 + ... + a_n e_n)/d.

    Numerators are normalized into (-d/2, d/2] and must be jointly
    coprime to d, so the coset has exact order d modulo the frame.
    """

    d: int
    a: tuple[int, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("denominator must exceed 1")
        a = []
        for entry in self.a:
            r = entry % self.d
            a.append(r if 2 * r <= self.d else r - self.d)
        if math.gcd(self.d, *a) != 1:
            raise ValueError("coset order is smaller than the denominator")
        object.__setattr__(self, "a", tuple(a))

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def A(self) -> int:
        """Sum of the absolute values of the numerators."""
        return sum(abs(x) for x in self.a)

    @property
    def shells(self) -> dict[int, tuple[int, ...]]:
        """Subscript sets S_i = {j : |a_j| = i} for i >= 1."""
        out: dict[int, list[int]] = {}
        for j, entry in enumerate(self.a):
            if entry:
                out.setdefault(abs(entry), []).append(j)
        return {i: tuple(js) for i, js in sorted(out.items())}

    @property
    def counts(self) -> dict[int, int]:
        """Shell sizes m_i."""
        return {i: len(js) for i, js in self.shells.items()}

    @property
    def m(self) -> int:
        """Number of nonzero numerators."""
        return sum(1 for x in self.a if x)

    def coords(self) -> tuple[Fraction, ...]:
        """Coordinates of the coset vector relative to the frame."""
        return tuple(Fraction(x, self.d) for x in self.a)


@dataclass(frozen=True)
class QuotientStructure:
    """Elementary divisors (those exceeding 1) and order of a quotient."""

    invariant_factors: tuple[int, ...]
    index: int

    def __post_init__(self):
        product = 1
        for prev, cur in zip(self.invariant_factors, self.invariant_factors[1:]):
            if cur % prev:
                raise ValueError("invariant factors must form a divisibility chain")
        for f in self.invariant_factors:
            if f < 2:
                raise ValueError("invariant factors must exceed 1")
            product *= f
        if product != self.index:
            raise ValueError("index must be the product of the invariant factors")


@dataclass(frozen=True)
class IndexReport:
    """Result of the search for the maximal index over frames."""

    max_index: int
    witness_frame: Frame
    witness_structure: QuotientStructure
    exhaustive: bool


def _frame_rows(frame) -> tuple[tuple[int, ...], ...]:
    if isinstance(frame, Frame):
        return frame.vectors
    return tuple(tuple(int(x) for x in row) for row in frame)


def quotient_structure(L: GramLattice, frame) -> QuotientStructure:
    """Structure of the quotient of the lattice by the span of the frame."""
    rows = _frame_rows(frame)
    if len(rows) != L.n:
        raise DependentFrame("frame must contain n vectors")
    index = abs(det_int(rows))
    if index == 0:
        raise DependentFrame("frame vectors are dependent")
    factors = tuple(f for f in smith_invariants(rows) if f > 1)
    return QuotientStructure(invariant_factors=factors, index=index)


def quotient_generators(L: GramLattice, frame) -> list[CosetVector]:
    """Coset representatives generating the quotient, one per invariant factor.

    The representative for the factor d_i is returned through its
    numerators relative to the frame, so it can be fed straight to
    ``watson_identity`` or ``extract_code``.
    """
    rows = _frame_rows(frame)
    if abs(det_int(rows)) == 0:
        raise DependentFrame("frame vectors are dependent")
    diag, u, _ = smith_with_transforms(rows)
    out = []
    for i, d in enumerate(diag):
        if d > 1:
            out.append(CosetVector(d=d, a=tuple(u[i])))
    return out


def extract_code(L: GramLattice, frame, coset_reps) -> Code:
    """The code over Z/dZ cut out by coset representatives of the quotient.

    ``d`` is the least common multiple of the representative orders; a
    representative of order d_i contributes the row (d/d_i) * a mod d.
    Raises RepsDoNotGenerate if the representatives fail to generate the
    quotient of the lattice by the frame.
    """
    rows = _frame_rows(frame)
    reps = list(coset_reps)
    if not reps:
        raise RepsDoNotGenerate("no representatives supplied")
    d = 1
    for rep in reps:
        d = d * rep.d // math.gcd(d, rep.d)

    # the lattice is generated by the frame and the representatives
    # exactly when the scaled stack spans d * Z^n
    stacked = [[d * x for x in row] for row in rows]
    for rep in reps:
        scale = d // rep.d
        stacked.append([
            scale * sum(rep.a[i] * rows[i][j] for i in range(len(rows)))
            for j in range(L.n)
        ])
    invariants = smith_invariants(stacked)
    if len(invariants) != L.n or any(f != d for f in invariants):
        raise RepsDoNotGenerate("representatives do not generate the quotient")

    gen = tuple(
        tuple((d // rep.d) * x % d for x in rep.a) for rep in reps
    )
    return Code(d=d, n=L.n, k=len(reps), gen=gen)


def watson_identity(basis: GramLattice, c: CosetVector) -> tuple[Fraction, Fraction]:
    """Both sides of the norm identity for a coset vector over a frame.

    With e = (sum a_i e_i)/d, the left side is
    sum |a_i| (N(e - sgn(a_i) e_i) - N(e_i)) and the right side is
    (A - 2d) N(e); the two are computed independently and must agree.
    """
    if c.n != basis.n:
        raise ValueError("coset length does not match the lattice rank")
    e = list(c.coords())
    n_e = qform(basis.gram, e)
    lhs = Fraction(0)
    for i, a in enumerate(c.a):
        if not a:
            continue
        sign = 1 if a > 0 else -1
        shifted = list(e)
        shifted[i] -= sign
        lhs += abs(a) * (qform(basis.gram, shifted) - basis.gram[i][i])
    rhs = (c.A - 2 * c.d) * n_e
    return lhs, rhs


def watson_condition(c: CosetVector, n: int) -> bool:
    """Whether A = 2d holds with every numerator nonzero."""
    return c.A == 2 * c.d and c.m == n


def watson_index_bound(n: int) -> Surd:
    """Exact value of gamma_n^(n/2), the general bound on the maximal index."""
    if n not in HERMITE_POWER:
        raise ValueError("the Hermite constant is only known exactly for n <= 8")
    return Surd(HERMITE_POWER[n])


def _orthogonal_seed(pools):
    """Best-effort frame preferring pairwise orthogonal vectors.

    A pairwise orthogonal frame attains the Hadamard bound, so seeding
    the search with one collapses the tree immediately.  ``pools`` holds
    (vector, vector times the cleared Gram matrix) pairs.  Each position
    takes the first vector whose integral inner products with the vectors
    already chosen all vanish: it is independent of them, so its pivot is
    positive, and its pivot row is built only once it is picked.  Failing
    that, it takes the first vector with a positive pivot.  Returns None
    when the greedy pass dead-ends.
    """
    chosen: list[tuple[int, ...]] = []
    minors, lam = [1], []
    for pool in pools:
        for v, va in pool:
            if not any(_dot(va, w) for w in chosen):
                row = _pivot_row([0] * len(chosen) + [_dot(va, v)], minors, lam)
                break
        else:
            for v, va in pool:
                row = _pivot_row([_dot(va, w) for w in chosen] + [_dot(va, v)], minors, lam)
                if row[-1] > 0:
                    break
            else:
                return None
        chosen.append(v)
        minors.append(row.pop())
        lam.append(row)
    return tuple(chosen)


def maximal_index(L: GramLattice, budget: int | None = None) -> IndexReport:
    """Largest index of a sublattice spanned by a frame of successive minima.

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
    # just listed, keyed by its norm numerators: the ball reaches past
    # lam[-1] and is sorted as a listing at lam[-1] would be.
    denominator = _denominator(L)
    keys = [int(value * denominator) for value in lam]
    wanted = set(keys)
    shells: dict[int, list[tuple[tuple[int, ...], list[int]]]] = {}
    for value, v in L._ball.pairs:
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
    seed = _orthogonal_seed(pools)
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
