"""Index theory for lattice quotients.

Given a lattice and a frame of successive minima, the sublattice
generated by the frame sits with finite index, and the quotient group
carries the invariants studied here: its elementary-divisor structure,
and the identity and condition that constrain the norms of coset
vectors.

The central search is ``maximal_index``: the largest quotient order over
all frames of successive minima.  It stops at once when the frame of
minima, or failing that a greedy frame, already reaches the Hadamard
bound H = floor(sqrt(prod lam_i / det L)).  Otherwise it is one branch
and bound over a frame tree, which looks for frames of index at least a
bar: the bar starts one above that incumbent and rises past each frame
the walk meets, until it passes H.  When the minimal vectors form a
root system the index is read off its irreducible components in closed
form, and the walk starts there and stops at its first frame.  The
tree's children are ordered by their prefix alone, and its one prune
only cuts subtrees without a frame of index at least the bar, so the
witness is the first frame of maximal index in one fixed order.
The seed, the root system test and the tree live in ``latquot.frames``.
They run in integers: the Gram matrix is cleared of denominators once,
each tree node carries the fraction-free Gram-Schmidt pivots of its
prefix (Cohen, GTM 138, Alg. 2.6.7): a candidate costs one new pivot
row, and a leaf's last pivot is its frame's index squared times det_a.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .core import HERMITE_POWER, GramLattice, qform
from .enumeration import Frame, _Counter, _ball, _times
from .errors import DependentFrame, DimensionMismatch, ResourceExceeded
from .frames import _frames, _orthogonal_seed, _root_index, _shells
from .linalg import det_int, smith_invariants
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


def quotient_structure(L: GramLattice, rows) -> QuotientStructure:
    """Structure of the quotient of the lattice by the span of the frame.

    The frame is given by its n integer rows of length n, the coordinates
    of its vectors in the basis of the lattice.
    """
    rows = tuple(tuple(map(operator.index, r)) for r in rows)
    if len(rows) != L.n:
        raise DependentFrame("frame must contain n vectors")
    if any(len(row) != L.n for row in rows):
        raise DimensionMismatch("frame vector length does not match lattice rank")
    invariants = smith_invariants(rows)
    if len(invariants) < L.n:
        raise DependentFrame("frame vectors are dependent")
    factors = tuple(f for f in invariants if f > 1)
    return QuotientStructure(invariant_factors=factors, index=math.prod(invariants))


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


def watson_index_bound(n: int) -> int:
    """floor(gamma_n^(n/2)), the general bound on the maximal index.

    An index is an integer, so the largest integer at most gamma_n^(n/2)
    bounds it as well; floor(sqrt(x)) = isqrt(floor(x)) for rational x >= 0.
    For n = 9 Mordell's inequality gamma_9^7 <= gamma_8^8 = 256 bounds the
    index by 35, an upper bound rather than gamma_9's value, so it is not
    returned.
    """
    if n not in HERMITE_POWER:
        raise ValueError("the Hermite constant is only known exactly for n <= 8")
    return math.isqrt(math.floor(HERMITE_POWER[n]))


def maximal_index(L: GramLattice, budget: int | None = None) -> IndexReport:
    """Largest index of a sublattice spanned by a frame of successive minima.

    Every frame F has [L:F] <= H, the Hadamard bound floor(sqrt(prod
    lam_i / det L)).  The incumbent is the frame of ``successive_minima``
    or, if it falls short of H and the seed beats it, the frame of
    ``_orthogonal_seed``, a greedy frame of minima that always completes;
    when it reaches H the search is over before it starts and no shell
    vector meets the Gram matrix.  Otherwise one ``_frames`` walk is a
    branch and bound up to top, where top is H, or the index m* that
    ``_root_index`` gives in closed form when the minima form a root
    system.  Its bar starts one above the incumbent, or at m*, which the
    simple roots of a subsystem attain; at each frame of index d that the
    walk yields the bar rises to d + 1.  The walk ends when the bar passes
    top or the tree is spent, and its last frame, if any, has the index.

    The witness is the incumbent when it reaches the index, and
    otherwise the first frame of maximal index in the tree's fixed
    order: that order depends on the prefix alone, and the bar stays at
    most the index until the walk reaches that frame, so the prune
    leaves it in place.

    The seed, the root system test and the tree read the minima ball as
    ``frames._shells`` lays it out.  The seed multiplies only its picks
    by the cleared Gram matrix; once the incumbent falls short of H each
    other shell vector is multiplied once, so that every shell vector
    meets the matrix once, and the root system test and the tree read
    those pairs.  The walk yields each frame with its index,
    read from the tree's last pivot.

    The minima ball and the tree nodes spend one budget; the root system
    test charges nothing.  If the budget runs out in the tree the best
    frame found so far, the incumbent or the walk's last frame, is
    returned with ``exhaustive=False``; in the ball this raises
    ``ResourceExceeded``.
    """
    counter = _Counter(budget)
    context = _ball(L, counter)
    base = context.frame
    _, a, minors, _ = L._form
    det_a = minors[-1]

    # tail[k] is the product of the minima k..n-1, each as v (scale G)
    # v^T; over det_a = det(scale G) the scales cancel
    tail = list(accumulate(reversed(context.minima), operator.mul, initial=1))[::-1]
    hadamard = math.isqrt(tail[0] // det_a)

    incumbent, best_rows = abs(det_int(base.vectors)), base.vectors
    if incumbent < hadamard:
        shells = _shells(context)
        seed, products = _orthogonal_seed(shells, a)
        seed_index = abs(det_int(seed))
        if seed_index > incumbent:
            incumbent, best_rows = seed_index, seed

    exhaustive = True
    if incumbent < hadamard:
        paired = [(count, [(v, products[v] if v in products else _times(v, a)) for v in shell])
                  for count, shell in shells]
        # an index is at least 1, so only None falls back to H
        root = _root_index(paired, det_a)
        top = root or hadamard
        if top > incumbent:
            bar = [root or incumbent + 1]
            try:
                for index, rows in _frames(bar, paired, tail, det_a, counter):
                    best_rows = rows
                    bar[0] = index + 1
                    if bar[0] > top:
                        break
            except ResourceExceeded:
                exhaustive = False

    frame = Frame(vectors=best_rows, norms=base.norms)
    structure = quotient_structure(L, best_rows)
    return IndexReport(
        max_index=structure.index,
        witness_frame=frame,
        witness_structure=structure,
        exhaustive=exhaustive,
    )
