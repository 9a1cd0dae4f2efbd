"""Closed-form bounds on basis quality, as exactly evaluable formulas.

Each function evaluates one inequality in exact rational arithmetic, so
it can serve both as a predicted bound and as an assertion against
quantities computed elsewhere in the package.  The two identity
evaluators return both sides separately; callers compare them.

Several bounds presume the normalization N(e_n) = 1 for the largest
frame norm; ``context_from`` rescales a concrete instance accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import GramLattice, _exact, qform
from .watson import CosetVector


@dataclass(frozen=True)
class BoundContext:
    """Inputs shared by the norm bounds below.

    ``T`` is the sum of the frame norms, and ``t``, ``u``, ``v``, ``w``
    are the norms N(e), N(e - e_i), N(e - e_i - e_j) and
    N(e - e_i - e_j - e_k), minimized over subscripts in that order.
    All values are understood in the scale where N(e_n) = 1.
    """

    n: int
    d: int
    T: Fraction | None = None
    t: Fraction | None = None
    u: Fraction | None = None
    v: Fraction | None = None
    w: Fraction | None = None

    def __post_init__(self):
        if self.n < 1 or self.d < 2:
            raise ValueError("need n >= 1 and d >= 2")
        for name in ("T", "t", "u", "v", "w"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _exact(value))


def context_from(basis: GramLattice, c: CosetVector) -> BoundContext:
    """Build a normalized context from a frame Gram matrix and a coset.

    The Gram matrix is rescaled so the last diagonal entry is 1; the
    minimizing subscripts for u, v, w are chosen greedily as the
    definitions prescribe, so the rank must be at least 3.
    """
    n = basis.n
    if n < 3:
        raise ValueError("defined for n >= 3")
    scale = 1 / basis.gram[n - 1][n - 1]
    gram = tuple(tuple(scale * x for x in row) for row in basis.gram)
    e = [Fraction(a, c.d) for a in c.a]
    t = qform(gram, e)
    big_t = sum(gram[i][i] for i in range(n))

    def best(exclude: set[int]):
        outcome = None
        for i in range(n):
            if i in exclude:
                continue
            shifted = list(e)
            shifted[i] -= 1
            value = qform(gram, shifted)
            if outcome is None or value < outcome[1]:
                outcome = (i, value)
        return outcome

    i, u = best(set())
    j, v = best({i})
    _, w = best({i, j})
    return BoundContext(n=n, d=c.d, T=big_t, t=t, u=u, v=v, w=w)


def hermite_Hb_bound(n: int) -> Fraction:
    """(4/3)^(n(n-1)/2), the reduction-theory bound on the basis product."""
    if n < 1:
        raise ValueError("n must be positive")
    return Fraction(4, 3) ** (n * (n - 1) // 2)


def vdw_bound(n: int) -> Fraction:
    """(5/4)^(n-4), which ``verify`` pins at n = 8 as 625/256.

    It is no upper bound on Q_b in every rank: code lifts certify 2401/256
    at n = 14 ([14, 4, 7]) and 16 at n = 15 ([15, 4, 8]).
    """
    if n < 4:
        raise ValueError("defined for n >= 4")
    return Fraction(5, 4) ** (n - 4)


def conjectured_bound(n: int) -> Fraction:
    """n/4: proved for 4 <= n <= 8, conjectured for n = 9."""
    if not 4 <= n <= 9:
        raise ValueError("defined for 4 <= n <= 9")
    return Fraction(n, 4)


def crude_bound(norms, c: CosetVector) -> Fraction:
    """Upper bound on N(e) from the frame norms and the numerators.

    Valid when the norms are the non-decreasing successive minima:
    N(e) <= sum_i |a_i| N(e_i) sum_{j >= i} |a_j|, all over d^2.
    """
    norms = [_exact(x) for x in norms]
    if len(norms) != c.n:
        raise ValueError("norm list length disagrees with the coset")
    if any(x > y for x, y in zip(norms, norms[1:])):
        raise ValueError("norms must be non-decreasing")
    a = [abs(x) for x in c.a]
    total = Fraction(0)
    for i in range(c.n):
        total += a[i] * norms[i] * sum(a[i:])
    return total / c.d**2


def tuvw_bounds(ctx: BoundContext) -> tuple[Fraction, Fraction, Fraction]:
    """The chained upper bounds on u, v and w given t (and u, v if set).

    u <= (n + (n-4)t)/n; v <= (n + (n-4)u - t)/(n-1), or with u
    eliminated (2n(n-2) + ((n-4)^2 - n)t)/(n(n-1)); and
    w <= (n + (n-4)v - 2u)/(n-2), which needs both u and v.
    """
    n, t = ctx.n, ctx.t
    if n < 4 or t is None:
        raise ValueError("need n >= 4 and t")
    u_max = Fraction(n + (n - 4) * t, 1) / n
    if ctx.u is not None:
        v_max = (n + (n - 4) * ctx.u - t) / (n - 1)
    else:
        v_max = (2 * n * (n - 2) + ((n - 4) ** 2 - n) * t) / (n * (n - 1))
    if ctx.u is not None and ctx.v is not None:
        w_max = (n + (n - 4) * ctx.v - 2 * ctx.u) / (n - 2)
    else:
        w_max = None
    return u_max, v_max, w_max


def step_bound(ctx: BoundContext, steps: int) -> Fraction:
    """Upper bound on N(e - l*e_i): l*u - (l-1)*t + l*(l-1)."""
    if ctx.t is None or ctx.u is None:
        raise ValueError("need t and u")
    if steps < 1:
        raise ValueError("the step count must be positive")
    return steps * ctx.u - (steps - 1) * ctx.t + steps * (steps - 1)


def norm_e_index2_bound(n: int) -> Fraction:
    """Upper bound on N(e)/N(e_n) for index-2 quotients under the norm condition."""
    if n < 4:
        raise ValueError("defined for n >= 4")
    if n == 4:
        return Fraction(1)
    if n == 5:
        return Fraction(5, 2)
    if n == 6:
        return Fraction(4)
    return Fraction(n * (n + 1), 8)


def index3_sum_identity(L: GramLattice, rows, c: CosetVector):
    """Both sides of the pair-sum identity for e = (e_1 + ... + e_n)/d.

    ``rows`` are the n frame vectors e_i in coordinates.  The left side
    sums N(e - e_i - e_j) over i < j directly; the right side is
    (n-2)T + (n^2 - (4d+1)n + 2d(d+2))/2 * N(e) with T the sum of the
    frame norms.
    """
    if any(x != 1 for x in c.a):
        raise ValueError("the identity requires all numerators equal to 1")
    n = L.n
    if len(rows) != n:
        raise ValueError("frame must contain n vectors")
    if any(len(row) != n for row in rows) or c.n != n:
        raise ValueError("frame vectors and coset must have length n")
    d = c.d
    e = [Fraction(sum(row[j] for row in rows), d) for j in range(n)]
    lhs = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            shifted = [
                e[col] - rows[i][col] - rows[j][col] for col in range(n)
            ]
            lhs += qform(L.gram, shifted)
    big_t = sum(qform(L.gram, row) for row in rows)
    rhs = (n - 2) * big_t + Fraction(
        n * n - (4 * d + 1) * n + 2 * d * (d + 2), 2
    ) * qform(L.gram, e)
    return lhs, rhs


def index3_psi_bound(n: int, d: int) -> Fraction:
    """psi(n, d) = (n^2 - 3n + 1)/((2d-1)n - (d^2 + 2d - 1))."""
    if d < 3:
        raise ValueError("defined for d >= 3")
    if n > 3 * d + 1:
        raise ValueError("requires n <= 3d + 1")
    return Fraction(n * n - 3 * n + 1, (2 * d - 1) * n - (d * d + 2 * d - 1))


def index4_m5_bound(n: int) -> Fraction:
    """Bound on Q_b for cyclic index-4 quotients with m_1 = 5."""
    if n == 7:
        return Fraction(9, 8)
    if 8 <= n <= 10:
        return Fraction((2 * n + 5) ** 2, 320)
    raise ValueError("defined for 7 <= n <= 10")
