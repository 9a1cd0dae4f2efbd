"""Closed-form bounds and the pair-sum identity."""

import random
from fractions import Fraction

import pytest

from latquot.bounds import (
    BoundContext,
    context_from,
    conjectured_bound,
    crude_bound,
    hermite_Hb_bound,
    index3_psi_bound,
    index3_sum_identity,
    index4_m5_bound,
    norm_e_index2_bound,
    step_bound,
    tuvw_bounds,
    vdw_bound,
)
from latquot.codes import Code
from latquot.construct import code_lift, zn
from latquot.core import norm, qform
from latquot.enumeration import successive_minima
from latquot.linalg import identity_rows
from latquot.quality import qb
from latquot.sampling import random_coset, random_gram
from latquot.watson import CosetVector


def test_reduction_theory_bound():
    assert hermite_Hb_bound(1) == 1
    assert hermite_Hb_bound(3) == Fraction(64, 27)
    assert hermite_Hb_bound(8) == Fraction(4, 3) ** 28
    with pytest.raises(ValueError):
        hermite_Hb_bound(0)


def test_general_quality_bound():
    assert vdw_bound(4) == 1
    assert vdw_bound(8) == Fraction(625, 256)
    with pytest.raises(ValueError):
        vdw_bound(3)


def test_code_lifts_certify_quality_above_the_vdw_formula():
    # (5/4)^(n-4) is no upper bound on Q_b in every rank: the lifts of
    # the simplex code [15, 4, 8] (all 15 nonzero columns of F_2^4) and
    # of its puncturing [14, 4, 7] have certified Q_b above it.
    for columns, expected in ((range(2, 16), Fraction(2401, 256)), (range(1, 16), Fraction(16))):
        gen = tuple(tuple(c >> i & 1 for c in columns) for i in range(4))
        report = qb(code_lift(Code(d=2, n=len(columns), k=4, gen=gen)))
        assert report.certified and report.Qb == expected
        assert report.Qb > vdw_bound(len(columns))


def test_conjectured_quality_bound():
    assert [conjectured_bound(n) for n in range(4, 10)] == [
        Fraction(n, 4) for n in range(4, 10)
    ]
    for n in (3, 10):
        with pytest.raises(ValueError):
            conjectured_bound(n)


def test_crude_bound_by_hand():
    # 1*1*3 + 1*1*2 + 1*2*1 over d^2 = 4
    assert crude_bound([1, 1, 2], CosetVector(2, (1, 1, 1))) == Fraction(7, 4)


def test_crude_bound_dominates_the_coset_norm():
    # A frame of successive minima satisfies 2|<e_i, e_j>| <= N(e_i)
    # for i <= j, which is exactly what the bound needs.
    rand = random.Random(41)
    for _ in range(40):
        n = rand.randint(2, 4)
        L = random_gram(rand, n)
        frame = successive_minima(L)
        c = random_coset(rand, n)
        e = [
            Fraction(sum(c.a[i] * frame.vectors[i][j] for i in range(n)), c.d)
            for j in range(n)
        ]
        assert qform(L.gram, e) <= crude_bound(frame.norms, c)


def test_crude_bound_input_validation():
    with pytest.raises(ValueError):
        crude_bound([1, 1], CosetVector(2, (1, 1, 1)))
    with pytest.raises(ValueError):
        crude_bound([2, 1, 1], CosetVector(2, (1, 1, 1)))


def test_context_from_a_cubic_frame():
    ctx = context_from(zn(4), CosetVector(2, (1, 1, 1, 1)))
    assert (ctx.n, ctx.d) == (4, 2)
    assert (ctx.T, ctx.t, ctx.u, ctx.v, ctx.w) == (4, 1, 1, 1, 1)


def test_context_from_needs_three_subscripts():
    # u, v and w minimize over three distinct subscripts
    for n in (1, 2):
        with pytest.raises(ValueError):
            context_from(zn(n), CosetVector(2, (1,) * n))
    assert context_from(zn(3), CosetVector(2, (1, 1, 1))).n == 3


def test_chained_bounds_are_tight_at_the_extremal_instance():
    # For the half-sum coset over a cubic frame every value t, u, v, w
    # equals n/4 and each chained bound is attained with equality.
    for n in (5, 6, 7, 8, 9):
        ctx = context_from(zn(n), CosetVector(2, (1,) * n))
        quarter = Fraction(n, 4)
        assert (ctx.t, ctx.u, ctx.v, ctx.w) == (quarter,) * 4
        u_max, v_max, w_max = tuvw_bounds(ctx)
        assert (u_max, v_max, w_max) == (quarter,) * 3


def test_chained_bounds_with_partial_data():
    ctx = BoundContext(n=5, d=2, t=1)
    u_max, v_max, w_max = tuvw_bounds(ctx)
    assert u_max == Fraction(6, 5)
    assert v_max == Fraction(13, 10)
    assert w_max is None
    with pytest.raises(ValueError):
        tuvw_bounds(BoundContext(n=5, d=2))


def test_step_bound():
    ctx = BoundContext(n=6, d=2, t=Fraction(3, 2), u=Fraction(7, 4))
    assert step_bound(ctx, 1) == ctx.u
    assert step_bound(ctx, 2) == 2 * ctx.u - ctx.t + 2
    with pytest.raises(ValueError):
        step_bound(ctx, 0)
    with pytest.raises(ValueError):
        step_bound(BoundContext(n=6, d=2, t=1), 1)


def test_index2_norm_bound():
    assert norm_e_index2_bound(4) == 1
    assert norm_e_index2_bound(5) == Fraction(5, 2)
    assert norm_e_index2_bound(6) == 4
    assert norm_e_index2_bound(7) == 7
    assert norm_e_index2_bound(8) == 9
    with pytest.raises(ValueError):
        norm_e_index2_bound(3)


def test_index3_psi_values():
    assert index3_psi_bound(7, 3) == Fraction(29, 21)
    assert index3_psi_bound(10, 3) == Fraction(71, 36)
    with pytest.raises(ValueError):
        index3_psi_bound(7, 2)
    with pytest.raises(ValueError):
        index3_psi_bound(11, 3)


def test_index4_values():
    assert index4_m5_bound(7) == Fraction(9, 8)
    assert index4_m5_bound(8) == Fraction(441, 320)
    assert index4_m5_bound(10) == Fraction(125, 64)
    for n in (6, 11):
        with pytest.raises(ValueError):
            index4_m5_bound(n)


def test_pair_sum_identity_on_random_instances():
    rand = random.Random(42)
    for _ in range(120):
        n = rand.randint(3, 6)
        d = rand.randint(2, 5)
        L = random_gram(rand, n)
        lhs, rhs = index3_sum_identity(
            L, identity_rows(n), CosetVector(d, (1,) * n)
        )
        assert lhs == rhs


def test_pair_sum_identity_rejects_general_numerators():
    with pytest.raises(ValueError):
        index3_sum_identity(zn(3), identity_rows(3), CosetVector(3, (1, 1, 2)))


def test_pair_sum_identity_rejects_short_frame_vectors():
    with pytest.raises(ValueError, match="length n"):
        index3_sum_identity(zn(3), [(1, 0), (0, 1), (1, 1)], CosetVector(3, (1, 1, 1)))


def test_pair_sum_identity_rejects_a_coset_of_the_wrong_rank():
    with pytest.raises(ValueError, match="length n"):
        index3_sum_identity(zn(3), identity_rows(3), CosetVector(3, (1, 1, 1, 1)))


def test_pair_sum_identity_accepts_frames():
    L = random_gram(random.Random(43), 4)
    frame = successive_minima(L)
    lhs, rhs = index3_sum_identity(L, frame.vectors, CosetVector(3, (1, 1, 1, 1)))
    assert lhs == rhs
    assert norm(L, frame.vectors[0]) == frame.norms[0]
