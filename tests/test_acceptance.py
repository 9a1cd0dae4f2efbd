"""Acceptance criteria, one test and one printed line per criterion.

Every comparison is exact rational equality; nothing is accepted within
a tolerance.  Criteria that depend on a node budget degrade honestly:
they report a lower bound and log a warning instead of overclaiming.
"""

import logging
import random
from fractions import Fraction

from latquot.bounds import (
    index3_sum_identity,
    index3_psi_bound,
    index4_m5_bound,
    norm_e_index2_bound,
    vdw_bound,
)
from latquot.codes import (
    c9,
    c10,
    c11,
    c8,
    classify_binary,
    code_qb_bound,
    g12,
    min_weight_support,
    weight_distribution,
)
from latquot.construct import centred_cubic, code_lift, named
from latquot.core import determinant
from latquot.enumeration import minimum
from latquot.linalg import identity_rows
from latquot.quality import qb
from latquot.sampling import random_coset, random_gram
from latquot.watson import CosetVector, maximal_index, watson_identity

log = logging.getLogger("latquot.acceptance")


def _line(k: int, ok: bool, detail: str) -> bool:
    print(f"criterion {k:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def test_criterion_01_centred_cubic_quality():
    results = {}
    for n in range(4, 10):
        report = qb(centred_cubic(n))
        results[n] = (report.Qb, report.certified)
    expected = {n: (Fraction(n, 4), True) for n in range(4, 10)}
    ok = results == expected
    assert _line(1, ok, "Q_b of the centred cubic lattices is n/4 for n = 4..9")


def test_criterion_02_lifted_nine_column_code():
    report = qb(code_lift(c9()))
    ok = (report.Qb, report.certified) == (Fraction(9, 4), True)
    assert _line(2, ok, "the lifted [9,2] code has certified Q_b = 9/4")


def test_criterion_03_lifted_ten_column_code():
    report = qb(code_lift(c10()))
    ok = (report.Qb, report.certified) == (Fraction(21, 8), True)
    assert _line(3, ok, "the lifted [10,2] code has certified Q_b = 21/8")


def test_criterion_04_lifted_eight_column_code():
    report = qb(code_lift(c8()))
    ok = (report.Qb, report.certified) == (Fraction(25, 16), True)
    assert _line(4, ok, "the lifted [8,2] code has certified Q_b = 25/16")


def test_criterion_05_dimension_seven_frames():
    a73 = named("A73")
    a74 = named("A74")
    r3, r4 = qb(a73), qb(a74)
    ok = (
        minimum(a73)[0] == 18
        and (r3.Qb, r3.certified) == (Fraction(11, 9), True)
        and minimum(a74)[0] == 8
        and (r4.Qb, r4.certified) == (Fraction(9, 8), True)
    )
    assert _line(5, ok, "the two rank 7 witnesses have Q_b = 11/9 and 9/8")


def test_criterion_06_low_rank_lattices_are_inert():
    rand = random.Random(2026)
    bad = 0
    for _ in range(200):
        report = qb(random_gram(rand, rand.randint(1, 4)))
        if (report.Qb, report.certified) != (1, True):
            bad += 1
    ok = bad == 0
    assert _line(6, ok, f"Q_b = 1 certified on 200 random lattices of rank <= 4 ({bad} failures)")


def test_criterion_07_identities_hold_at_scale():
    rand = random.Random(2027)
    norm_fails = 0
    for _ in range(1000):
        n = rand.randint(2, 5)
        lhs, rhs = watson_identity(random_gram(rand, n), random_coset(rand, n))
        if lhs != rhs:
            norm_fails += 1
    pair_fails = 0
    for _ in range(1000):
        n = rand.randint(3, 6)
        d = rand.randint(2, 5)
        lhs, rhs = index3_sum_identity(
            random_gram(rand, n), identity_rows(n), CosetVector(d, (1,) * n)
        )
        if lhs != rhs:
            pair_fails += 1
    ok = norm_fails == 0 and pair_fails == 0
    assert _line(
        7,
        ok,
        "norm and pair-sum identities hold on 1000 random instances each "
        f"({norm_fails} + {pair_fails} failures)",
    )


def test_criterion_08_code_classification():
    counts = {
        (6, 2, 4): ["4^3"],
        (8, 2, 5): ["5^2·6"],
        (9, 2, 5): ["5^2·8", "5·6·7", "6^3"],
        (10, 2, 5): ["5^2·10", "5·6·9", "5·7·8", "6^2·8", "6·7^2"],
    }
    ok = True
    for (n, k, w), dists in counts.items():
        reps = classify_binary(n, k, w)
        ok = ok and sorted(str(weight_distribution(r)) for r in reps) == dists
    ok = ok and str(weight_distribution(c11())) == "6^6·8"
    ok = ok and code_qb_bound(c11()) == Fraction(27, 8)
    ok = ok and str(weight_distribution(g12())) == "6^12·8^3"
    ok = ok and code_qb_bound(g12()) == Fraction(81, 16)
    assert _line(8, ok, "code classes, distributions and product bounds match")


def test_criterion_09_index_of_e7():
    report = maximal_index(named("E7"))
    if not report.exhaustive:
        log.warning(
            "E7 index search hit the node budget; %d is a lower bound only",
            report.max_index,
        )
        ok = 1 <= report.max_index <= 8
        assert _line(9, ok, f"E7 search not exhaustive, lower bound {report.max_index}")
        return
    ok = (report.max_index, report.witness_structure.invariant_factors) == (
        8,
        (2, 2, 2),
    )
    assert _line(9, ok, "E7 has maximal index 8 with elementary quotient (2,2,2)")


def test_criterion_10_closed_form_bounds():
    ok = (
        index3_psi_bound(7, 3) == Fraction(29, 21)
        and index4_m5_bound(7) == Fraction(9, 8)
        and norm_e_index2_bound(6) == 4
        and vdw_bound(8) == Fraction(625, 256)
    )
    assert _line(10, ok, "psi(7,3) = 29/21, 9/8, 4 and 625/256 all match")


def test_criterion_11_dimension_twelve_certificate():
    L = code_lift(g12())
    code = g12()

    # witness: the construction basis multiplies to (3/2)^4 = 81/16
    witness = Fraction(1)
    for i in range(L.n):
        witness *= L.gram[i][i]
    upper = witness / determinant(L)

    # lower bound: the lattice is generated by Z^12 and 16 half-word
    # cosets of weight >= 6, so every basis contains at least 4 vectors
    # of norm >= 6/4 and the rest of norm >= 1
    w, _, _ = min_weight_support(code)
    lower = Fraction(w, 4) ** code.k / determinant(L)

    report = qb(L)
    ok = (
        witness == Fraction(81, 16)
        and sorted(L.gram[i][i] for i in range(L.n))
        == [1] * 8 + [Fraction(3, 2)] * 4
        and determinant(L) == Fraction(1, 256)
        and minimum(L)[0] == 1
        and w == 6
        and upper == 1296
        and lower == 1296
        and report.certified
        and report.Hb == 1296
    )
    detail = "lift of the [12,4] code has H_b = 1296 by search and counting bound"
    assert _line(11, ok, detail)
