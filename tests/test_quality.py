"""The basis-product invariants against a brute-force oracle."""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from latquot import quality
from latquot.construct import centred_cubic, code_lift, fixture_inventory, named, search_corpus, zd_lift, zn
from latquot.codes import Code, c8, c9, c10, c11, classify_binary, code_qb_bound, g12
from latquot.core import GramLattice, determinant, norm
from latquot.enumeration import _Counter, _ball, _listing, _times, successive_minima, vectors_up_to
from latquot.errors import ResourceExceeded
from latquot.linalg import det_int, hnf_rows, identity_rows, is_primitive
from latquot.quality import _cleared, _parity_bound, hermite_Hb, qb
from latquot.sampling import perturbed
from oracles import (
    brute_Hb_product, conjugate, narrow_random_gram, parity_cover, parity_product,
    random_unimodular, scaled,
)


def test_hermite_product_matches_the_oracle():
    rand = random.Random(61)
    for _ in range(15):
        n = rand.randint(2, 4)
        L = narrow_random_gram(rand, n)
        value, rows, certified = hermite_Hb(L)
        assert certified
        expected, _ = brute_Hb_product(L.gram)
        assert value == expected / determinant(L)
        assert abs(det_int(rows)) == 1
        prod = Fraction(1)
        for v in rows:
            prod *= norm(L, v)
        assert prod / determinant(L) == value


def test_cubic_lattice_report():
    report = qb(zn(5))
    assert (report.M, report.Hb, report.Qb) == (1, 1, 1)
    assert report.certified
    assert report.frontier is None
    assert len(report.best_basis) == 5


def test_known_quality_ratios():
    assert qb(centred_cubic(6)).Qb == Fraction(3, 2)
    assert qb(code_lift(c8())).Qb == Fraction(25, 16)
    report = qb(named("A73"))
    assert report.Qb == Fraction(11, 9)
    assert report.certified


def test_witness_is_a_basis_with_the_reported_product():
    L = named("A74")
    report = qb(L)
    assert report.Qb == Fraction(9, 8)
    assert report.certified
    assert abs(det_int(report.best_basis)) == 1
    prod = Fraction(1)
    for v in report.best_basis:
        prod *= norm(L, v)
    assert prod == report.Hb * determinant(L)


def test_budget_downgrades_to_an_upper_bound():
    # The minima of this lift fit in the budget and its basis search does
    # not.  The parity bound would certify the lift in its first pass, so
    # it is set to 0 here.
    L = code_lift(c10())
    with patch.object(quality, "_parity_bound", lambda pairs, n: 0):
        report = qb(L, budget=2000)
    assert not report.certified
    assert report.frontier is not None
    # 16 is the frontier of the search without the parity bound
    assert report.M <= report.frontier == 16 < report.Hb == 42
    # the reported value is still a witnessed upper bound
    assert abs(det_int(report.best_basis)) == 1
    prod = Fraction(1)
    for v in report.best_basis:
        prod *= norm(L, v)
    assert prod == report.Hb * determinant(L)


def test_qb_raises_at_the_budget_its_minima_exceed(node_tally):
    # M needs the successive minima, so where they cannot be listed
    # within the budget qb raises at that budget.  It stops where the
    # listing alone stops, and lists nothing again at the default.
    for L, budget in ((code_lift(c10()), 50), (centred_cubic(8), 200)):
        node_tally[0] = 0
        with pytest.raises(ResourceExceeded) as alone:
            successive_minima(GramLattice(L.n, L.gram, L.label), budget)
        spent = node_tally[0]
        node_tally[0] = 0
        with pytest.raises(ResourceExceeded) as err:
            qb(L, budget)
        assert (err.value.nodes, err.value.budget) == (alone.value.nodes, budget) == (budget + 1, budget)
        assert node_tally[0] == spent
        # hermite_Hb still downgrades: the reduced basis, uncertified
        node_tally[0] = 0
        value, rows, certified = hermite_Hb(L, budget)
        assert node_tally[0] == spent and not certified
        assert abs(det_int(rows)) == 1
        assert value >= hermite_Hb(L)[0]


def _ternary_glue():
    """Z^15 glued by a/3 and b/3, a = 1^10 0^5 and b = 0^5 1^10.

    Both glue vectors have norm 10/9 and every basis needs two vectors
    outside Z^15, while the minima are the 15 unit vectors: the search
    runs a second pass after its minima ball.  The basis is the Hermite
    form of the generators of 3L, over 3.
    """
    rows = hnf_rows([[3 * (i == j) for j in range(15)] for i in range(15)]
                    + [[1] * 10 + [0] * 5, [0] * 5 + [1] * 10])
    gram = [[Fraction(sum(x * y for x, y in zip(r, s)), 9) for s in rows] for r in rows]
    return GramLattice.from_rows(gram, label="Z15 + (a, b)/3")


def test_every_pass_of_the_basis_search_holds_the_reduced_basis():
    # The pass after the minima ball lists to a bound past the ball's
    # radius, the largest reduced diagonal entry: its listing holds the
    # reduced basis up to sign, so it generates the lattice, and it
    # starts with the ball, so its parity bound is the ball's.  Every
    # fixture, on its own basis and on three seeded conjugates, settles
    # in its ball; the ternary lift lists past it once, at best / head.
    later = []
    listing = quality._listing

    def listed(L, bound, counter):
        pairs = listing(L, bound, counter)
        later.append((L, bound, pairs))
        return pairs

    def check():
        for L, bound, pairs in later:
            context = _ball(L, _Counter(None))
            assert bound > context.radius, L.label
            held = {v for _, v in pairs}
            for row in context.reduced.transform:
                assert tuple(row) in held or tuple(-x for x in row) in held, L.label
            assert _parity_bound(pairs, L.n) == _parity_bound(context.ball, L.n), L.label
        bounds = [bound for _, bound, _ in later]
        later.clear()
        return bounds

    rand = random.Random(47)
    with patch.object(quality, "_listing", listed):
        for L in fixture_inventory().values():
            for M in [L] + [conjugate(L, random_unimodular(rand, L.n)) for _ in range(3)]:
                qb(M)
                assert check() == [], M.label
        report = qb(_ternary_glue())
        assert check() == [Fraction(100, 81)]
    assert report.Qb == Fraction(100, 81) and report.certified


def test_the_completion_agrees_with_the_smith_form_test():
    # Random prefixes drawn from short-vector listings of perturbed corpus
    # lattices.  Every candidate is judged by the maintained completion
    # and by a fresh Smith form; besides listed vectors the candidates
    # include dependent ones (a prefix member, a sum of two) and
    # imprimitive ones (twice a vector, a member plus twice a vector).
    rand = random.Random(83)
    judged = {True: 0, False: 0}
    for n in range(4, 9):
        for base in search_corpus(n):
            L = perturbed(rand, base)
            listing = list(vectors_up_to(L, successive_minima(L).norms[-1]).vectors)
            chosen, cols = [], identity_rows(n)
            for _ in range(4 * n):
                if len(chosen) == n:
                    break
                u = rand.choice(listing)
                candidates = rand.sample(listing, min(6, len(listing)))
                candidates.append(tuple(2 * x for x in u))
                if chosen:
                    w = rand.choice(chosen)
                    candidates.append(w)
                    candidates.append(tuple(x + 2 * y for x, y in zip(w, u)))
                    candidates.append(tuple(x + y for x, y in zip(w, rand.choice(chosen))))
                passing = []
                for v in candidates:
                    tail = _times(v, cols)
                    primitive = gcd(*tail) == 1
                    assert primitive == is_primitive(chosen + [v])
                    judged[primitive] += 1
                    if primitive:
                        passing.append((v, tail))
                if not passing:
                    continue
                v, tail = rand.choice(passing)
                chosen.append(v)
                cols = _cleared(cols, tail)
                # the prefix vanishes on the columns that are left
                assert all(_times(w, cols) == [0] * len(cols) for w in chosen)
            if len(chosen) == n:
                assert abs(det_int(chosen)) == 1
    assert min(judged.values()) > 100


def test_basis_search_node_totals_are_pinned(node_tally):
    # Totals of every node qb spends, listings included.  The search
    # deepens from the minima ball, which is charged once for the minima
    # and the first pass together, and ends as soon as its incumbent
    # reaches the parity bound from L/2L.
    cases = (
        (named("A74"), 145),
        (code_lift(c9()), 338),
        (code_lift(c10()), 647),
        (centred_cubic(9), 888),
        (code_lift(g12()), 1681),
    )
    for L, nodes in cases:
        node_tally[0] = 0
        assert qb(L).certified
        assert node_tally[0] == nodes, L.label


def test_the_basis_search_runs_past_its_first_basis(node_tally):
    # Without the parity bound the search certifies only by exhausting
    # its tree or by reaching the minima product, so these totals are
    # those of a search that keeps descending after its first complete
    # basis; one that stopped there would spend far fewer nodes.  A search
    # that the ball does not settle lists once past it, straight to
    # best / head, the bound that certifies.
    cases = (
        (named("A74"), 22361, []),
        (code_lift(c9()), 1453, [Fraction(9, 4)]),
        (code_lift(c10()), 39939, [Fraction(21, 8)]),
        (centred_cubic(9), 1545, []),
        (code_lift(c11()), 18371, [Fraction(27, 8)]),
        (code_lift(g12()), 436021, [Fraction(81, 16)]),
    )
    bounds = []
    listing = quality._listing

    def listed(L, bound, counter):
        bounds.append(bound)
        return listing(L, bound, counter)

    with patch.object(quality, "_parity_bound", lambda *args: 0), patch.object(quality, "_listing", listed):
        for L, nodes, later in cases:
            node_tally[0] = 0
            bounds.clear()
            assert qb(L).certified
            assert node_tally[0] == nodes, L.label
            assert bounds == later, L.label


def test_budget_stops_before_and_in_the_later_pass(node_tally):
    # The ternary lift certifies only in the pass after its minima ball,
    # with its real parity bound.  Its minima are the 15 unit vectors, so
    # M = 81.  A stop in the ball's tree leaves the frontier at M; a stop
    # after the ball's pass leaves rho * lam_1 ... lam_14 / det = 90 with
    # rho = 10/9, the radius that pass exhausted.  The search certifies
    # at the first budget that covers its later listing and tree.
    L = zd_lift(Code(d=3, n=15, k=2, gen=((2,) * 10 + (0,) * 5, (0,) * 5 + (2,) * 10)))
    for budget, frontier in ((300, 81), (600, 90), (828, 90)):
        report = qb(L, budget)
        assert not report.certified, budget
        assert (report.M, report.Hb, report.frontier) == (81, 100, frontier), budget
    node_tally[0] = 0
    report = qb(L, 829)
    assert report.certified and report.frontier is None
    assert (report.Hb, report.Qb) == (100, Fraction(100, 81))
    assert node_tally[0] == 829
    assert hermite_Hb(L, 828)[::2] == (100, False)
    assert hermite_Hb(L, 829)[::2] == (100, True)


def _qb_outcome(L, budget, node_tally):
    """What ``qb`` reports or raises on ``L`` under ``budget``, with the nodes it spent."""
    node_tally[0] = 0
    try:
        r = qb(L, budget)
        outcome = (r.M, r.Hb, r.Qb, r.best_basis, r.certified, r.frontier)
    except ResourceExceeded as err:
        outcome = ("raised", err.nodes, err.budget)
    return outcome, node_tally[0]


def test_qb_is_invariant_under_scaling(node_tally):
    # Scaling the form by a non-integral rational changes the scale of
    # its integral form, in which the listings count their norms and the
    # basis search keeps its integer products, and nothing else.  At
    # budget 50 most of these searches stop in the minima ball.  Without
    # the parity bound A74 and the C9 lift stop in their trees at 500,
    # so the frontier is compared as well.
    rand = random.Random(89)
    lattices = [named("A74"), code_lift(c9()), centred_cubic(6)]
    lattices += [perturbed(rand, search_corpus(n)[t]) for n in range(4, 9) for t in range(2)]
    for L in lattices:
        c = Fraction(rand.randint(1, 40), rand.choice((7, 11, 13)))
        dilated = scaled(L, c if c.denominator > 1 else c / 17)
        for budget in (None, 50, 500):
            assert (_qb_outcome(L, budget, node_tally)
                    == _qb_outcome(dilated, budget, node_tally)), (L.label, budget)
        with patch.object(quality, "_parity_bound", lambda pairs, n: 0):
            assert _qb_outcome(L, 500, node_tally) == _qb_outcome(dilated, 500, node_tally), L.label


def _copies(rand, L):
    """L, a scaled copy and a conjugated copy, each with the factor its norms carry."""
    c = Fraction(rand.randint(1, 40), rand.choice((3, 7, 11)))
    return ((L, 1), (scaled(L, c), c), (conjugate(L, random_unimodular(rand, L.n)), 1))


def test_the_parity_bound_matches_the_class_minima_oracle():
    # The bound is an invariant of the lattice, so the oracle runs on the
    # given basis only: its box would blow up on a conjugated one.
    rand = random.Random(97)
    lattices = [zn(4), centred_cubic(4), named("D4")]
    lattices += [narrow_random_gram(rand, rand.randint(2, 4)) for _ in range(12)]
    for base in lattices:
        n = base.n
        expected = parity_product(base.gram)
        cover = parity_cover(base.gram)
        for L, c in _copies(rand, base):
            got = _parity_bound(_listing(L, cover * c, _Counter(None)), n)
            assert Fraction(got, L._form.scale ** n) == expected * c**n, base.label


@lru_cache(maxsize=None)
def _searched_lattices():
    """Lattices whose basis search mostly runs at least one pass."""
    codes = [c for n in range(4, 10) for k in (1, 2, 3) for c in classify_binary(n, k, 4)]
    pool = [code_lift(c) for c in codes] + [centred_cubic(n) for n in range(4, 10)]
    pool += [named(x) for x in ("A73", "A74", "A7^2", "A5^3", "E7", "D6+")]
    return pool


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2))
def test_the_parity_bound_never_exceeds_the_optimum(seed, copy):
    rand = random.Random(seed)
    L, _ = _copies(rand, rand.choice(_searched_lattices()))[copy]
    bounds = []

    def recording(pairs, n):
        bounds.append(_parity_bound(pairs, n))
        return bounds[-1]

    with patch.object(quality, "_parity_bound", recording):
        report = qb(L)
    assert report.certified
    optimum = report.Hb * determinant(L)
    assert all(Fraction(b, L._form.scale ** L.n) <= optimum for b in bounds)
    # With the parity bound at 0 only the minima product can end the
    # search early.  Where it then finishes within a small budget, every
    # field of the report agrees.
    with patch.object(quality, "_parity_bound", lambda pairs, n: 0):
        exhaustive = qb(L, budget=20000)
    assert not exhaustive.certified or exhaustive == report


def test_small_code_lifts_are_certified_at_the_code_bound():
    # At rank 8 and above most of these lifts are well-rounded with all
    # minima 1.  Without the parity bound the search walks the n-subsets
    # of their minimal vectors, and 22 of them stay uncertified after
    # 2*10**6 nodes.
    codes = [c for n in range(4, 11) for k in range(1, 5) for c in classify_binary(n, k, 4)]
    assert len(codes) == 85
    for c in codes:
        report = qb(code_lift(c))
        assert report.certified, c
        assert report.Qb == code_qb_bound(c), c
