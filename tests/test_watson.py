"""Coset vectors, quotient structure and the maximal-index search."""

import operator
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations

import pytest

from latquot.codes import c9, classify_binary
from latquot.construct import (
    centred_cubic, code_lift, fixture_inventory, named, search_corpus, zd_lift, zn,
)
from latquot.core import GramLattice, _integral, _pivot_row, inner
from latquot.enumeration import _Counter, _ball, _dot, _times
from latquot.errors import DependentFrame, DimensionMismatch, ResourceExceeded
from latquot.frames import _frames, _orthogonal_seed, _root_index, _shells
from latquot.linalg import det_int, det_rational, identity_rows, matmul, transpose
from latquot.sampling import perturbed, random_coset, random_gram
from latquot.watson import (
    CosetVector,
    QuotientStructure,
    maximal_index,
    quotient_structure,
    watson_condition,
    watson_identity,
    watson_index_bound,
)
from oracles import (
    conjugate, gram_schmidt, inverse_rational, random_unimodular, reference_frame_indices,
    reference_index_bound, reference_maximal_index, reference_orthogonal_seed, scaled,
)


def frame_gram(L, rows):
    """The sublattice spanned by the rows, as a lattice in its own right."""
    gram = [[inner(L, u, v) for v in rows] for u in rows]
    return GramLattice.from_rows(gram, label="frame")


def test_coset_normalization():
    c = CosetVector(4, (6, 1, -3, 0))
    assert c.a == (2, 1, 1, 0)
    assert (c.n, c.A, c.m) == (4, 4, 3)
    assert c.shells == {1: (1, 2), 2: (0,)}
    assert c.counts == {1: 2, 2: 1}
    assert c.coords() == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 0)


def test_coset_rejects_degenerate_input():
    with pytest.raises(ValueError):
        CosetVector(1, (1, 1))
    with pytest.raises(ValueError):
        CosetVector(2, (0, 2))
    with pytest.raises(ValueError):
        CosetVector(6, (2, 4, 0))


def test_quotient_structure_validation():
    QuotientStructure(invariant_factors=(2, 4), index=8)
    with pytest.raises(ValueError):
        QuotientStructure(invariant_factors=(2, 3), index=6)
    with pytest.raises(ValueError):
        QuotientStructure(invariant_factors=(2, 2), index=8)
    with pytest.raises(ValueError):
        QuotientStructure(invariant_factors=(1, 2), index=2)


def test_identity_on_a_hand_checked_case():
    # Over Z^2 with e = (e_1 + e_2)/2: each side comes to -1.
    lhs, rhs = watson_identity(zn(2), CosetVector(2, (1, 1)))
    assert lhs == rhs == -1


def test_identity_on_random_instances():
    rand = random.Random(31)
    for _ in range(150):
        n = rand.randint(2, 5)
        L = random_gram(rand, n)
        lhs, rhs = watson_identity(L, random_coset(rand, n))
        assert lhs == rhs


def test_identity_rejects_length_mismatch():
    with pytest.raises(ValueError):
        watson_identity(zn(3), CosetVector(2, (1, 1)))


def test_condition():
    assert watson_condition(CosetVector(2, (1, 1, 1, 1)), 4)
    assert watson_condition(CosetVector(3, (1, 1, 1, 1, 1, 1)), 6)
    # a zero numerator fails even though A = 2d
    assert not watson_condition(CosetVector(2, (1, 1, 1, 1)), 5)
    assert not watson_condition(CosetVector(2, (1, 1, 1)), 3)


def test_index_bound_values():
    bounds = [watson_index_bound(n) for n in range(1, 9)]
    assert bounds == [reference_index_bound(n) for n in range(1, 9)]
    assert bounds == [1, 1, 1, 2, 2, 4, 8, 16]
    assert all(type(b) is int for b in bounds)
    with pytest.raises(ValueError):
        watson_index_bound(9)


def test_quotient_of_the_centred_cubic_by_the_unit_frame():
    # In the basis (e_1, e_2, e_3, e) the fourth unit vector is
    # 2e - e_1 - e_2 - e_3, and the unit frame has index 2.
    L = centred_cubic(4)
    frame = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, 2)]
    q = quotient_structure(L, frame)
    assert q.index == 2
    assert q.invariant_factors == (2,)

    # e = (f_1 + f_2 + f_3 + f_4) / 2 generates the quotient
    lhs, rhs = watson_identity(frame_gram(L, frame), CosetVector(2, (1, 1, 1, 1)))
    assert lhs == rhs


def test_quotient_structure_rejects_bad_frames():
    L = zn(3)
    with pytest.raises(DependentFrame):
        quotient_structure(L, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(DependentFrame):
        quotient_structure(L, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])


def test_every_frame_reader_checks_the_frame_shape():
    # n rows of length n
    L = centred_cubic(4)
    frame = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, 2)]
    with pytest.raises(DependentFrame, match="must contain n vectors"):
        quotient_structure(L, frame[:1])
    with pytest.raises(DimensionMismatch):
        quotient_structure(L, [row + (0,) for row in frame])
    with pytest.raises(DimensionMismatch):
        quotient_structure(L, [row[:3] for row in frame])


def test_code_lift_quotient_recovers_the_code_parameters():
    # The unit frame of Z^9 inside the lift of a [9,2] code spans a
    # sublattice of index 4 with elementary quotient (2, 2).  The lift's
    # basis is the unit vectors off the pivots 0 and 3 of the code's
    # reduced rows, then those rows over 2.
    L = zd_lift(c9(), base=zn(9))
    halves = [(1, 1, 1, 0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1, 1, 1, 1, 1)]
    basis = [row for j, row in enumerate(identity_rows(9)) if j not in (0, 3)]
    basis += [[Fraction(x, 2) for x in row] for row in halves]
    assert matmul(basis, transpose(basis)) == [list(row) for row in L.gram]
    frame = []
    for row in inverse_rational(basis):
        assert all(x.denominator == 1 for x in row)
        frame.append(tuple(int(x) for x in row))
    q = quotient_structure(L, frame)
    assert q.index == 4
    assert q.invariant_factors == (2, 2)


def test_maximal_index_of_the_root_lattices():
    e7 = maximal_index(named("E7"))
    assert e7.max_index == 8
    assert e7.witness_structure.invariant_factors == (2, 2, 2)
    assert e7.exhaustive
    assert abs(det_int(e7.witness_frame.vectors)) == 8

    a73 = maximal_index(named("A73"))
    assert (a73.max_index, a73.witness_structure.invariant_factors) == (3, (3,))
    assert a73.exhaustive

    a74 = maximal_index(named("A74"))
    assert (a74.max_index, a74.witness_structure.invariant_factors) == (4, (4,))
    assert a74.exhaustive


def test_budget_exhaustion_downgrades_to_a_lower_bound():
    # A74's minima ball costs 126 nodes and its frame search 519 more, so
    # at budget 300 the listing completes and the search stops short.
    report = maximal_index(named("A74"), budget=300)
    assert not report.exhaustive
    assert report.max_index >= 1
    assert report.witness_structure.index == report.max_index
    # the listing honours the budget too: E7's ball costs 178 nodes
    with pytest.raises(ResourceExceeded):
        maximal_index(named("E7"), budget=3)


def test_a_budget_run_out_keeps_the_best_frame_found():
    # The one walk raises its bar past each frame it yields, so a budget
    # that runs out mid-walk reports the best frame found so far.  At 500
    # nodes D6+ (decided at 797) and A74 (at 645) have met a frame of
    # their maximal index, 2 and 4, but not ruled out a larger one.
    for name, index in (("D6+", 2), ("A74", 4)):
        report = maximal_index(named(name), budget=500)
        assert (report.max_index, report.exhaustive) == (index, False), name
        assert abs(det_int(report.witness_frame.vectors)) == index, name


def test_pivot_rows_match_the_rational_gram_determinant():
    # Frames of random vectors in random lattices, half of them scaled by
    # a non-integral rational so that the Gram matrix must be cleared;
    # every other frame ends in a dependent vector.
    rand = random.Random(71)
    for trial in range(40):
        n = rand.randint(2, 6)
        L = random_gram(rand, n)
        if trial % 2:
            L = scaled(L, Fraction(rand.randint(1, 9), rand.choice((2, 3, 7))) / 5)
        scale, a = _integral(L.gram)
        assert scale > 1 if trial % 2 else scale == 1
        assert [[Fraction(x, scale) for x in row] for row in a] == [list(r) for r in L.gram]
        rows = [tuple(rand.randint(-3, 3) for _ in range(n)) for _ in range(rand.randint(1, n))]
        if trial % 4 < 2:
            rows.append(tuple(x - 2 * y for x, y in zip(rows[0], rows[-1])))
        minors, lam = [1], []
        for k, v in enumerate(rows):
            va = _times(v, a)
            row = _pivot_row([_dot(va, w) for w in rows[:k]] + [_dot(va, v)], minors, lam)
            gram = [[inner(L, u, w) for w in rows[:k + 1]] for u in rows[:k + 1]]
            assert Fraction(row[-1], scale ** (k + 1)) == det_rational(gram)
            if row[-1] <= 0:
                break
            _, mu = gram_schmidt(gram)
            assert [Fraction(row[j], minors[j + 1]) for j in range(k)] == mu[k][:k]
            minors.append(row.pop())
            lam.append(row)


def test_maximal_index_is_invariant_under_scaling(node_tally):
    # At budgets 300 and 600 A74, D6+ and E6 stop in the frame tree, so
    # the scaled copies must stop at the same node with the same incumbent.
    for L, c, stops in ((named("E7"), Fraction(3, 7), False),
                        (named("A74"), Fraction(5, 2), True),
                        (named("D6+"), Fraction(1, 6), True),
                        (named("E6"), Fraction(7, 3), True),
                        (named("D9"), Fraction(2, 5), False)):
        for budget in (None, 300, 600):
            node_tally[0] = 0
            plain = maximal_index(L, budget)
            nodes = node_tally[0]
            node_tally[0] = 0
            dilated = maximal_index(scaled(L, c), budget)
            assert node_tally[0] == nodes, (L.label, budget)
            assert dilated.max_index == plain.max_index
            assert dilated.witness_frame.vectors == plain.witness_frame.vectors
            assert dilated.witness_frame.norms == tuple(c * x for x in plain.witness_frame.norms)
            assert dilated.witness_structure == plain.witness_structure
            assert dilated.exhaustive == plain.exhaustive == (budget is None or not stops)
            assert plain.exhaustive or nodes == budget + 1, (L.label, budget)


def test_the_d6plus_and_a7_frame_searches_run_to_exhaustion():
    d6plus = maximal_index(named("D6+"))
    assert (d6plus.max_index, d6plus.exhaustive) == (2, True)
    a7 = maximal_index(named("A7"))
    assert (a7.max_index, a7.exhaustive) == (1, True)
    assert a7.witness_structure.invariant_factors == ()


def test_a8_is_decided_exhaustively(node_tally):
    # The Hadamard bound allows index 5, but the minima are the roots of
    # A8, whose one full-rank subsystem is A8 itself, so the frame of
    # minima's index 1 is the index and no tree is walked: the total is
    # the minima ball's alone.
    report = maximal_index(named("A8"))
    assert (report.max_index, report.exhaustive) == (1, True)
    assert report.witness_structure.invariant_factors == ()
    assert node_tally[0] == 128


def _reference_corpus():
    """Every fixture but A7, each also scaled, and 12 perturbed corpus lattices per rank 3-7."""
    fixtures = [L for name, L in sorted(fixture_inventory().items()) if name != "a7"]
    lattices = fixtures + [scaled(L, Fraction(3, 7)) for L in fixtures]
    rand = random.Random(17)
    for n in range(3, 8):
        corpus = search_corpus(n)
        lattices += [perturbed(rand, corpus[t % len(corpus)]) for t in range(12)]
    return lattices


def test_the_frame_search_matches_the_reference_search():
    # The one walk with a rising bar returns the reference's index,
    # quotient and witness frame.  It may settle a case that the
    # reference leaves open at the budget, never the reverse: here three
    # perturbed A7 and two perturbed D7, where the reference spends its
    # 200,000 nodes and the search under 40,000.
    settled = 0
    for L in _reference_corpus():
        expected = reference_maximal_index(L, 200_000)
        report = maximal_index(L, 200_000)
        assert report.max_index == expected.max_index, L.label
        assert report.witness_structure == expected.witness_structure, L.label
        assert report.witness_frame == expected.witness_frame, L.label
        assert report.exhaustive or not expected.exhaustive, L.label
        settled += report.exhaustive and not expected.exhaustive
    assert settled == 5


def test_frame_search_node_totals_are_pinned(node_tally):
    # Totals of every node the call spends, the minima ball's listing
    # included; the shells are read from that ball, not listed again.
    # A7's minima are a root system, so its total is its ball's alone.
    # A8's is pinned in test_a8_is_decided_exhaustively.
    for name, nodes in (("E8", 368), ("A74", 645), ("E7", 178), ("D6+", 797),
                        ("A5^3", 106), ("A7", 91)):
        node_tally[0] = 0
        assert maximal_index(named(name)).exhaustive
        assert node_tally[0] == nodes, name


def test_each_minimal_vector_meets_the_gram_matrix_once(monkeypatch):
    # The seed multiplies its picks by the cleared Gram matrix; when the
    # incumbent falls short of H, maximal_index multiplies each other
    # vector of the shells once, and the root system test and the tree
    # read those products with the seed's.  E7 and E8 settle at the seed,
    # which multiplies only its picks.
    cases = ((named("E6"), 36), (named("A74"), 17), (named("D6+"), 16),
             (named("A5^2"), 10), (named("A5^3"), 15), (named("A8"), 36),
             (named("E7"), 7), (named("E8"), 8))
    for L, total in cases:
        _, a, _, _ = L._form
        shells = _shells(_ball(L, _Counter(None)))
        seed, _ = _orthogonal_seed(shells, a)
        calls = Counter()

        def times(v, cols):
            calls[v] += 1
            return _times(v, cols)

        monkeypatch.setattr("latquot.frames._times", times)
        monkeypatch.setattr("latquot.watson._times", times)
        maximal_index(L)
        monkeypatch.undo()
        # the seed makes n products, so a larger total means the shells were paired
        once = Counter(v for _, shell in shells for v in shell) if total > L.n else Counter(seed)
        assert calls == once, L.label
        assert sum(calls.values()) == total, L.label


# Every named lattice of rank at most 9.
NAMED_UP_TO_9 = (
    [f"A{n}" for n in range(1, 10)] + [f"D{n}" for n in range(3, 10)]
    + [f"A{n}^2" for n in (3, 5, 7, 9)] + ["A5^3", "D6+", "E7", "E8", "A73", "A74"]
)


def _root(L):
    """``_root_index`` on the paired shells of the lattice's minima ball."""
    paired, _, det_a = _walk_input(L)
    return _root_index(paired, det_a)


# The named lattices of rank at most 8 whose minima form a root system.
ROOT_TYPE_UP_TO_8 = (
    [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(3, 9)] + ["A3^2", "A7^2", "E7", "E8"]
)


def test_the_root_path_matches_the_reference_search():
    # The closed form, and the witness the search keeps with it, against
    # the plain branch and bound: on every named lattice up to rank 8
    # whose minima form a root system, on E6, the one lattice here whose
    # greedy frame falls short of the closed form (index 2 against 3), so
    # that the tree finds the witness at that index, and on every binary
    # code lift up to length 10.  Where the reference decides the index,
    # the closed form must give it, also on the lattices whose search
    # stops at the Hadamard bound before the test is reached.  The
    # reference runs out of its 100,000 nodes on A7, A8, D7 and E6, and
    # must then still have found the same first frame of maximal index.
    lattices = [named(x) for x in NAMED_UP_TO_9 if named(x).n <= 8]
    roots = [L for L in lattices if _root(L) is not None]
    assert [L.label for L in roots] == [named(x).label for x in ROOT_TYPE_UP_TO_8]
    lifts = [code_lift(c) for n in range(4, 11) for k in range(1, 5) for c in classify_binary(n, k, 4)]
    assert len(lifts) == 85
    undecided = []
    for L in roots + [named("E6")] + lifts:
        expected = reference_maximal_index(L, 100_000)
        report = maximal_index(L)
        assert report.exhaustive, L.label
        assert report.max_index == expected.max_index, L.label
        assert report.witness_structure == expected.witness_structure, L.label
        assert report.witness_frame == expected.witness_frame, L.label
        root = _root(L)
        if root is not None and expected.exhaustive:
            assert root == expected.max_index, L.label
        if not expected.exhaustive:
            undecided.append(L.label)
    assert undecided == [named(x).label for x in ("A7", "A8", "D7")] + ["E6"]
    assert sum(_root(L) is not None for L in lifts) == 63


def test_the_root_path_decides_the_rank_9_and_10_root_lattices():
    # Each takes a few milliseconds; the tree had not decided the first
    # four after 300,000 nodes.
    for L, index, factors in ((named("A9"), 1, ()), (named("A9^2"), 2, (2,)),
                              (named("D9"), 8, (2, 2, 2)), (named("A10"), 1, ()),
                              (named("D10"), 16, (2, 2, 2, 2)), (named("E6"), 3, (3,))):
        report = maximal_index(L)
        assert (report.max_index, report.exhaustive) == (index, True), L.label
        assert report.witness_structure.invariant_factors == factors, L.label
        assert abs(det_int(report.witness_frame.vectors)) == index, L.label
        assert _root(L) == index, L.label


# Well rounded, but 2(u.v)/min is not an integer on every pair of
# minimal vectors: it takes the values +-2/3 on A5^2 and D6+, 1/3 on A73,
# and +-1/2 on A5^3 and A74.
NO_ROOT_SYSTEM = ("A5^2", "A5^3", "D6+", "A73", "A74")


@pytest.mark.parametrize(
    "name", ["A2", "A3", "A4", "A5", "A6", "D4", "D5", "A3^2", *NO_ROOT_SYSTEM])
def test_the_index_is_the_largest_index_of_every_listed_frame(name):
    # Every frame of the minima listed: the search's index is the largest
    # of their indices, and the closed form gives it wherever the minima
    # form a root system; it refuses on the rest, which the tree decides.
    L = named(name)
    largest = max(reference_frame_indices(_shells(_ball(L, _Counter(None)))))
    assert maximal_index(L).max_index == largest
    assert _root(L) == (None if name in NO_ROOT_SYSTEM else largest)


def test_the_frame_lister_refuses_before_listing():
    # A7 has C(28, 7) = 1,184,040 choices, past the lister's limit.
    shells = _shells(_ball(named("A7"), _Counter(None)))
    with pytest.raises(ValueError):
        reference_frame_indices(shells)


def _walk_input(L):
    """The paired shells, tail and det_a that ``_frames`` reads, as ``maximal_index`` builds them."""
    context = _ball(L, _Counter(None))
    _, a, minors, _ = L._form
    paired = [(count, [(v, _times(v, a)) for v in shell]) for count, shell in _shells(context)]
    tail = list(accumulate(reversed(context.minima), operator.mul, initial=1))[::-1]
    return paired, tail, minors[-1]


def test_the_frame_walk_yields_every_frame():
    # The tree walked to its end yields, for each index m the lister
    # finds, every frame of index at least m once and no other frame.
    # Every fixture and named lattice up to rank 9 whose frames the lister
    # can list, each on its own basis; A6 has the most, 16,807 frames.
    # Their minima are one shell each, so Z + D4, whose minima are two
    # shells, is added.  Conjugates are left out: the change-of-basis
    # tests of ``maximal_index`` cover them.
    d4 = named("D4").gram
    z_d4 = GramLattice.from_rows([[1, 0, 0, 0, 0]] + [[0, *row] for row in d4], label="Z+D4")
    lattices = list(fixture_inventory().values()) + [named(x) for x in NAMED_UP_TO_9] + [z_d4]
    listed, pairs = 0, 0
    for L in lattices:
        context = _ball(L, _Counter(None))
        shells = _shells(context)
        try:
            indices = reference_frame_indices(shells)
        except ValueError:
            continue
        listed += 1
        paired, tail, det_a = _walk_input(L)
        for m in sorted(set(indices)):
            walk = list(_frames([m], paired, tail, det_a, _Counter(None)))
            frames = [rows for _, rows in walk]
            assert len(set(frames)) == len(frames) == sum(x >= m for x in indices), (L.label, m)
            assert all(index == abs(det_int(rows)) >= m for index, rows in walk), (L.label, m)
            pairs += 1
    assert (listed, pairs) == (34, 45)


def test_the_hadamard_prune_is_reached_at_its_boundary():
    # D4's walk at index 2.  Its minima are 12 pairs of roots of norm 2,
    # so tail = (16, 8, 4, 2, 1) and det_a = 4, and a prefix of two roots
    # survives only if its minor exceeds ceil(2**2 * 4 / 4) - 1 = 3.  Two
    # roots at inner product +-1 have minor 2 * 2 - 1 = 3, the limit
    # itself: a prune loosened by one would keep them and walk below
    # them, and a tightened one would lose the orthogonal pairs, minor 4.
    # A seeded search over small integer Gram matrices of rank 2-4, at
    # every index up to one past the Hadamard bound, found the boundary
    # reached by a walk that yields a frame only on bases of D4.
    paired, tail, det_a = _walk_input(named("D4"))
    assert (tail, det_a) == ([16, 8, 4, 2, 1], 4)
    ((_, shell),) = paired
    pairs = {_dot(u, ua) * _dot(v, va) - _dot(u, va) ** 2 for (u, ua), (v, va) in combinations(shell, 2)}
    assert pairs == {3, 4}
    counter = _Counter(None)
    walk = list(_frames([2], paired, tail, det_a, counter))
    assert [index for index, _ in walk] == [2, 2, 2]
    assert all(index == abs(det_int(rows)) for index, rows in walk)
    assert counter.nodes == 155


def _positions(shells, a):
    """The per-position pools the references read: a shell's list once per
    minimum of its norm, each vector paired with its row of inner products."""
    return [[(v, _times(v, a)) for v in shell] for count, shell in shells for _ in range(count)]


def test_the_seed_matches_the_full_scan():
    # The seed multiplies only the vectors it picks by the Gram matrix
    # and narrows each shell once per pick; the reference scans every
    # pool vector's inner products for every position.  Every seed is a
    # frame of minima: n independent vectors whose norms are the minima.
    # Every fixture and named lattice up to rank 9, each on its own basis
    # and on three seeded conjugates.
    rand = random.Random(31)
    lattices = list(fixture_inventory().values()) + [named(x) for x in NAMED_UP_TO_9]
    for L in lattices:
        for M in [L] + [conjugate(L, random_unimodular(rand, L.n)) for _ in range(3)]:
            context = _ball(M, _Counter(None))
            shells = _shells(context)
            a = M._form[1]
            seed, products = _orthogonal_seed(shells, a)
            assert seed == reference_orthogonal_seed(_positions(shells, a)), M.label
            assert len(seed) == M.n and det_int(seed) != 0, M.label
            assert products == {v: _times(v, a) for v in seed}, M.label
            assert tuple(_dot(v, _times(v, a)) for v in seed) == context.minima, M.label


def test_the_seed_falls_back_as_the_full_scan_does():
    # Hand-made shells over Z^2 and Z^3 with the identity Gram matrix: a
    # pick with no orthogonal vector left falls back to the first
    # independent one, and a shell first met after two picks is narrowed
    # by both.
    a2, a3 = identity_rows(2), identity_rows(3)
    shared = [(1, 1, 0), (1, 0, 0), (0, 1, 1)]
    for shells, a, seed in (
        ([(1, [(1, 0), (1, 1)]), (1, [(2, 0), (1, 1)])], a2, ((1, 0), (1, 1))),
        ([(3, shared)], a3, ((1, 1, 0), (1, 0, 0), (0, 1, 1))),
        ([(1, [(1, 0, 0)]), (1, [(0, 1, 0)]), (1, [(0, 1, 1), (0, 0, 1)])], a3,
         ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    ):
        assert reference_orthogonal_seed(_positions(shells, a)) == seed
        assert _orthogonal_seed(shells, a)[0] == seed


def test_the_maximal_index_is_invariant_under_a_change_of_basis():
    # The index and whether it was decided exhaustively are invariants of
    # the lattice, so every fixture reports the same on three seeded
    # conjugates.  The quotient structure of the witness is left out: it
    # may depend on the basis.
    rand = random.Random(12)
    lattices = sorted(fixture_inventory().items()) + [(x, named(x)) for x in ("A9^2", "D9")]
    for name, L in lattices:
        plain = maximal_index(L)
        for _ in range(3):
            report = maximal_index(conjugate(L, random_unimodular(rand, L.n)))
            assert (report.max_index, report.exhaustive) == (plain.max_index, plain.exhaustive), name
