"""Exact LLL on Gram matrices."""

import random
from fractions import Fraction

from latquot.core import GramLattice, determinant
from latquot.construct import fixture_inventory, search_corpus, zd_lift
from latquot.codes import c9
from latquot.linalg import det_int
from latquot.reduction import lll
from latquot.sampling import perturbed, random_gram
from oracles import brute_minimum, gram_schmidt, kept_pivots, reduced_gram, reference_lll, scaled


def _random_instances(count, dims, seed):
    rand = random.Random(seed)
    for _ in range(count):
        yield random_gram(rand, rand.randint(*dims))


def _kept(red):
    return red.scale, red.minors, red.lam, red.diagonal


def test_transform_reproduces_the_reduced_gram():
    # the transform is unimodular, and the pivots lll keeps are those of
    # the Gram matrix U G U^T it reaches
    for L in _random_instances(30, (2, 5), 11):
        red = lll(L)
        assert abs(det_int(red.transform)) == 1
        assert _kept(red) == kept_pivots(reduced_gram(L))


def test_reduction_preserves_the_determinant():
    for L in _random_instances(20, (2, 4), 12):
        assert determinant(GramLattice.from_rows(reduced_gram(L))) == determinant(L)
        assert lll(L).minors[-1] == L._form.minors[-1]


def test_lovasz_and_size_reduction_hold():
    delta = Fraction(99, 100)
    for L in _random_instances(20, (2, 4), 13):
        red = lll(L)
        n = L.n
        b, mu = gram_schmidt(reduced_gram(L))
        for i in range(n):
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
        for k in range(1, n):
            assert b[k] >= (delta - mu[k][k - 1] ** 2) * b[k - 1]


def test_lll_matches_the_from_scratch_reference():
    # The integral reduction must take exactly the decisions of the
    # reference, which recomputes a Fraction Gram-Schmidt after every
    # swap: on the fixtures and perturbed corpus lattices of ranks 2-10,
    # on copies scaled by a non-integral rational (so that denominators
    # are cleared), and on exact half-ties.
    lattices = list(fixture_inventory().values())
    rand = random.Random(15)
    for n in (6, 7, 8):
        corpus = search_corpus(n)
        lattices += [perturbed(rand, corpus[t % len(corpus)]) for t in range(8)]
    draws = random.Random(54)
    for n in range(2, 11):
        corpus = search_corpus(n)
        lattices += [perturbed(draws, corpus[t % len(corpus)]) for t in range(6)]
    dilated = []
    for L in lattices:
        c = Fraction(rand.randint(1, 40), rand.choice((7, 11, 13)))
        dilated.append(scaled(L, c if c.denominator > 1 else c / 17))
    ties = [GramLattice.from_rows(rows) for rows in (
        [[2, 1], [1, 2]], [[2, -1], [-1, 2]], [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
        [[4, 2, -2], [2, 4, 1], [-2, 1, 4]])]
    for L in lattices + dilated + ties:
        red = lll(L)
        gram, transform = reference_lll(L.gram)
        assert [list(r) for r in red.transform] == transform, L.label
        assert _kept(red) == kept_pivots(gram), L.label
    assert all(lll(L).scale > 1 for L in dilated)
    # mu = 1/2 rounds up, mu = -1/2 stays
    assert lll(ties[0]).transform == ((1, 0), (-1, 1))
    assert lll(ties[1]).transform == ((1, 0), (0, 1))


def test_the_reduced_lattice_carries_the_pivots_of_its_gram_matrix():
    # lll keeps the pivots it ends with instead of validating the
    # reduced Gram matrix: they must be validate's, also on copies
    # scaled by a non-integral rational
    lattices = list(fixture_inventory().values())
    for n in range(4, 11):
        lattices += search_corpus(n)
    rand = random.Random(16)
    lattices += [scaled(L, Fraction(2 * rand.randint(1, 20) + 1, rand.choice((2, 6, 10))))
                 for L in lattices]
    for L in lattices:
        assert _kept(lll(L)) == kept_pivots(reduced_gram(L)), L.label


def test_first_vector_obeys_the_lll_quality_bound():
    # With delta = 99/100 the first reduced vector satisfies
    # N(b1) <= (1/(delta - 1/4))^(n-1) * minimum, all exactly.
    factor = Fraction(1) / (Fraction(99, 100) - Fraction(1, 4))
    for L in _random_instances(12, (2, 3), 14):
        red = lll(L)
        low = brute_minimum(L.gram)
        assert Fraction(red.diagonal[0], red.scale) <= factor ** (L.n - 1) * low


def test_reduction_finds_short_bases_for_the_lifted_lattices():
    lifted = zd_lift(c9())
    red = lll(lifted)
    assert red.minors[-1] == lifted._form.minors[-1]
    assert min(red.diagonal) == red.scale

