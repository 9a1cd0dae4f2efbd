"""Exact LLL on Gram matrices."""

import random
from fractions import Fraction

import pytest

from latquot.core import GramLattice, determinant, validate
from latquot.construct import fixture_inventory, named, search_corpus, zd_lift
from latquot.codes import c9
from latquot.linalg import det_int, matmul, transpose
from latquot.reduction import lll
from latquot.sampling import perturbed, random_gram
from oracles import brute_minimum, gram_schmidt, reference_lll


def _random_instances(count, dims, seed):
    rand = random.Random(seed)
    for _ in range(count):
        yield random_gram(rand, rand.randint(*dims))


def test_transform_reproduces_the_reduced_gram():
    for L in _random_instances(30, (2, 5), 11):
        red = lll(L)
        u = [list(r) for r in red.transform]
        assert abs(det_int(u)) == 1
        assert matmul(matmul(u, [list(r) for r in L.gram]), transpose(u)) == [
            list(r) for r in red.gram.gram
        ]


def test_reduction_preserves_the_determinant():
    for L in _random_instances(20, (2, 4), 12):
        assert determinant(lll(L).gram) == determinant(L)


def test_lovasz_and_size_reduction_hold():
    delta = Fraction(99, 100)
    for L in _random_instances(20, (2, 4), 13):
        red = lll(L)
        n = red.gram.n
        b, mu = gram_schmidt(red.gram.gram)
        for i in range(n):
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
        for k in range(1, n):
            assert b[k] >= (delta - mu[k][k - 1] ** 2) * b[k - 1]


def test_lll_matches_the_from_scratch_reference():
    # The integral reduction must take exactly the decisions of the
    # reference, which recomputes a Fraction Gram-Schmidt after every
    # swap: on the fixtures and perturbed corpus lattices, on copies
    # scaled by a non-integral rational (so that denominators are
    # cleared), at other reduction parameters, and on exact half-ties.
    lattices = list(fixture_inventory().values())
    rand = random.Random(15)
    for n in (6, 7, 8):
        corpus = search_corpus(n)
        lattices += [perturbed(rand, corpus[t % len(corpus)]) for t in range(8)]
    scaled = []
    for L in lattices:
        c = Fraction(rand.randint(1, 40), rand.choice((7, 11, 13)))
        scaled.append(L.scaled(c if c.denominator > 1 else c / 17))
    ties = [GramLattice.from_rows(rows) for rows in (
        [[2, 1], [1, 2]], [[2, -1], [-1, 2]], [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
        [[4, 2, -2], [2, 4, 1], [-2, 1, 4]])]
    cases = [(L, Fraction(99, 100)) for L in lattices + scaled + ties]
    for delta in (Fraction(51, 100), Fraction(3, 4), Fraction(999, 1000)):
        cases += [(L, delta) for L in lattices[::2] + scaled[1::2] + ties]
    for L, delta in cases:
        red = lll(L, delta)
        gram, transform = reference_lll(L.gram, delta)
        assert [list(r) for r in red.transform] == transform, (L.label, delta)
        assert [list(r) for r in red.gram.gram] == gram, (L.label, delta)
    assert all(lll(L).gram._form.scale > 1 for L in scaled)
    # mu = 1/2 rounds up, mu = -1/2 stays
    assert lll(ties[0]).transform == ((1, 0), (-1, 1))
    assert lll(ties[1]).transform == ((1, 0), (0, 1))


def test_the_reduced_lattice_carries_the_pivots_of_its_gram_matrix():
    # lll hands the reduced lattice the integral form it ends with
    # instead of validating it again: it must be validate's form,
    # also on copies scaled by a non-integral rational
    lattices = list(fixture_inventory().values())
    for n in range(4, 11):
        lattices += search_corpus(n)
    rand = random.Random(16)
    lattices += [L.scaled(Fraction(2 * rand.randint(1, 20) + 1, rand.choice((2, 6, 10))))
                 for L in lattices]
    for L in lattices:
        reduced = lll(L).gram
        assert reduced._form == validate(reduced.gram), L.label


def test_first_vector_obeys_the_lll_quality_bound():
    # With delta = 99/100 the first reduced vector satisfies
    # N(b1) <= (1/(delta - 1/4))^(n-1) * minimum, all exactly.
    factor = Fraction(1) / (Fraction(99, 100) - Fraction(1, 4))
    for L in _random_instances(12, (2, 3), 14):
        red = lll(L)
        low = brute_minimum(L.gram)
        assert red.gram.gram[0][0] <= factor ** (L.n - 1) * low


def test_reduction_finds_short_bases_for_the_lifted_lattices():
    lifted = zd_lift(c9())
    red = lll(lifted)
    assert determinant(red.gram) == determinant(lifted)
    assert min(red.gram.gram[i][i] for i in range(9)) == 1


def test_bad_delta_is_rejected():
    L = named("A5").lattice
    with pytest.raises(ValueError):
        lll(L, delta=Fraction(1, 4))
    with pytest.raises(ValueError):
        lll(L, delta=1)
