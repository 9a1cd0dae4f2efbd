"""Seeded random models used across the suite."""

import math
import random

from latquot.construct import centred_cubic, search_corpus, zn
from latquot import sampling
from latquot.core import determinant
from latquot.linalg import det_int, identity_rows
from latquot.sampling import perturbed, random_basis, random_coset, random_gram
from oracles import (
    _below, conjugate, det_int as bareiss_det, random_unimodular, reference_perturbed,
    reference_random_unimodular,
)


def test_same_seed_same_stream():
    a, b = random.Random(71), random.Random(71)
    for _ in range(10):
        assert random_gram(a, 3).gram == random_gram(b, 3).gram
        assert random_coset(a, 4) == random_coset(b, 4)


def test_random_gram_is_positive_definite():
    rand = random.Random(72)
    for _ in range(30):
        n = rand.randint(1, 5)
        L = random_gram(rand, n)
        # construction through from_rows already rejects anything not
        # positive definite, so reaching here proves it; check shape
        assert L.n == n
        assert determinant(L) >= 1


def test_random_basis_is_nonsingular():
    rand = random.Random(73)
    for _ in range(30):
        rows = random_basis(rand, rand.randint(1, 5))
        assert det_int(rows) != 0


def test_random_basis_keeps_the_first_nonsingular_draw():
    # draw for draw against the Bareiss determinant; seeds 2 and 20
    # (rank 2) each draw one singular basis first
    singular = 0
    for seed in range(27):
        n = seed % 9
        got, want = random.Random(seed), random.Random(seed)
        rows = random_basis(got, n)
        while True:
            draw = [[want.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if bareiss_det(draw):
                break
            singular += 1
        assert rows == draw and got.random() == want.random(), seed
    assert singular > 0


def test_random_unimodular():
    rand = random.Random(74)
    for _ in range(30):
        u = random_unimodular(rand, rand.randint(2, 5))
        assert abs(det_int(u)) == 1


def test_conjugate_preserves_the_determinant():
    rand = random.Random(75)
    L = centred_cubic(6)
    for _ in range(10):
        moved = conjugate(L, random_unimodular(rand, 6))
        assert determinant(moved) == determinant(L)
        assert moved.label == L.label


def test_random_coset_is_reduced_and_coprime():
    rand = random.Random(76)
    for _ in range(50):
        c = random_coset(rand, rand.randint(2, 6))
        assert math.gcd(c.d, *c.a) == 1
        assert all(-c.d < 2 * x <= c.d for x in c.a)


def test_perturbed_stays_positive_definite():
    rand = random.Random(77)
    for L in (zn(4), centred_cubic(5)):
        for _ in range(10):
            moved = perturbed(rand, L)
            assert moved.n == L.n
            assert determinant(moved) > 0


def test_random_unimodular_matches_the_reference_draw_for_draw():
    for n in range(1, 11):
        rand, ref = random.Random(n), random.Random(n)
        for _ in range(5):
            moved = sampling._apply(sampling._moves(rand, n), identity_rows(n))
            assert moved == reference_random_unimodular(ref, n)
            assert rand.getstate() == ref.getstate()


def test_below_draws_as_randint_does():
    # The sampler's inlined draw against the stdlib on the running
    # interpreter: the same value and the same generator state after
    # every call.
    for seed in range(20):
        rand, ref = random.Random(seed), random.Random(seed)
        for w in range(1, 10):
            for _ in range(5):
                assert _below(rand.getrandbits, w) == ref.randint(0, w - 1), (seed, w)
                assert rand.getstate() == ref.getstate(), (seed, w)


def test_moves_draw_as_sample_choice_and_random_do():
    # sample(range(n), 2) draws from a pool up to n = 21 and from a set
    # above it; both ways are checked, move by move, over all 12 moves.
    for seed in range(20):
        for n in list(range(2, 13)) + [21, 22, 25]:
            rand, ref = random.Random(seed), random.Random(seed)
            for _ in range(2):
                moves = sampling._moves(rand, n)
                want = []
                for _ in range(12):
                    i, j = ref.sample(range(n), 2)
                    want.append((i, j, ref.choice((-2, -1, 1, 2)), ref.random() < 0.5))
                assert moves == want, (seed, n)
                assert rand.getstate() == ref.getstate(), (seed, n)


class _CountingRandom(random.Random):
    """A generator that counts its zero-width ``randint`` draws."""

    zero_draws = 0

    def randint(self, a, b):
        self.zero_draws += a == b == 0
        return super().randint(a, b)


def test_perturbed_matches_the_reference_draw_for_draw():
    # The reference conjugates every candidate by matrix products and
    # rejects it by constructing its lattice; the sampler tests the
    # candidate first and conjugates only the accepted one.  Lattices,
    # labels and the generator state must agree after every draw, also
    # when every noisy attempt fails and the zero-noise one is taken.
    # The sampler never calls randint, so the reference counts those.
    fallbacks = 0
    for n in range(1, 11):
        corpus = search_corpus(n)
        for seed in (1, 2, 3):
            rand, ref = random.Random(seed), _CountingRandom(seed)
            for t in range(6):
                L = corpus[t % len(corpus)]
                got, want = perturbed(rand, L), reference_perturbed(ref, L)
                assert (got.gram, got.label) == (want.gram, want.label), (n, seed, t)
                assert rand.getstate() == ref.getstate(), (n, seed, t)
            fallbacks += ref.zero_draws > 0
    assert fallbacks > 0


def test_the_shells_mix_matches_the_reference_draw_for_draw():
    # perfbench's shells workload perturbs the rank 8 corpus lattices
    # taken in turn, 40 of them from one generator; at seeds 1 and 7
    # each matches the reference, with the same generator state after it.
    corpus = search_corpus(8)
    for seed in (1, 7):
        rand, ref = random.Random(seed), random.Random(seed)
        for t in range(40):
            L = corpus[t % len(corpus)]
            got, want = perturbed(rand, L), reference_perturbed(ref, L)
            assert (got.gram, got.label) == (want.gram, want.label), (seed, t)
            assert rand.getstate() == ref.getstate(), (seed, t)
