"""Integer and rational matrix helpers against brute force references."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from latquot.linalg import (
    _insert,
    det_int,
    det_rational,
    hnf_rows,
    identity_rows,
    is_primitive,
    matmul,
    smith_invariants,
    transpose,
)
from oracles import det_int as bareiss_det, inverse_rational, minor_gcd_invariants, rank_rational

small_matrix = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)

# Inputs on which a Smith form that reduces only the pivot row and
# column lets the other entries grow without bound (past 980 bits by the
# fourth pivot of the 7 x 7 frame); invariants (1, 1, 1, 1, 3, 110292)
# and (1, 1, 1, 1, 1, 2, 32634).
STALL_6 = [
    [-2, 5, 4, -8, -5, 6], [2, 7, 0, 3, -7, 9], [4, -5, 7, -2, 4, 6],
    [-7, 9, 2, 8, 7, -4], [-8, -3, -3, -9, 2, -2], [-2, 7, 7, 4, 8, 4],
]
STALL_7 = [
    [41, -1, 20, 0, -47, 3, -1], [2, 3, -41, 2, 2, 2, 0], [1, -2, -2, 2, -1, 0, -22],
    [0, 3, 1, 0, -1, 0, -1], [0, 0, 1, 2, 1, 3, -2], [0, 3, 3, 1, 0, 1, -1],
    [3, -22, -31, -2, -1, 3, 3],
]


def test_det_int_matches_rational_determinant():
    rand = random.Random(5)
    for _ in range(50):
        n = rand.randint(2, 5)
        rows = [[rand.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det_int(rows) == det_rational([list(r) for r in rows])


def test_the_echelon_decides_singularity_as_the_determinant_does():
    # A square matrix is nonsingular when every row raises the rank of
    # the span over Q, each row inserted into the annihilator of those
    # before it, which starts as the identity; the Bareiss determinant
    # must agree, sizes 0 to 8, singular ones included
    rand = random.Random(6)
    singular = 0
    for n in range(9):
        for t in range(30):
            rows = [[rand.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if n >= 2 and t % 3 == 0:
                # a row replaced by a combination of up to two others
                i, *others = rand.sample(range(n), min(n, 3))
                coeffs = [rand.randint(-2, 2) for _ in others]
                rows[i] = [sum(c * rows[o][j] for c, o in zip(coeffs, others)) for j in range(n)]
            annihilator = identity_rows(n)
            nonsingular = all(_insert(annihilator, row) for row in rows)
            assert nonsingular == (bareiss_det(rows) != 0), rows
            singular += not nonsingular
    assert singular > 50


def test_the_annihilator_ranks_every_prefix_as_the_rational_oracle_does():
    # Seeded vectors of lengths 0 to 12 spanning every rank up to their
    # length, mixed with planted combinations of each other and zero
    # vectors, entries up to 10^6 and sparse ones.  After each insertion
    # the rank is n minus the number of rows, as ``rank_rational`` finds
    # it on the prefix, and the rows are a primitive basis over Q of the
    # vectors orthogonal to the prefix.  The walk must also meet vectors
    # that the first row annihilates but a later one does not, and
    # combinations whose content is above 1, so that the division runs.
    rand = random.Random(55)
    later_first = divided = 0
    for n in range(13):
        for rank in range(n + 1):
            for size in (1, 10, 10**6):
                basis = [[rand.randint(-size, size) if rand.random() < 0.6 else 0
                          for _ in range(n)] for _ in range(rank)]
                planted = [[sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)]
                           for coeffs in ([rand.randint(-3, 3) for _ in basis] for _ in range(3))]
                vectors = basis + planted + [[0] * n]
                rand.shuffle(vectors)
                rows = identity_rows(n)
                for k, v in enumerate(vectors):
                    dots = [sum(a * b for a, b in zip(r, v)) for r in rows]
                    hit = next((i for i, x in enumerate(dots) if x), None)
                    if hit:
                        later_first += 1
                    if hit is not None:
                        c = rows[hit]
                        divided += any(
                            gcd(*(dots[hit] * a - x * b for a, b in zip(r, c))) > 1
                            for r, x in zip(rows[hit + 1:], dots[hit + 1:]) if x)
                    before = n - len(rows)
                    rose = _insert(rows, v)
                    prefix = [list(u) for u in vectors[:k + 1]]
                    assert n - len(rows) == rank_rational(prefix), (n, prefix)
                    assert rose == (n - len(rows) > before)
                    assert rank_rational(rows) == len(rows)
                    for r in rows:
                        assert gcd(*r) == 1, r
                        assert all(sum(a * b for a, b in zip(r, u)) == 0 for u in prefix), r
    assert later_first > 100 and divided > 100, (later_first, divided)


def test_inverse_rational_inverts():
    rand = random.Random(6)
    for _ in range(20):
        n = rand.randint(2, 4)
        rows = [[rand.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if det_int(rows) == 0:
            continue
        inv = inverse_rational([list(r) for r in rows])
        prod = matmul(rows, inv)
        assert prod == [
            [Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)
        ]


@settings(max_examples=60, deadline=None)
@given(small_matrix)
@example(STALL_6)
@example(STALL_7)
def test_smith_invariants_match_minor_gcds(rows):
    assert list(smith_invariants(rows)) == minor_gcd_invariants(rows) or (
        rank_rational([list(r) for r in rows]) == 0
    )


def test_smith_invariants_of_rectangular_matrices_match_minor_gcds():
    rand = random.Random(7)
    for _ in range(25):
        m = rand.randint(1, 4)
        n = rand.randint(1, 4)
        rows = [[rand.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        inv = smith_invariants(rows)
        assert list(inv) == minor_gcd_invariants(rows)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0


def test_is_primitive_known_cases():
    assert is_primitive([(1, 0, 0), (0, 1, 0)])
    assert not is_primitive([(2, 0, 0)])
    assert not is_primitive([(1, 0, 0), (1, 0, 0)])
    assert is_primitive([(2, 1, 0), (1, 1, 0)])


def test_hnf_pivots_do_not_decide_primitivity():
    # The single row (2, 1) spans a primitive line even though a naive
    # pivot product reading of its echelon form would say otherwise.
    assert is_primitive([(2, 1)])
    assert hnf_rows([(2, 1)]) in ([[2, 1]], [[-2, -1]])


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_hnf_preserves_the_row_span(rows):
    h = hnf_rows(rows)
    # Same span exactly when stacking changes no invariant factors.
    assert smith_invariants(list(rows)) == smith_invariants(h + [list(r) for r in rows])
    for r in h:
        assert any(r)


def test_hnf_shape_and_pivot_normalization():
    h = hnf_rows([[4, 2, 0], [2, 2, 2], [0, 0, 8]])
    pivots = []
    for row in h:
        lead = next(i for i, x in enumerate(row) if x)
        assert row[lead] > 0
        pivots.append(lead)
        for above in h[: h.index(row)]:
            assert 0 <= above[lead] < row[lead]
    assert pivots == sorted(pivots)


def test_identity_and_transpose():
    assert identity_rows(2) == [[1, 0], [0, 1]]
    assert transpose([[1, 2], [3, 4]]) == [[1, 3], [2, 4]]
