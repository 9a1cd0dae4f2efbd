"""Codes over Z/dZ: distributions, equivalence, classification, bounds."""

import random
from fractions import Fraction
from math import prod

import pytest

from latquot.codes import (
    Code,
    WeightDistribution,
    _binary_words,
    c8,
    c9,
    c10,
    c11,
    classify_binary,
    code_qb_bound,
    g12,
    min_weight_support,
    weight_distribution,
)
from latquot.errors import CodeTooLight, ResourceExceeded
from latquot.linalg import _insert2, _rref2, identity_rows
from oracles import (
    _gf2_rank, canonical_form, equivalent, minor_gcd_invariants, reference_classify_binary,
    reference_code_qb_bound, repetition,
)


def test_code_validation_agrees_with_the_minor_gcd_index():
    # The rows generate a group of order d^k exactly when their stack
    # over d * I has index d^(n - k); the minor gcds give that index
    # without a Hermite form.
    rand = random.Random(2028)
    outcomes = set()
    for _ in range(150):
        d, n = rand.randint(2, 6), rand.randint(1, 4)
        k = rand.randint(1, n)
        gen = tuple(tuple(rand.randrange(d) for _ in range(n)) for _ in range(k))
        stacked = [list(row) for row in gen]
        stacked += [[d * x for x in row] for row in identity_rows(n)]
        generates = prod(minor_gcd_invariants(stacked)) == d ** (n - k)
        outcomes.add(generates)
        if generates:
            Code(d=d, n=n, k=k, gen=gen)
        else:
            with pytest.raises(ValueError, match="do not generate"):
                Code(d=d, n=n, k=k, gen=gen)
    assert outcomes == {True, False}


def test_code_validation():
    with pytest.raises(ValueError):
        Code(d=2, n=3, k=2, gen=((1, 1, 0),))
    with pytest.raises(ValueError):
        Code(d=2, n=2, k=3, gen=((1, 0), (0, 1), (1, 1)))
    # duplicate rows span a group of order 2, not 4
    with pytest.raises(ValueError):
        Code(d=2, n=3, k=2, gen=((1, 1, 0), (1, 1, 0)))
    # a row of even entries has order 2 modulo 4
    with pytest.raises(ValueError):
        Code(d=4, n=2, k=1, gen=((2, 0),))


def test_words():
    # the nonzero words of a binary code, as sorted masks
    assert _binary_words(Code(d=2, n=3, k=1, gen=((1, 1, 0),)).masks()) == [0b011]
    assert _binary_words(c8().masks()) == [0b00011111, 0b11100111, 0b11111000]


def test_masks():
    assert c8().masks() == (0b00011111, 0b11111000)
    with pytest.raises(ValueError):
        Code(d=3, n=2, k=1, gen=((1, 1),)).masks()


def test_weight_distribution_formatting():
    dist = WeightDistribution.from_dict({6: 1, 5: 2})
    assert str(dist) == "5^2·6"


def test_distributions_of_the_named_codes():
    expected = {
        "c8": (c8, "5^2·6"),
        "c9": (c9, "6^3"),
        "c10": (c10, "6·7^2"),
        "c11": (c11, "6^6·8"),
        "g12": (g12, "6^12·8^3"),
    }
    for make, dist in expected.values():
        assert str(weight_distribution(make())) == dist


def test_min_weight_support():
    assert min_weight_support(c8()) == (5, 8, True)
    assert min_weight_support(repetition(5)) == (5, 5, True)
    assert min_weight_support(Code(d=2, n=4, k=1, gen=((1, 1, 1, 0),))) == (
        3,
        3,
        False,
    )
    # weights are counted for binary codes only
    quaternary = Code(d=4, n=2, k=1, gen=((1, 2),))
    for count in (weight_distribution, min_weight_support):
        with pytest.raises(ValueError, match="binary codes only"):
            count(quaternary)


def test_equivalence_under_column_shuffles():
    rand = random.Random(51)
    base = c11()
    for _ in range(10):
        perm = list(range(base.n))
        rand.shuffle(perm)
        shuffled = Code(
            d=2,
            n=base.n,
            k=base.k,
            gen=tuple(tuple(row[p] for p in perm) for row in base.gen),
        )
        assert canonical_form(shuffled) == canonical_form(base)
        assert equivalent(shuffled, base)


def test_equivalence_under_row_operations():
    a = c9()
    b = Code(
        d=2,
        n=9,
        k=2,
        gen=(a.gen[0], tuple((x + y) % 2 for x, y in zip(a.gen[0], a.gen[1]))),
    )
    assert equivalent(a, b)


def test_inequivalent_codes_with_equal_parameters():
    first, second = classify_binary(7, 2, 4)
    assert not equivalent(first, second)
    assert {str(weight_distribution(c)) for c in (first, second)} == {
        "4^2·6",
        "4·5^2",
    }


def test_classification_counts_and_distributions():
    cases = {
        (6, 2, 4): ["4^3"],
        (8, 2, 5): ["5^2·6"],
        (9, 2, 5): ["5^2·8", "5·6·7", "6^3"],
        (10, 2, 5): ["5^2·10", "5·6·9", "5·7·8", "6^2·8", "6·7^2"],
    }
    for (n, k, w), dists in cases.items():
        reps = classify_binary(n, k, w)
        assert sorted(str(weight_distribution(r)) for r in reps) == dists
        for rep in reps:
            assert min_weight_support(rep)[2]


def test_classification_matches_the_echelon_reference():
    grid = [(n, k, w) for k in (1, 2, 3) for n in range(k, 9) for w in range(n + 1)]
    grid += [(9, 2, 5), (10, 2, 5), (8, 3, 4), (6, 4, 2)]
    assert any(w == 0 for _, _, w in grid)
    for n, k, w in grid:
        assert classify_binary(n, k, w) == reference_classify_binary(n, k, w), (n, k, w)


def test_the_paper_long_codes_are_the_only_classes():
    (eleven,) = classify_binary(11, 3, 6)
    assert equivalent(eleven, c11())
    (twelve,) = classify_binary(12, 4, 6)
    assert equivalent(twelve, g12())


def test_classification_node_totals_are_pinned(node_tally):
    for args, nodes in (((10, 2, 5), 202), ((9, 3, 4), 5179)):
        node_tally[0] = 0
        classify_binary(*args)
        assert node_tally[0] == nodes, args


def test_classification_respects_the_budget():
    with pytest.raises(ResourceExceeded, match=r"\(11 > 10\)"):
        classify_binary(10, 2, 5, budget=10)
    with pytest.raises(ValueError):
        classify_binary(13, 2, 5)


def test_classification_rejects_dimensions_outside_its_range():
    for n, k in ((4, 0), (4, -1), (6, 5), (13, 2)):
        with pytest.raises(ValueError, match=r"1 <= k <= 4, n <= 12"):
            classify_binary(n, k, 4)


def test_the_gf2_echelon_form_against_the_rank_oracle():
    rand = random.Random(29)
    for _ in range(400):
        masks = [rand.getrandbits(rand.randint(0, 12)) for _ in range(rand.randint(0, 8))]
        rows: dict[int, int] = {}
        for i, m in enumerate(masks):
            assert _insert2(rows, m) == (_gf2_rank(masks[:i + 1]) > _gf2_rank(masks[:i]))
        pivots, reduced = _rref2(masks)
        assert pivots == sorted(pivots)
        assert len(pivots) == _gf2_rank(masks) == _gf2_rank(reduced + masks)
        for p, row in zip(pivots, reduced):
            # the pivot is the row's lowest bit and no other row has it
            assert row & -row == 1 << p
            assert sum(r >> p & 1 for r in reduced) == 1


def test_basis_product_bounds():
    assert code_qb_bound(c8()) == Fraction(25, 16)
    assert code_qb_bound(c9()) == Fraction(9, 4)
    assert code_qb_bound(c10()) == Fraction(21, 8)
    assert code_qb_bound(c11()) == Fraction(27, 8)
    assert code_qb_bound(g12()) == Fraction(81, 16)
    with pytest.raises(CodeTooLight):
        code_qb_bound(repetition(3))


def test_the_greedy_code_bound_matches_every_subset():
    # The greedy walk over the words sorted by (weight, mask) against
    # the least product over every k-subset of rank k, on every class of
    # weight >= 4 up to length 9
    codes = [c for k in range(1, 5) for n in range(k, 10) for c in classify_binary(n, k, 4)]
    assert len(codes) == 36
    for c in codes:
        assert code_qb_bound(c) == reference_code_qb_bound(c), c

