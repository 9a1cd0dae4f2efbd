"""Gram matrix container, parsing, and exact scalar types."""

import random
import sys
from fractions import Fraction

import pytest

from latquot.core import (
    HERMITE_POWER,
    GramLattice,
    determinant,
    inner,
    norm,
    parse_lattice_json,
    parse_lattice_text,
    parse_rational,
    qform,
)
from latquot.errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric, ParseError
from oracles import reference_validate, scaled


def test_hermite_powers_match_the_known_table():
    assert HERMITE_POWER == {
        1: Fraction(1),
        2: Fraction(4, 3),
        3: Fraction(2),
        4: Fraction(4),
        5: Fraction(8),
        6: Fraction(64, 3),
        7: Fraction(64),
        8: Fraction(256),
    }


def test_from_rows_normalizes_entries_to_fractions():
    L = GramLattice.from_rows([[2, 1], [1, 2]], label="demo")
    assert L.n == 2
    assert L.gram[0][1] == Fraction(1)
    assert L.label == "demo"
    mixed = GramLattice.from_rows([[2, Fraction(1, 2)], ["1/2", "3"]])
    assert mixed.gram == ((2, Fraction(1, 2)), (Fraction(1, 2), 3))
    assert all(type(x) is Fraction for row in mixed.gram for x in row)


def test_asymmetric_matrix_is_rejected():
    with pytest.raises(NotSymmetric):
        GramLattice.from_rows([[1, 1], [0, 1]])


def test_indefinite_matrix_is_rejected():
    with pytest.raises(NotPositiveDefinite):
        GramLattice.from_rows([[1, 2], [2, 1]])


def test_semidefinite_matrix_is_rejected():
    with pytest.raises(NotPositiveDefinite):
        GramLattice.from_rows([[1, 1], [1, 1]])


def test_rank_zero_is_rejected():
    # as the text and JSON parsers reject it; such a lattice used to
    # construct, and ``qb`` on it failed deep in the search
    for rows in ([], ()):
        with pytest.raises(DimensionMismatch, match="rank must be at least 1"):
            GramLattice.from_rows(rows)
    with pytest.raises(DimensionMismatch, match="rank must be at least 1"):
        GramLattice(0, [])


def test_construction_witnesses_match_their_definitions():
    rand = random.Random(31)
    seen = set()
    for _ in range(600):
        n = rand.randint(1, 5)
        m = [[Fraction(rand.randint(-4, 4), rand.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        if rand.random() < 0.7:
            for i in range(n):
                for j in range(i):
                    m[i][j] = m[j][i]
        if rand.random() < 0.5:
            for i in range(n):
                m[i][i] += rand.randint(0, 6)
        if rand.random() < 0.05:
            m[rand.randrange(n)].pop()
        try:
            scale, _, d, _ = GramLattice.from_rows(m)._form
            got = ("pivots", tuple(Fraction(d[i + 1], d[i] * scale) for i in range(n)))
        except DimensionMismatch:
            got = ("square",)
        except NotSymmetric as exc:
            got = ("symmetric", exc.position)
        except NotPositiveDefinite as exc:
            got = ("definite", exc.minor)
        assert got == reference_validate(m), m
        seen.add(got[0])
    assert seen == {"pivots", "square", "symmetric", "definite"}


def test_integer_rows_build_the_lattice_of_their_fraction_copies():
    # Integer rows are checked and cleared as ints, at scale 1; the same
    # rows as Fractions take the rational path.  Both give the same
    # lattice, or fail with the same witness.
    rand = random.Random(32)
    seen = set()
    for _ in range(600):
        n = rand.randint(1, 6)
        m = [[rand.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rand.random() < 0.7:
            for i in range(n):
                for j in range(i):
                    m[i][j] = m[j][i]
        if rand.random() < 0.6:
            for i in range(n):
                m[i][i] += rand.randint(0, 9)
        outcomes = []
        for rows in (m, [[Fraction(x) for x in row] for row in m]):
            try:
                L = GramLattice.from_rows(rows)
                assert all(type(x) is Fraction for row in L.gram for x in row)
                outcomes.append(("lattice", L.gram, L._form))
            except NotSymmetric as exc:
                outcomes.append(("symmetric", exc.position))
            except NotPositiveDefinite as exc:
                outcomes.append(("definite", exc.minor))
        assert outcomes[0] == outcomes[1], m
        seen.add(outcomes[0][0])
    assert seen == {"lattice", "symmetric", "definite"}


def test_qform_norm_inner_agree():
    L = GramLattice.from_rows([[2, 1], [1, 4]])
    v, w = (1, -1), (2, 1)
    assert qform(L.gram, v) == Fraction(4)
    assert norm(L, v) == Fraction(4)
    assert inner(L, v, v) == norm(L, v)
    assert inner(L, v, w) == inner(L, w, v)


def test_determinant_of_scaled_copy():
    L = GramLattice.from_rows([[2, 1], [1, 2]])
    assert determinant(L) == Fraction(3)
    assert determinant(scaled(L, Fraction(1, 2))) == Fraction(3, 4)


def test_text_parse_reads_gram_and_label():
    L = parse_lattice_text("2\n1 1/2\n1/2 5/4\n# half\n")
    assert L.gram == ((1, Fraction(1, 2)), (Fraction(1, 2), Fraction(5, 4)))
    assert L.label == "half"


def test_json_parse_reads_gram_and_label():
    L = parse_lattice_json('{"n": 2, "gram": [["3", "1/2"], ["1/2", "3"]], "label": "three"}')
    assert L.gram == ((3, Fraction(1, 2)), (Fraction(1, 2), 3))
    assert L.label == "three"


def test_json_parse_rejects_rows_that_are_not_arrays():
    # a string row would otherwise be walked character by character
    for text in ('{"gram": ["21", "12"]}', '{"gram": [[2, 1], "12"]}', '{"gram": "21"}'):
        with pytest.raises(ParseError, match="array of arrays"):
            parse_lattice_json(text)


def test_json_parse_rejects_a_label_that_is_not_a_string():
    with pytest.raises(ParseError, match="label"):
        parse_lattice_json('{"gram": [[2, 1], [1, 2]], "label": 5}')
    assert parse_lattice_json('{"gram": [[2, 1], [1, 2]], "label": null}').label is None


def test_json_parse_rejects_a_rank_that_is_not_an_integer():
    # true would pass as rank 1, and 2.0 would reach the reduction as a float
    for text in ('{"gram": [[2]], "n": true}', '{"gram": [[2, 1], [1, 2]], "n": 2.0}'):
        with pytest.raises(ParseError, match="'n' must be an integer"):
            parse_lattice_json(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_lattice_text("2\n1 0\n1 oops\n")
    assert "3" in str(err.value)


def test_json_parse_rejects_rank_zero():
    # as the text format does
    for text in ('{"gram": []}', '{"n": 0, "gram": []}', '{"n": 2, "gram": []}'):
        with pytest.raises(ParseError, match="rank must be at least 1"):
            parse_lattice_json(text)
    with pytest.raises(ParseError, match="rank must be at least 1"):
        parse_lattice_text("0\n")


def test_parse_rejects_wrong_row_count():
    with pytest.raises(ParseError):
        parse_lattice_text("3\n1 0\n0 1\n")


def test_json_numbers_are_read_from_their_text_not_through_a_float():
    # a float would round the entry to 1, and the determinant with it
    L = parse_lattice_json('{"gram": [[1.00000000000000000001]]}')
    assert L.gram == ((Fraction(10**20 + 1, 10**20),),)
    # a number of at most 15 significant digits survives a float, and
    # reads as it did through one
    for token in ("0.5", "2.25", "1.23456789012345", "123456789012345.0", "1E+2", "2.5e-3", "7e-15"):
        entry = parse_lattice_json(f'{{"gram": [[{token}]]}}').gram[0][0]
        assert entry == Fraction(repr(float(token))), token
    # a number with a fraction is still no label
    with pytest.raises(ParseError, match="label"):
        parse_lattice_json('{"gram": [[2]], "label": 5.0}')


def test_a_number_past_the_digit_limit_is_refused_in_both_formats():
    # The interpreter refuses an integer of more digits than its limit;
    # a decimal exponent would build one from a short token, so an
    # exponent past the limit is refused as well, in text and in JSON,
    # and a JSON number json cannot read is a ParseError too.
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e{limit}") == 10**limit
    for token in (f"1e{limit + 1}", f"1e-{limit + 1}", f"2.5E+{limit + 1}", "1e50000000"):
        with pytest.raises(ValueError):
            parse_rational(token)
        with pytest.raises(ParseError):
            parse_lattice_text(f"1\n{token}\n")
        with pytest.raises(ParseError):
            parse_lattice_json(f'{{"gram": [["{token}"]]}}')
        with pytest.raises(ParseError):
            parse_lattice_json(f'{{"gram": [[{token}]]}}')
    with pytest.raises(ParseError):
        parse_lattice_json(f'{{"gram": [[1{"0" * limit}]]}}')


def _inexact_inputs():
    from latquot.bounds import BoundContext, crude_bound
    from latquot.codes import Code
    from latquot.construct import zn
    from latquot.enumeration import vectors_up_to
    from latquot.watson import CosetVector, quotient_structure

    GramLattice.from_rows([[1, 0], [0, 1]])  # an equal int entry already converted
    return {
        "gram": lambda: GramLattice.from_rows([[0.1, 0], [0, 1]]),
        "gram-integral-float": lambda: GramLattice.from_rows([[1.0, 0], [0, 1]]),
        "gram-mixed": lambda: GramLattice.from_rows([[Fraction(1, 2), 0], [0, 2.0]]),
        "listing-bound": lambda: vectors_up_to(zn(2), 1.0),
        "crude-norms": lambda: crude_bound([1.1, 1.1], CosetVector(2, (1, 1))),
        "context-field": lambda: BoundContext(n=4, d=2, t=0.5),
        "code-generator": lambda: Code(d=2, n=4, k=1, gen=((1.7, 1, 1, 1),)),
        "frame-rows": lambda: quotient_structure(zn(2), [[2.9, 0], [0, 1]]),
    }


@pytest.mark.parametrize("case", sorted(_inexact_inputs()))
def test_an_inexact_input_is_refused_not_rounded(case):
    # A float holds a binary approximation of the value meant, and int()
    # truncates it, so the public entry points refuse it outright.
    with pytest.raises(TypeError):
        _inexact_inputs()[case]()
