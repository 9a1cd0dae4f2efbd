"""Catalogue lattices, code lifts and the bundled fixtures."""

from fractions import Fraction

import pytest

from latquot.codes import Code, c8, c9, c10, c11, g12
from latquot.construct import (
    _glue,
    centred_cubic,
    code_lift,
    fixture_inventory,
    fixture_path,
    named,
    search_corpus,
    zd_lift,
    zn,
)
from latquot.core import GramLattice, determinant, load_lattice
from latquot.enumeration import invariant_report, is_well_rounded, minimum
from latquot.errors import (
    CodeTooLight,
    DimensionMismatch,
    MinimumDrops,
    ResourceExceeded,
    UnknownLattice,
)
from latquot.linalg import hnf_rows, identity_rows, matmul, transpose
from latquot.watson import maximal_index
from oracles import repetition

# (rank, determinant, minimum, minimal pairs) for the catalogue
CATALOGUE = {
    "A5": (5, 6, 2, 15),
    "D4": (4, 4, 2, 12),
    "D6": (6, 4, 2, 30),
    "E6": (6, 3, 2, 36),
    "E7": (7, 2, 2, 63),
    "E8": (8, 1, 2, 120),
    "A5^3": (5, Fraction(2, 3), Fraction(4, 3), 15),
    "A3^2": (3, 1, 1, 3),
    "A5^2": (5, Fraction(3, 2), Fraction(3, 2), 10),
    "A7^2": (7, 2, 2, 63),
    "A9^2": (9, Fraction(5, 2), 2, 45),
    "A11^2": (11, 3, 2, 66),
    "D6+": (6, 64, 3, 16),
    "A73": (7, 45562500, 18, 7),
    "A74": (7, 82944, 8, 17),
}


def test_catalogue_invariants():
    for name, (n, det, low, s) in CATALOGUE.items():
        L = named(name)
        rep = invariant_report(L)
        assert (L.n, rep.det, rep.min, rep.s) == (n, det, low, s), name


def test_the_an_glue_vector_has_the_stated_products():
    # The basis is (u_2, ..., u_n, h) with h = (u_1 + ... + u_n)/2.
    for n in range(3, 12, 2):
        L = named(f"A{n}^2")
        assert L.gram[-1][:-1] == (Fraction(n + 1, 2),) * (n - 1), n
        assert L.gram[-1][-1] == Fraction(n * (n + 1), 4), n
        assert determinant(L) == Fraction(n + 1, 4), n


def test_name_lookup_is_forgiving():
    assert named("a5 ^3").gram == named("A5^3").gram
    assert named("d6+").label == "D6+"
    # the frame lattices keep the labels their fixture files carry
    assert named("a7,3").label == "A7,3"
    # E6 from its Cartan matrix in Bourbaki's numbering: the chain 1-3-4-5-6 and 2-4
    edges = {(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)}
    cartan = [[2 if i == j else -int((i, j) in edges or (j, i) in edges) for j in range(1, 7)]
              for i in range(1, 7)]
    e6 = named("e6")
    assert (e6.gram, e6.label) == (GramLattice.from_rows(cartan).gram, "E6")
    for name in ("B3", "A0", "A4^2", "D2", "A1^2", "A2^2"):
        with pytest.raises(UnknownLattice):
            named(name)


def test_repetition_lift_is_the_centred_cubic():
    for n in (4, 6, 9):
        assert code_lift(repetition(n)).gram == centred_cubic(n).gram


def test_centred_cubic_needs_rank_four():
    with pytest.raises(MinimumDrops):
        centred_cubic(3)


def test_light_codes_are_rejected():
    with pytest.raises(CodeTooLight):
        code_lift(repetition(3))


def test_a_binary_lift_has_one_basis_over_any_base():
    # zd_lift glues a binary code's reduced rows whether or not a base is
    # given, so both paths agree entry for entry.
    for c in [c8(), c9(), c10(), c11(), g12()] + [repetition(n) for n in range(4, 10)]:
        assert zd_lift(c).gram == zd_lift(c, base=zn(c.n)).gram, (c.n, c.k)


def test_a_row_with_no_unit_pivot_takes_the_hermite_basis():
    # No entry of (2, 3, 2, 3, 2, 3) is 1, so the basis is the Hermite
    # form of 6I over the row, over 6.
    row = [2, 3, 2, 3, 2, 3]
    stacked = [[6 * x for x in unit] for unit in identity_rows(6)] + [row]
    basis = [[Fraction(x, 6) for x in h] for h in hnf_rows(stacked)]
    glued = _glue(identity_rows(6), [row], 6, "glued")
    assert [list(r) for r in glued.gram] == matmul(basis, transpose(basis))
    assert determinant(glued) == Fraction(1, 36)


def test_lift_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        zd_lift(c8(), base=zn(7))


def test_ternary_repetition_lift():
    # Over the rank 6 frame with off-diagonal 1/6 the centre vector
    # [(e_1 + ... + e_6)/3] has norm exactly 1 and the lift carries a
    # cyclic quotient of order 3.
    base = GramLattice.from_rows(
        [[1 if i == j else Fraction(1, 6) for j in range(6)] for i in range(6)]
    )
    lifted = zd_lift(Code(d=3, n=6, k=1, gen=((1,) * 6,)), base=base)
    assert determinant(lifted) == determinant(base) / 9
    assert minimum(lifted)[0] == 1
    report = maximal_index(lifted)
    assert report.witness_structure.invariant_factors == (3,)


def test_a_lift_over_a_base_checks_its_minima_at_the_budget_given(node_tally):
    # The order 4 equality instance: both minimum checks spend the one
    # budget of the call, 44 + 114 nodes.
    base = GramLattice.from_rows(
        [[1 if i == j else Fraction(1, 4) for j in range(8)] for i in range(8)]
    )
    code = Code(d=4, n=8, k=1, gen=((1,) * 8,))
    lifted = zd_lift(code, base=base, budget=10**9)
    assert determinant(lifted) == determinant(base) / 16
    assert node_tally[0] == 158
    assert zd_lift(code, base=base, budget=158).gram == lifted.gram
    with pytest.raises(ResourceExceeded, match=r"\(101 > 100\)"):
        zd_lift(code, base=base, budget=100)


def test_ternary_lift_over_the_cube_is_too_short():
    with pytest.raises(MinimumDrops):
        zd_lift(Code(d=3, n=6, k=1, gen=((1,) * 6,)))


def test_fixture_inventory_matches_the_shipped_files():
    inventory = fixture_inventory()
    assert len(inventory) == 23
    for stem, built in inventory.items():
        shipped = load_lattice(fixture_path(stem))
        assert shipped.gram == built.gram, stem
        assert shipped.label == built.label, stem


def test_the_corpus_reads_the_code_lifts_from_their_fixtures():
    for n, code in ((8, c8), (9, c9), (10, c10)):
        got, want = search_corpus(n)[-1], zd_lift(code())
        assert (got.gram, got.label) == (want.gram, want.label), n


def test_search_corpus():
    with pytest.raises(ValueError):
        search_corpus(0)
    for n in range(1, 13):
        corpus = search_corpus(n)
        assert corpus
        for L in corpus:
            assert L.n == n
            assert is_well_rounded(L)
    labels8 = {L.label for L in search_corpus(8)}
    assert "E8" in labels8
    assert any(label.startswith("lift") for label in labels8)
