"""Named verification suites behind the command line interface.

Each suite is a list of cases with an expected and a computed value;
a case passes only on exact equality.  Randomized cases draw from the
seeded models in ``sampling`` so every run is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import sampling
from .bounds import (
    index3_psi_bound,
    index3_sum_identity,
    index4_m5_bound,
    norm_e_index2_bound,
    vdw_bound,
)
from .codes import (
    Code,
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
from .construct import centred_cubic, named, zd_lift, zn
from .core import GramLattice, determinant
from .enumeration import invariant_report, minimum
from .linalg import identity_rows
from .quality import qb
from .watson import (
    CosetVector,
    maximal_index,
    watson_condition,
    watson_identity,
    watson_index_bound,
)

DEFAULT_SEED = 414213

__all__ = [
    "DEFAULT_SEED",
    "VerificationCase",
    "SUITES",
    "suite_identities",
    "suite_dim7",
    "suite_codes",
    "suite_all",
    "run_suite",
]


@dataclass(frozen=True)
class VerificationCase:
    """One checked claim: passes only when expected equals computed."""

    id: str
    claim: str
    expected: object
    computed: object
    status: str

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "claim": self.claim,
            "expected": str(self.expected),
            "computed": str(self.computed),
            "status": self.status,
        }


def _case(cid: str, claim: str, expected, computed, skipped: bool = False):
    if skipped:
        status = "skipped"
    else:
        status = "pass" if expected == computed else "fail"
    return VerificationCase(cid, claim, expected, computed, status)


def suite_identities(seed: int = DEFAULT_SEED, trials: int = 200, budget: int | None = None):
    """Randomized identity checks plus the equality-case instances."""
    rand = random.Random(seed)
    cases = []

    fails = 0
    for _ in range(trials):
        n = rand.randint(2, 5)
        L = sampling.random_gram(rand, n)
        c = sampling.random_coset(rand, n)
        lhs, rhs = watson_identity(L, c)
        if lhs != rhs:
            fails += 1
    cases.append(_case(
        "id-norm-random",
        f"coset norm identity fails on 0 of {trials} random instances",
        0, fails,
    ))

    fails = 0
    for _ in range(trials):
        n = rand.randint(3, 6)
        L = sampling.random_gram(rand, n)
        d = rand.randint(2, 5)
        c = CosetVector(d, (1,) * n)
        lhs, rhs = index3_sum_identity(L, identity_rows(n), c)
        if lhs != rhs:
            fails += 1
    cases.append(_case(
        "id-pairsum-random",
        f"pair sum identity fails on 0 of {trials} random instances",
        0, fails,
    ))

    cases.append(_case(
        "id-condition-d2",
        "half integral all ones coset in rank 4 meets A = 2d with full support",
        True, watson_condition(CosetVector(2, (1,) * 4), 4),
    ))

    base3 = GramLattice.from_rows(
        [[1 if i == j else Fraction(1, 6) for j in range(6)] for i in range(6)]
    )
    lift3 = zd_lift(Code(d=3, n=6, k=1, gen=((1,) * 6,)), base=base3)
    rep3 = maximal_index(lift3, budget)
    cases.append(_case(
        "id-condition-d3",
        "order 3 all ones coset in rank 6 meets A = 2d with full support",
        True, watson_condition(CosetVector(3, (1,) * 6), 6),
    ))
    cases.append(_case(
        "id-quotient-d3",
        "the rank 6 order 3 equality instance has maximal index 3, cyclic",
        (3, (3,)),
        (rep3.max_index, rep3.witness_structure.invariant_factors),
        skipped=not rep3.exhaustive,
    ))

    base4 = GramLattice.from_rows(
        [[1 if i == j else Fraction(1, 4) for j in range(8)] for i in range(8)]
    )
    lift4 = zd_lift(Code(d=4, n=8, k=1, gen=((1,) * 8,)), base=base4)
    rep4 = maximal_index(lift4, budget)
    cases.append(_case(
        "id-condition-d4",
        "order 4 all ones coset in rank 8 meets A = 2d with full support",
        True, watson_condition(CosetVector(4, (1,) * 8), 8),
    ))
    cases.append(_case(
        "id-quotient-d4",
        "the rank 8 order 4 equality instance has maximal index 4, cyclic",
        (4, (4,)),
        (rep4.max_index, rep4.witness_structure.invariant_factors),
        skipped=not rep4.exhaustive,
    ))

    cases.append(_case(
        "id-index-bound-5",
        "the rank 5 index bound sqrt(8) is below 3",
        True, watson_index_bound(5) < 3,
    ))
    return cases


def suite_dim7(budget: int | None = None):
    """The two rank 7 frame lattices and their neighbours."""
    cases = []

    first = named("A73").lattice
    rep = invariant_report(first)
    quality = qb(first, budget)
    idx = maximal_index(first, budget)
    cases.append(_case(
        "d7-frame3-min", "the index 3 frame lattice has minimum 18",
        Fraction(18), rep.min,
    ))
    cases.append(_case(
        "d7-frame3-qb", "the index 3 frame lattice has quotient quality 11/9, certified",
        (Fraction(11, 9), True), (quality.Qb, quality.certified),
    ))
    cases.append(_case(
        "d7-frame3-iota", "the index 3 frame lattice has maximal index 3, cyclic",
        (3, (3,)), (idx.max_index, idx.witness_structure.invariant_factors),
        skipped=not idx.exhaustive,
    ))

    second = named("A74").lattice
    rep = invariant_report(second)
    quality = qb(second, budget)
    idx = maximal_index(second, budget)
    cases.append(_case(
        "d7-frame4-min", "the index 4 frame lattice has minimum 8",
        Fraction(8), rep.min,
    ))
    cases.append(_case(
        "d7-frame4-qb", "the index 4 frame lattice has quotient quality 9/8, certified",
        (Fraction(9, 8), True), (quality.Qb, quality.certified),
    ))
    cases.append(_case(
        "d7-frame4-iota", "the index 4 frame lattice has maximal index 4, cyclic",
        (4, (4,)), (idx.max_index, idx.witness_structure.invariant_factors),
        skipped=not idx.exhaustive,
    ))

    seven = qb(centred_cubic(7), budget)
    cases.append(_case(
        "d7-cubic-qb", "the rank 7 centred cubic lattice has quotient quality 7/4",
        (Fraction(7, 4), True), (seven.Qb, seven.certified),
    ))

    e7 = maximal_index(named("E7").lattice, budget)
    cases.append(_case(
        "d7-e7-iota", "E7 has maximal index 8 with quotient (2, 2, 2)",
        (8, (2, 2, 2)),
        (e7.max_index, e7.witness_structure.invariant_factors),
        skipped=not e7.exhaustive,
    ))
    return cases


def suite_codes(budget: int | None = None):
    """Classification counts and the two distinguished longer codes."""
    cases = []
    expected = {
        (6, 2, 4): (1, ["4^3"]),
        (8, 2, 5): (1, ["5^2·6"]),
        (9, 2, 5): (3, ["5^2·8", "5·6·7", "6^3"]),
        (10, 2, 5): (5, ["5^2·10", "5·6·9", "5·7·8", "6^2·8", "6·7^2"]),
    }
    for (n, k, w), (count, dists) in expected.items():
        found = classify_binary(n, k, w, budget)
        got = sorted(str(weight_distribution(c)) for c in found)
        word = "class" if count == 1 else "classes"
        cases.append(_case(
            f"c-classify-{n}-{k}-{w}",
            f"binary [{n}, {k}] codes of weight >= {w} with full support: "
            f"{count} {word}",
            (count, dists), (len(found), got),
        ))

    eleven = c11()
    cases.append(_case(
        "c-long11-dist", "the [11, 3] code has weight distribution 6^6·8",
        "6^6·8", str(weight_distribution(eleven)),
    ))
    cases.append(_case(
        "c-long11-bound", "the [11, 3] code gives the quality bound 27/8",
        Fraction(27, 8), code_qb_bound(eleven),
    ))
    twelve = g12()
    cases.append(_case(
        "c-long12-dist", "the [12, 4] code has weight distribution 6^12·8^3",
        "6^12·8^3", str(weight_distribution(twelve)),
    ))
    cases.append(_case(
        "c-long12-bound", "the [12, 4] code gives the quality bound 81/16",
        Fraction(81, 16), code_qb_bound(twelve),
    ))
    return cases


def _lift12_certificate(budget: int | None = None):
    """Exact value of H_b for the rank 12 lift, from its structure.

    The construction basis splits as eight unit vectors and four rows of
    norm 3/2, so its norm product is 81/16 and H_b <= (81/16) / det.
    For the lower bound: the lattice contains the cubic lattice with
    index 16 and the quotient is generated by the classes of the code
    words, all of order 2, so it is (2, 2, 2, 2) and any basis has at
    least four members off the cubic sublattice.  Each of those lies in
    a nonzero coset, where every vector has a half integral coordinate
    for each coordinate in the word's support; its norm is therefore at
    least a quarter of the minimum weight, which is 3/2 here.  The other
    members have norm at least the minimum, 1, so no basis beats the
    witness and the witness value is exact.  Each premise is checked
    and the function returns None when one fails.
    """
    code = g12()
    lattice = zd_lift(code)
    witness = Fraction(1)
    for i in range(lattice.n):
        witness *= lattice.gram[i][i]
    if witness != Fraction(81, 16):
        return None
    if sorted(lattice.gram[i][i] for i in range(lattice.n)) != (
        [Fraction(1)] * 8 + [Fraction(3, 2)] * 4
    ):
        return None
    if (code.d, code.k) != (2, 4):
        return None
    w, _, _ = min_weight_support(code)
    if Fraction(w, 4) < Fraction(3, 2):
        return None
    det = determinant(lattice)
    if det != Fraction(1, 256):
        return None
    low, _ = minimum(lattice, budget)
    if low != 1:
        return None
    return witness / det


def suite_all(seed: int = DEFAULT_SEED, trials: int = 200,
              budget: int | None = None):
    """Everything: basics, identities, rank 7, codes, and the rank 12 lift."""
    cases = []

    cubic = qb(zn(4), budget)
    cases.append(_case(
        "q-cubic-z4", "the cubic lattice of rank 4 has quotient quality 1",
        (Fraction(1), True), (cubic.Qb, cubic.certified),
    ))
    for n in range(4, 10):
        report = qb(centred_cubic(n), budget)
        cases.append(_case(
            f"q-centred-{n}",
            f"the rank {n} centred cubic lattice has quotient quality {n}/4",
            (Fraction(n, 4), True), (report.Qb, report.certified),
        ))
    for maker, value in ((c8, Fraction(25, 16)), (c9, Fraction(9, 4)),
                         (c10, Fraction(21, 8))):
        code = maker()
        report = qb(zd_lift(code), budget)
        cases.append(_case(
            f"q-lift-c{code.n}",
            f"the lift of the distinguished [{code.n}, 2] code has "
            f"quotient quality {value}",
            (value, True), (report.Qb, report.certified),
        ))

    e8 = named("E8").lattice
    rep = invariant_report(e8)
    cases.append(_case(
        "q-e8-invariants", "E8 has minimum 2, determinant 1 and 120 short pairs",
        (Fraction(2), Fraction(1), 120), (rep.min, rep.det, rep.s),
    ))
    idx = maximal_index(e8, budget)
    cases.append(_case(
        "q-e8-iota", "E8 has maximal index 16",
        16, idx.max_index, skipped=not idx.exhaustive,
    ))

    cases.append(_case(
        "b-index2-6", "rank 6 bound on N(e) for half integral cosets is 4",
        Fraction(4), norm_e_index2_bound(6),
    ))
    cases.append(_case(
        "b-psi-7-3", "psi(7, 3) equals 29/21",
        Fraction(29, 21), index3_psi_bound(7, 3),
    ))
    cases.append(_case(
        "b-m5-7", "the rank 7 order 4 bound with m1 = 5 is 9/8",
        Fraction(9, 8), index4_m5_bound(7),
    ))
    cases.append(_case(
        "b-vdw-8", "the rank 8 unimodular triangulation bound is 625/256",
        Fraction(625, 256), vdw_bound(8),
    ))

    cases.append(_case(
        "q-lift12-certificate",
        "the rank 12 lift has H_b exactly 1296 by the basis splitting argument",
        Fraction(1296), _lift12_certificate(budget),
    ))

    cases.extend(suite_identities(seed, trials, budget))
    cases.extend(suite_dim7(budget))
    cases.extend(suite_codes(budget))
    return cases


SUITES = {
    "all": lambda seed, trials, budget: suite_all(seed, trials, budget),
    "dim7": lambda seed, trials, budget: suite_dim7(budget),
    "codes": lambda seed, trials, budget: suite_codes(budget),
    "identities": lambda seed, trials, budget: suite_identities(seed, trials, budget),
}


def run_suite(name: str, seed: int = DEFAULT_SEED, trials: int = 200,
              budget: int | None = None) -> list[VerificationCase]:
    """Cases of the named suite, sorted by case id."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return sorted(SUITES[name](seed, trials, budget), key=lambda c: c.id)
