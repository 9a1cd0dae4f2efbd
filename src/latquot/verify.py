"""Named verification suites behind the command line interface.

Each suite is a list of cases with an expected and a computed value;
a case passes only on exact equality.  Randomized cases draw from the
seeded models in ``sampling`` so every run is reproducible.  Two
helpers build the cases of the paper's headline values:
``_qb_case`` passes when Q_b equals the value and is certified, so an
uncertified search fails it; ``_index_case`` passes when the maximal
index and its quotient are as stated, and is skipped unless the search
was exhaustive.  Each public call gets the suite's whole node budget.
"""

from __future__ import annotations

import math
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


def _qb_case(cid: str, claim: str, L: GramLattice, value: Fraction, budget):
    report = qb(L, budget)
    return _case(cid, claim, (value, True), (report.Qb, report.certified))


def _index_case(cid: str, claim: str, L: GramLattice, index: int,
                quotient: tuple[int, ...], budget):
    report = maximal_index(L, budget)
    return _case(
        cid, claim, (index, quotient),
        (report.max_index, report.witness_structure.invariant_factors),
        skipped=not report.exhaustive,
    )


def suite_identities(budget: int | None):
    """Randomized identity checks plus the equality-case instances."""
    rand, trials = random.Random(DEFAULT_SEED), 200
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

    # the equality instances: all ones cosets of order d in rank 2d
    for d, off in ((3, Fraction(1, 6)), (4, Fraction(1, 4))):
        n = 2 * d
        base = GramLattice.from_rows(
            [[1 if i == j else off for j in range(n)] for i in range(n)]
        )
        lift = zd_lift(Code(d=d, n=n, k=1, gen=((1,) * n,)), base=base, budget=budget)
        cases.append(_index_case(
            f"id-quotient-d{d}",
            f"the rank {n} order {d} equality instance has maximal index {d}, cyclic",
            lift, d, (d,), budget,
        ))
        cases.append(_case(
            f"id-condition-d{d}",
            f"order {d} all ones coset in rank {n} meets A = 2d with full support",
            True, watson_condition(CosetVector(d, (1,) * n), n),
        ))

    cases.append(_case(
        "id-index-bound-5",
        "the rank 5 index bound sqrt(8) is below 3",
        True, watson_index_bound(5) < 3,
    ))
    return cases


def suite_dim7(budget: int | None):
    """The two rank 7 frame lattices and their neighbours."""
    cases = []
    for d, low, value in ((3, 18, Fraction(11, 9)), (4, 8, Fraction(9, 8))):
        L, what = named(f"A7{d}"), f"the index {d} frame lattice"
        cases += [
            _case(f"d7-frame{d}-min", f"{what} has minimum {low}",
                  Fraction(low), invariant_report(L, budget).min),
            _qb_case(f"d7-frame{d}-qb",
                     f"{what} has quotient quality {value}, certified", L, value, budget),
            _index_case(f"d7-frame{d}-iota", f"{what} has maximal index {d}, cyclic",
                        L, d, (d,), budget),
        ]
    cases += [
        _qb_case("d7-cubic-qb", "the rank 7 centred cubic lattice has quotient quality 7/4",
                 centred_cubic(7), Fraction(7, 4), budget),
        _index_case("d7-e7-iota", "E7 has maximal index 8 with quotient (2, 2, 2)",
                    named("E7"), 8, (2, 2, 2), budget),
    ]
    return cases


def suite_codes(budget: int | None):
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
    """Exact value of H_b for the rank 12 lift, by the basis splitting argument.

    The lift L = Z^n + C/2 of a binary [n, k] code C maps onto L/Z^n = C,
    so any basis of L has k members whose classes form a basis of C.  Each
    has a half integral coordinate on the support of its word, so norm at
    least a quarter of its weight, and the k multiply to at least
    ``code_qb_bound(C)``; the others have norm at least the minimum.  So
    when the minimum is 1 and the construction basis multiplies to
    ``code_qb_bound(C)``, its product over det is H_b; else this is None.
    """
    code = g12()
    lattice = zd_lift(code)
    witness = math.prod(lattice.gram[i][i] for i in range(lattice.n))
    low, _ = minimum(lattice, budget)
    if witness != code_qb_bound(code) or low != 1:
        return None
    return witness / determinant(lattice)


def suite_all(budget: int | None):
    """Everything: basics, identities, rank 7, codes, and the rank 12 lift."""
    cases = [_qb_case(
        "q-cubic-z4", "the cubic lattice of rank 4 has quotient quality 1",
        zn(4), Fraction(1), budget,
    )]
    for n in range(4, 10):
        cases.append(_qb_case(
            f"q-centred-{n}",
            f"the rank {n} centred cubic lattice has quotient quality {n}/4",
            centred_cubic(n), Fraction(n, 4), budget,
        ))
    for maker, value in ((c8, Fraction(25, 16)), (c9, Fraction(9, 4)),
                         (c10, Fraction(21, 8))):
        code = maker()
        cases.append(_qb_case(
            f"q-lift-c{code.n}",
            f"the lift of the distinguished [{code.n}, 2] code has "
            f"quotient quality {value}",
            zd_lift(code), value, budget,
        ))

    e8 = named("E8")
    rep = invariant_report(e8, budget)
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

    cases.extend(suite_identities(budget))
    cases.extend(suite_dim7(budget))
    cases.extend(suite_codes(budget))
    return cases


SUITES = {
    "all": suite_all,
    "dim7": suite_dim7,
    "codes": suite_codes,
    "identities": suite_identities,
}


def run_suite(name: str, budget: int | None = None) -> list[VerificationCase]:
    """Cases of the named suite, sorted by case id."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return sorted(SUITES[name](budget), key=lambda c: c.id)
