"""The self-checking suites themselves."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from latquot.errors import ResourceExceeded
from latquot.verify import (
    SUITES,
    VerificationCase,
    _lift12_certificate,
    run_suite,
)


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_cases_are_sorted_and_typed():
    cases = run_suite("codes")
    assert [c.id for c in cases] == sorted(c.id for c in cases)
    for case in cases:
        assert isinstance(case, VerificationCase)
        assert case.status in ("pass", "fail", "skipped")


def test_codes_suite_passes():
    assert all(c.status == "pass" for c in run_suite("codes"))


def test_dim7_suite_passes():
    cases = run_suite("dim7")
    assert not [c.id for c in cases if c.status == "fail"]
    byid = {c.id: c for c in cases}
    assert byid["d7-frame4-qb"].computed == (Fraction(9, 8), True)


def test_to_dict_stringifies_values():
    case = run_suite("codes")[0]
    data = case.to_dict()
    assert data["id"] == case.id
    assert isinstance(data["expected"], str)
    assert isinstance(data["computed"], str)


def test_dimension_twelve_certificate():
    assert _lift12_certificate() == 1296


def test_the_budget_reaches_every_suite():
    # At 3000 nodes the rank 8 order 4 instance is not decided (it is at
    # 4000), so its case is skipped instead of passed, while the rank 6
    # order 3 instance is decided; the codes suite and the rank 12
    # certificate stop at the budget instead of ignoring it.  The rank 7
    # suite given a large budget decides every case.
    cases = {c.id: c for c in run_suite("identities", budget=3000)}
    assert cases["id-quotient-d4"].status == "skipped"
    assert cases["id-quotient-d3"].status == "pass"
    with pytest.raises(ResourceExceeded):
        run_suite("codes", budget=10)
    with pytest.raises(ResourceExceeded):
        _lift12_certificate(budget=10)
    cases = run_suite("dim7", budget=10**9)
    assert len(cases) == 8
    assert not [c.id for c in cases if c.status != "pass"]


def test_every_case_of_every_suite_is_pinned():
    # Id, claim, expected and computed value and status of each case, at
    # the default budget.
    pinned = json.loads(Path(__file__).with_name("verify_cases.json").read_text(encoding="utf-8"))
    assert {name: [c.to_dict() for c in run_suite(name)] for name in SUITES} == pinned
