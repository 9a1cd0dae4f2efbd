"""End-to-end runs of the command line interface, in process."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from latquot import enumeration
from latquot.cli import BUDGET, FAIL, PASS, USAGE, main
from latquot.codes import classify_binary
from latquot.construct import code_lift, fixture_inventory, fixture_path
from latquot.verify import VerificationCase
from oracles import conjugate, random_unimodular, scaled


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_text(capsys):
    code, out, _ = run(capsys, "info", str(fixture_path("e7")))
    assert code == PASS
    assert "E7: rank 7" in out
    assert "max index      8 (exhaustive)" in out
    assert "(2, 2, 2)" in out
    assert "H_b            64 (certified)" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", str(fixture_path("a74")), "--json")
    assert code == PASS
    data = json.loads(out)
    assert data["label"] == "A7,4"
    assert data["min"] == "8"
    assert data["iota"] == 4
    assert data["quotient"] == [4]
    assert data["Qb"] == "9/8"
    assert data["Hb_certified"] is True


def _info_but_quotient(capsys, path, L):
    """``info --json`` on ``L``, written to ``path``, without the ``quotient`` field."""
    path.write_text(json.dumps({"gram": [[str(x) for x in row] for row in L.gram],
                                "label": L.label}))
    code, out, _ = run(capsys, "info", str(path), "--json")
    assert code == PASS
    data = json.loads(out)
    del data["quotient"]
    return data


def test_info_is_invariant_under_a_change_of_basis_and_scales_with_the_form(capsys, tmp_path):
    # Every fixture and the 32 lifts of the binary codes of length 7 to
    # 9, dimension 1 to 4 and weight 4.  On three seeded conjugates every
    # field ``info`` prints agrees with the lattice's own basis.  Scaling
    # the form by 3/2 scales the minimum and the minima by 3/2 and the
    # determinant by (3/2)^n, and leaves every other field as it was.
    # The quotient is left out: it is the structure of the first frame of
    # maximal index the search meets, and on some lifts another basis
    # meets a frame with another quotient first.
    rand = random.Random(11)
    c = Fraction(3, 2)
    path = tmp_path / "lattice.json"
    lifts = [code_lift(code) for n in range(7, 10) for k in range(1, 5)
             for code in classify_binary(n, k, 4)]
    assert len(lifts) == 32
    for L in list(fixture_inventory().values()) + lifts:
        plain = _info_but_quotient(capsys, path, L)
        for _ in range(3):
            M = conjugate(L, random_unimodular(rand, L.n))
            assert _info_but_quotient(capsys, path, M) == plain, L.label
        expected = dict(
            plain,
            min=str(c * Fraction(plain["min"])),
            det=str(c**L.n * Fraction(plain["det"])),
            minima=[str(c * Fraction(x)) for x in plain["minima"]],
        )
        assert _info_but_quotient(capsys, path, scaled(L, c)) == expected, L.label


def test_info_missing_file(capsys, tmp_path):
    # a directory or a malformed file is an input error too, not a failed verification
    rows, boolean, real = (tmp_path / name for name in ("rows.json", "boolean.json", "real.json"))
    rows.write_text('{"gram": ["21", "12"]}')
    boolean.write_text('{"gram": [[2]], "n": true}')
    real.write_text('{"gram": [[2, 1], [1, 2]], "n": 2.0}')
    for path in ("/no/such/file.lat", fixture_path("e7").parent, rows, boolean, real):
        code, out, err = run(capsys, "info", str(path))
        assert (code, out) == (USAGE, "")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_info_tiny_budget(capsys):
    code, _, err = run(capsys, "info", str(fixture_path("e7")), "--budget", "3")
    assert code == BUDGET
    assert "budget" in err


def test_info_negative_budget_flag_is_a_usage_error(capsys):
    code, _, err = run(capsys, "info", str(fixture_path("c5")), "--budget", "-3")
    assert (code, err) == (USAGE, "node budget must not be negative, got -3\n")
    # a budget of 0 is a budget, spent at the first node
    code, _, err = run(capsys, "info", str(fixture_path("c5")), "--budget", "0")
    assert (code, err) == (BUDGET, "node budget exceeded (1 > 0)\n")


def test_info_downgrades_what_its_budget_cannot_certify(capsys):
    # qb gets one budget for its minima and its basis search together.
    # On C6 the minima ball costs 88 nodes and the whole search 96, the
    # ball charged once: at 90 the search runs out and reports an upper
    # bound on H_b, uncertified; at 100 it certifies.
    expected = {"90": ("27/2", False, "27/8"), "100": ("6", True, "3/2")}
    for budget, hb in expected.items():
        code, out, _ = run(capsys, "info", str(fixture_path("c6")), "--budget", budget, "--json")
        assert code == PASS
        data = json.loads(out)
        assert (data["Hb"], data["Hb_certified"], data["Qb"]) == hb, budget


def test_verify_codes_suite(capsys):
    code, out, _ = run(capsys, "verify", "codes")
    assert code == PASS
    assert "0 failed" in out


def test_verify_reports_failures(capsys, monkeypatch):
    bad = VerificationCase(
        id="x-broken",
        claim="a deliberately failing case",
        expected=1,
        computed=2,
        status="fail",
    )
    monkeypatch.setattr("latquot.cli.run_suite", lambda *a, **k: [bad])
    code, out, _ = run(capsys, "verify", "codes")
    assert code == FAIL
    assert "expected 1" in out
    assert "computed 2" in out


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "8", "2", "5")
    assert code == PASS
    assert "1 class" in out
    assert "5^2·6" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "9", "2", "5", "--json")
    assert code == PASS
    data = json.loads(out)
    assert data["classes"] == 3
    assert [row["distribution"] for row in data["codes"]] == [
        "5^2·8",
        "5·6·7",
        "6^3",
    ]


def test_classify_lists_codes_whose_lift_is_undefined(capsys):
    # codes of weight below 4 have no lift, so no Q_b bound, but they
    # are still classes
    code, out, _ = run(capsys, "classify", "6", "2", "3", "--json")
    assert code == PASS
    data = json.loads(out)
    assert data["classes"] == 3
    bounds = {row["distribution"]: row["qb_bound"] for row in data["codes"]}
    assert bounds["4^3"] == "1"
    assert {d for d, b in bounds.items() if b is None} == {
        row["distribution"] for row in data["codes"] if row["min_weight"] < 4} != set()
    code, out, _ = run(capsys, "classify", "6", "2", "3")
    assert code == PASS
    assert "3 classes" in out
    assert out.count("Q_b bound undefined") == len(bounds) - 1


def test_classify_rejects_a_dimension_out_of_range(capsys):
    code, _, err = run(capsys, "classify", "4", "0", "4")
    assert code == USAGE
    assert "1 <= k <= 4" in err


def test_classify_rejects_a_length_below_one(capsys):
    for n in ("-1", "0"):
        code, out, err = run(capsys, "classify", n, "1", "0")
        assert (code, out) == (USAGE, "")
        assert "code length must be at least 1" in err


def test_watson_text(capsys):
    code, out, _ = run(
        capsys, "watson", str(fixture_path("zn4")), "--coset", "2:1,1,1,1"
    )
    assert code == PASS
    assert "holds" in out
    assert "lift minimum   1" in out
    assert "lift det       1/4" in out


def test_watson_json_of_a_coset_with_no_unit_pivot(capsys):
    # No coefficient of (2, 3, 2, 3, 2, 3) is 1, so the lift over c6
    # takes the Hermite basis; its minimum drops, and the report is pinned.
    code, out, _ = run(capsys, "watson", str(fixture_path("c6")),
                       "--coset", "6:2,3,2,3,2,3", "--json")
    assert code == PASS
    assert json.loads(out)["lift_note"] == "lift minimum 5/24 is below the base minimum 1"
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "6b38ce7be2c9773029973f59e0ae8acfec5f56f86d21b84fec08e9f86f33f98c"


def test_watson_coset_length_mismatch(capsys):
    code, _, err = run(
        capsys, "watson", str(fixture_path("zn4")), "--coset", "2:1,1"
    )
    assert code == USAGE
    assert "rank" in err


def test_watson_bad_coset_string(capsys):
    code, _, err = run(
        capsys, "watson", str(fixture_path("zn4")), "--coset", "2:x,y,z,w"
    )
    assert code == USAGE
    assert err


def test_search_range_check(capsys):
    code, _, err = run(capsys, "search", "3")
    assert code == USAGE
    assert "rank" in err


def test_search_needs_a_trial(capsys):
    for trials in ("0", "-3"):
        code, out, err = run(capsys, "search", "8", "--trials", trials)
        assert code == USAGE
        assert "trial" in err and not out


def test_verify_runs_one_fixed_suite(capsys):
    # the identities suite draws its 200 trials at one fixed seed, so
    # verify takes neither flag
    for flag in ("--trials", "--seed"):
        with pytest.raises(SystemExit) as err:
            main(["verify", "identities", flag, "5"])
        assert err.value.code == USAGE
        assert flag in capsys.readouterr().err


def test_search_is_deterministic(capsys):
    first = run(capsys, "search", "5", "--trials", "2", "--seed", "9")
    second = run(capsys, "search", "5", "--trials", "2", "--seed", "9")
    assert first == second
    assert first[0] == PASS
    assert "maximum Q_b" in first[1]


def test_search_runs_at_its_budget_flag(capsys):
    # the default budget given as a flag changes nothing
    argv = ("search", "8", "--trials", "2", "--seed", "1", "--budget", "1000000000")
    expected = run(capsys, *argv)
    assert run(capsys, *argv[:-2]) == expected
    assert expected[0] == PASS


def test_every_command_hands_its_budget_to_every_counter(capsys, monkeypatch):
    # Each public call makes one counter from its budget; every counter a
    # command makes must hold the flag's value, none the default.
    budgets = []
    init = enumeration._Counter.__init__

    def recording(self, budget):
        budgets.append(budget)
        init(self, budget)

    monkeypatch.setattr(enumeration._Counter, "__init__", recording)
    for argv in (
        ("verify", "all"),
        ("info", str(fixture_path("e7"))),
        ("search", "8", "--trials", "2", "--seed", "1"),
        ("watson", str(fixture_path("c6")), "--coset", "2:1,1,1,1,1,1"),
        ("classify", "9", "2", "5"),
    ):
        budgets.clear()
        code, _, _ = run(capsys, *argv, "--budget", "1000000007")
        assert code == PASS, argv
        assert budgets and set(budgets) == {1000000007}, (argv, set(budgets))


def _trials(capsys, *argv):
    code, out, _ = run(capsys, "search", *argv, "--json")
    assert code == PASS
    return [(e["base"], e["Qb"], e["certified"], e["well_rounded"])
            for e in json.loads(out)["trials"]]


def test_search_trials_are_pinned(capsys):
    # Fixed per-trial outcomes, so that a drift in the random stream of
    # the lattice models shows even when two runs agree with each other.
    assert _trials(capsys, "6") == [
        ("C6", "3/2", True, True), ("D6", "1", True, True), ("A6", "1", True, True),
        ("C6", "3/2", True, True), ("Z6", "1", True, True), ("A6", "1", True, True),
        ("C6", "3/2", True, True), ("C6", "3/2", True, True), ("C6", "3/2", True, True),
        ("A6", "1", True, True),
    ]
    assert _trials(capsys, "8", "--trials", "20", "--seed", "1") == [
        ("A8", "1", True, True), ("A8", "1", True, True), ("A8", "1", True, True),
        ("E8", "1", True, True), ("Z8", "1", True, True), ("lift [8,2]", "25/16", True, True),
        ("lift [8,2]", "1", True, False), ("E8", "1", True, True), ("E8", "1", True, True),
        ("lift [8,2]", "25/16", True, True), ("Z8", "1", True, True), ("D8", "1", True, True),
        ("lift [8,2]", "25/16", True, True), ("A8", "1", True, True), ("C8", "2", True, True),
        ("A8", "1", True, True), ("Z8", "1", True, True), ("E8", "1", True, True),
        ("E8", "1", True, True), ("A8", "1", True, True),
    ]


def test_search_stream_of_200_trials_is_pinned(capsys):
    # The digest of the whole JSON report, taken before the sampler drew
    # its values from getrandbits directly instead of through randint,
    # sample and choice: every trial's lattice, and so every reported
    # value, must come out of the same random stream.
    code, out, _ = run(capsys, "search", "8", "--trials", "200", "--seed", "1", "--json")
    assert code == PASS
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "076480bcca6cb64ca5231a9ba407e84be5937e293a45057ec8012797930525ce"


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
