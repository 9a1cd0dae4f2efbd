"""Command line interface.

Subcommands: ``info`` prints the full invariant report for a lattice
file, ``verify`` runs a named suite of exact checks, ``classify`` lists
binary code classes, ``search`` samples random lattices for quality
outliers, and ``watson`` checks the coset identities over a frame read
from a file.  Each takes ``--json`` and ``--budget N``, the node budget
of every call it makes.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 node budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .bounds import conjectured_bound, crude_bound
from .codes import (
    Code,
    classify_binary,
    code_qb_bound,
    min_weight_support,
    weight_distribution,
)
from .construct import _checked_lift, search_corpus
from .core import determinant, format_rational, load_lattice
from .enumeration import _Counter, invariant_report, is_well_rounded
from .errors import CodeTooLight, LatquotError, MinimumDrops, ResourceExceeded
from .quality import qb
from .sampling import perturbed
from .verify import DEFAULT_SEED, SUITES, run_suite
from .watson import CosetVector, maximal_index, watson_condition, watson_identity

PASS, FAIL, USAGE, BUDGET = 0, 1, 2, 3


def _emit(data, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load(path: str):
    """``load_lattice``, with a file that cannot be opened as an input error."""
    try:
        return load_lattice(path)
    except OSError as exc:
        raise ValueError(str(exc)) from exc


def cmd_info(args) -> int:
    lattice = _load(args.file)
    report = qb(lattice, args.budget)
    idx = maximal_index(lattice, args.budget)
    basic = invariant_report(lattice, args.budget)
    data = {
        "label": lattice.label,
        "n": lattice.n,
        "min": format_rational(basic.min),
        "det": format_rational(basic.det),
        "gamma_power": format_rational(basic.gamma_n_power),
        "s": basic.s,
        "minima": [format_rational(x) for x in idx.witness_frame.norms],
        "iota": idx.max_index,
        "iota_exhaustive": idx.exhaustive,
        "quotient": list(idx.witness_structure.invariant_factors),
        "M": format_rational(report.M),
        "Hb": format_rational(report.Hb),
        "Hb_certified": report.certified,
        "Qb": format_rational(report.Qb),
    }
    name = lattice.label or "lattice"
    flag = "exhaustive" if idx.exhaustive else "lower bound only"
    cert = "certified" if report.certified else "upper bound only"
    lines = [
        f"{name}: rank {lattice.n}",
        f"  minimum        {data['min']}",
        f"  determinant    {data['det']}",
        f"  gamma power    {data['gamma_power']}",
        f"  short pairs    {data['s']}",
        f"  minima         {', '.join(data['minima'])}",
        f"  max index      {idx.max_index} ({flag})",
        f"  quotient       {tuple(data['quotient'])}",
        f"  M              {data['M']}",
        f"  H_b            {data['Hb']} ({cert})",
        f"  Q_b            {data['Qb']}",
    ]
    _emit(data, args.json, lines)
    return PASS


def cmd_verify(args) -> int:
    cases = run_suite(args.suite, budget=args.budget)
    data = [c.to_dict() for c in cases]
    lines = []
    width = max(len(c.id) for c in cases)
    for c in cases:
        lines.append(f"{c.id:<{width}}  {c.status:<7}  {c.claim}")
        if c.status == "fail":
            lines.append(f"{'':<{width}}  expected {c.expected}")
            lines.append(f"{'':<{width}}  computed {c.computed}")
    tally = {"pass": 0, "fail": 0, "skipped": 0}
    for c in cases:
        tally[c.status] += 1
    lines.append(
        f"{tally['pass']} passed, {tally['fail']} failed, "
        f"{tally['skipped']} skipped"
    )
    _emit(data, args.json, lines)
    return PASS if tally["fail"] == 0 else FAIL


def cmd_classify(args) -> int:
    found = classify_binary(args.n, args.k, args.w, args.budget)
    rows = []
    for code in found:
        w, support, full = min_weight_support(code)
        try:
            bound = format_rational(code_qb_bound(code))
        except CodeTooLight:
            bound = None  # the lift of a code of weight below 4 is not defined
        rows.append({
            "distribution": str(weight_distribution(code)),
            "min_weight": w,
            "generator": [list(r) for r in code.gen],
            "qb_bound": bound,
        })
    rows.sort(key=lambda r: r["distribution"])
    data = {"n": args.n, "k": args.k, "min_weight": args.w,
            "classes": len(found), "codes": rows}
    word = "class" if len(found) == 1 else "classes"
    lines = [f"[{args.n}, {args.k}] codes with weight >= {args.w} and "
             f"full support: {len(found)} {word}"]
    for row in rows:
        lines.append(f"  {row['distribution']:<12} min weight {row['min_weight']}"
                     f"  Q_b bound {row['qb_bound'] or 'undefined'}")
    _emit(data, args.json, lines)
    return PASS


def cmd_search(args) -> int:
    import random

    corpus = search_corpus(args.n)
    rand = random.Random(args.seed)
    best = None
    trials = []
    for t in range(args.trials):
        base = corpus[rand.randrange(len(corpus))]
        lattice = perturbed(rand, base)
        report = qb(lattice, args.budget)
        rounded = is_well_rounded(lattice, args.budget)
        entry = {
            "trial": t,
            "base": base.label,
            "Qb": format_rational(report.Qb),
            "certified": report.certified,
            "well_rounded": rounded,
        }
        trials.append(entry)
        if best is None or report.Qb > best[0]:
            best = (report.Qb, entry)
    try:
        threshold = conjectured_bound(args.n)
    except ValueError:
        threshold = None  # n/4 is not conjectured past rank 9
    violations = [] if threshold is None else [
        e for e in trials if Fraction(e["Qb"]) > threshold and e["certified"]
    ]
    data = {
        "n": args.n,
        "seed": args.seed,
        "trials": trials,
        "max_Qb": format_rational(best[0]),
        "max_trial": best[1],
        "violations": violations,
    }
    lines = []
    for e in trials:
        cert = "certified" if e["certified"] else "upper bound"
        wr = "well rounded" if e["well_rounded"] else "not well rounded"
        lines.append(f"trial {e['trial']:>3}  base {e['base']:<12} "
                     f"Q_b {e['Qb']:<8} ({cert}, {wr})")
    lines.append(f"maximum Q_b {format_rational(best[0])} from trial "
                 f"{best[1]['trial']} (base {best[1]['base']})")
    if threshold is not None:
        if violations:
            lines.append(f"{len(violations)} certified values exceed "
                         f"n/4 = {format_rational(threshold)}")
        else:
            lines.append(f"no certified value exceeds n/4 = "
                         f"{format_rational(threshold)}")
    _emit(data, args.json, lines)
    return PASS


def _parse_coset(text: str) -> CosetVector:
    head, _, tail = text.partition(":")
    try:
        d = int(head)
        coeffs = tuple(int(x) for x in tail.split(","))
        return CosetVector(d, coeffs)
    except ValueError as exc:
        raise ValueError(f"bad coset {text!r}: {exc}") from exc


def cmd_watson(args) -> int:
    lattice = _load(args.file)
    coset = _parse_coset(args.coset)
    if coset.n != lattice.n:
        print(f"coset has {coset.n} coefficients for a rank "
              f"{lattice.n} lattice", file=sys.stderr)
        return USAGE
    lhs, rhs = watson_identity(lattice, coset)
    condition = watson_condition(coset, lattice.n)
    norms = [lattice.gram[i][i] for i in range(lattice.n)]
    # the bound takes the frame's norms as its successive minima, in order
    ordered = norms == sorted(norms)
    data = {
        "d": coset.d,
        "a": list(coset.a),
        "A": coset.A,
        "identity_lhs": format_rational(lhs),
        "identity_rhs": format_rational(rhs),
        "identity_holds": lhs == rhs,
        "condition": condition,
        "norm_bound": format_rational(crude_bound(norms, coset)) if ordered else None,
    }
    lines = [
        f"coset ({', '.join(str(x) for x in coset.a)}) / {coset.d}",
        f"  A              {coset.A}",
        f"  identity       {data['identity_lhs']} = {data['identity_rhs']}"
        f"  ({'holds' if data['identity_holds'] else 'FAILS'})",
        f"  A = 2d, full   {condition}",
        f"  N(e) bound     {data['norm_bound'] or 'none, the frame norms decrease'}",
    ]
    try:
        # one budget for the base's and the lift's minima, each listed once
        lifted, low = _checked_lift(
            Code(d=coset.d, n=coset.n, k=1, gen=(coset.a,)), lattice, _Counter(args.budget)
        )
        data["lift_min"] = format_rational(low)
        data["lift_det"] = format_rational(determinant(lifted))
        lines.append(f"  lift minimum   {data['lift_min']}")
        lines.append(f"  lift det       {data['lift_det']}")
    except MinimumDrops as exc:
        data["lift_min"] = None
        data["lift_note"] = str(exc)
        lines.append(f"  lift           minimum drops: {exc}")
    _emit(data, args.json, lines)
    return PASS if data["identity_holds"] else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latquot",
        description="Exact basis quality and index theory for lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")
    common.add_argument("--budget", type=int, default=None,
                        help="node budget of each call")

    p = sub.add_parser("info", parents=[common], help="invariant report for a lattice file")
    p.add_argument("file")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", parents=[common], help="binary code classes")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("w", type=int, help="minimum weight")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("search", parents=[common], help="sample random lattices for quality")
    p.add_argument("n", type=int)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("watson", parents=[common], help="coset identity checks over a frame")
    p.add_argument("file")
    p.add_argument("--coset", required=True, metavar="d:a1,...,an")
    p.set_defaults(func=cmd_watson)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "search" and not 4 <= args.n <= 10:
        print("search supports ranks 4 through 10", file=sys.stderr)
        return USAGE
    if args.command == "search" and args.trials < 1:
        print("search needs at least 1 trial", file=sys.stderr)
        return USAGE
    try:
        return args.func(args)
    except ResourceExceeded as exc:
        print(str(exc), file=sys.stderr)
        return BUDGET
    except (LatquotError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
