"""The benchmark's workloads: inputs, operations and output checks.

Each workload is a fixed list of calls into latquot's public functions,
chosen so that one layer dominates it (see README.md for the measured
shares).  Every output is checked twice: against values pinned in
``pinned.json`` (the exact reports of the commit that defined the
benchmark, witnesses included) and by re-checking the witness with the
exact arithmetic below, which shares no code with the package.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from latquot import enumeration, quality, watson
from latquot.construct import centred_cubic, fixture_path, search_corpus
from latquot.core import load_lattice
from latquot.sampling import perturbed

#: Random lattices in the shells workload.
SWEEP_TRIALS = 40
SWEEP_RANK = 8

PINNED = json.loads(Path(__file__).with_name("pinned.json").read_text(encoding="utf-8"))

# Values stated in the paper; the pins above hold them too, but a
# mismatch here names the claim that broke.
PAPER_QB = {f"cc{n}": Fraction(n, 4) for n in range(4, 10)}
PAPER_QB.update(liftc8=Fraction(25, 16), liftc9=Fraction(9, 4), a74=Fraction(9, 8))
PAPER_INDEX = {"a73": (3, None), "e7": (8, (2, 2, 2)), "e8": (16, None)}


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its output.

    ``check`` returns a failure reason, or None when the output is right.
    ``kind`` is "qb", "index", "listing" or "sweep"; qb and sweep
    results carry ``certified``, index results carry ``exhaustive``.
    """

    label: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


# -- exact arithmetic of the benchmark's own -------------------------------

def _det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def _norm(gram, v) -> Fraction:
    return sum((Fraction(gram[i][j]) * v[i] * v[j]
                for i in range(len(v)) for j in range(len(v))), Fraction(0))


# -- encoding and checks ---------------------------------------------------

def _encode_qb(r) -> dict:
    return {
        "M": str(r.M), "Hb": str(r.Hb), "Qb": str(r.Qb),
        "certified": r.certified,
        "frontier": None if r.frontier is None else str(r.frontier),
        "best_basis": [list(v) for v in r.best_basis],
    }


def _encode_index(r) -> dict:
    return {
        "max_index": r.max_index,
        "invariant_factors": list(r.witness_structure.invariant_factors),
        "exhaustive": r.exhaustive,
        "frame": [list(v) for v in r.witness_frame.vectors],
        "norms": [str(x) for x in r.witness_frame.norms],
    }


def _encode_listing(r) -> dict:
    return {
        "bound": str(r.bound),
        "count": len(r),
        "sha256": hashlib.sha256(repr(r.vectors).encode()).hexdigest(),
    }


def encode(kind: str, result) -> dict:
    """A JSON form of an operation's whole output, as pinned."""
    return {"qb": _encode_qb, "index": _encode_index, "listing": _encode_listing}[kind](result)


def _check_qb_witness(L, r) -> str | None:
    if not r.certified:
        return "uncertified"
    basis = r.best_basis
    if len(basis) != L.n or abs(_det(basis)) != 1:
        return "best_basis is not a basis: its determinant is not +-1"
    product = Fraction(1)
    for v in basis:
        product *= _norm(L.gram, v)
    if product != r.Hb * _det(L.gram):
        return f"best_basis norm product {product} != Hb*det"
    if r.Qb != r.Hb / r.M:
        return "Qb != Hb/M"
    return None


def _check_index_witness(L, r) -> str | None:
    if not r.exhaustive:
        return "not exhaustive"
    frame = r.witness_frame
    if [_norm(L.gram, v) for v in frame.vectors] != list(frame.norms):
        return "frame norms differ from the minima"
    if abs(_det(frame.vectors)) != r.max_index:
        return "|det(frame)| != max_index"
    return None


def _qb_op(label: str, L) -> Op:
    def check(r):
        reason = _check_qb_witness(L, r)
        if reason:
            return reason
        if label in PAPER_QB and r.Qb != PAPER_QB[label]:
            return f"Qb {r.Qb} != paper value {PAPER_QB[label]}"
        if encode("qb", r) != PINNED[label]["qb"]:
            return "report differs from the pinned output"
        return None
    return Op(label, "qb", lambda: quality.qb(L), check)


def _index_op(label: str, L) -> Op:
    def check(r):
        reason = _check_index_witness(L, r)
        if reason:
            return reason
        if label in PAPER_INDEX:
            index, factors = PAPER_INDEX[label]
            if r.max_index != index:
                return f"max_index {r.max_index} != paper value {index}"
            if factors and r.witness_structure.invariant_factors != factors:
                return f"quotient {r.witness_structure.invariant_factors} != {factors}"
        if encode("index", r) != PINNED[label]["index"]:
            return "report differs from the pinned output"
        return None
    return Op(label, "index", lambda: watson.maximal_index(L), check)


def _listing_op(label: str, L, bound: int) -> Op:
    def check(r):
        if encode("listing", r) != PINNED[label]["listing"]:
            return "listing differs from the pinned output"
        return None
    return Op(label, "listing", lambda: enumeration.vectors_up_to(L, bound), check)


def _trial_op(label: str, L) -> Op:
    def call():
        return quality.qb(L), enumeration.is_well_rounded(L)

    def check(result):
        report, rounded = result
        if not isinstance(rounded, bool):
            return "is_well_rounded did not return a bool"
        return _check_qb_witness(L, report)
    return Op(label, "sweep", call, check)


def _fixture(stem: str):
    return load_lattice(fixture_path(stem))


def _sweep_lattices(seed: int):
    """Perturbed copies of the rank-8 search corpus, as ``latquot search 8`` makes them.

    The bases are taken in turn rather than drawn, so that every seed
    runs the same mix of them and only the perturbations differ.
    """
    corpus = search_corpus(SWEEP_RANK)
    rand = random.Random(seed)
    out = []
    for t in range(SWEEP_TRIALS):
        base = corpus[t % len(corpus)]
        out.append((f"trial{t}:{base.label}", perturbed(rand, base)))
    return out


def build(name: str, seed: int) -> list[Op]:
    """The operations of one round of workload ``name``.

    ``searches`` runs fixed fixtures whatever the seed; ``shells`` draws
    its random lattices from ``seed``.
    """
    if name == "searches":
        ops = [_qb_op(s, _fixture(s)) for s in ("a74", "liftc9", "liftc8")]
        ops += [_qb_op(f"cc{n}", centred_cubic(n)) for n in range(4, 10)]
        return ops + [_index_op(s, _fixture(s)) for s in ("e8", "a53", "a72", "e7", "a73")]
    if name == "shells":
        ops = [_qb_op("liftc11", _fixture("liftc11")),
               _listing_op("liftc12", _fixture("liftc12"), 3)]
        return ops + [_trial_op(label, L) for label, L in _sweep_lattices(seed)]
    raise ValueError(f"unknown workload {name!r}")
