"""The node totals of qb and maximal_index, pinned against a committed record.

``node_totals.json`` holds, for every fixture, the nodes ``qb`` spends
with its ``certified`` flag and ``frontier``, at the default budget and
at 500, and the nodes ``maximal_index`` spends with its ``exhaustive``
flag.  A ``qb`` that runs out in the minima ball is recorded as raising,
with the nodes it spent.  A change that means to leave the work of both
searches alone, as one to the arithmetic they run in should, fails here
if it moves one node.  Regenerate the record with
``PYTHONPATH=src python tests/test_node_totals.py``, and only when a
change means to move a node total.
"""

import json
from pathlib import Path
from unittest.mock import patch

from latquot import enumeration
from latquot.construct import fixture_inventory
from latquot.core import GramLattice
from latquot.errors import ResourceExceeded
from latquot.quality import qb
from latquot.watson import maximal_index

RECORD = Path(__file__).with_name("node_totals.json")


def _tallied(call, L, *args):
    """What ``call`` returns on a fresh copy of ``L``, or None if it raises, with the nodes it spent."""
    tally = [0]
    spend = enumeration._Counter.spend

    def counting(self, amount=1):
        tally[0] += amount
        return spend(self, amount)

    with patch.object(enumeration._Counter, "spend", counting):
        try:
            result = call(GramLattice(L.n, L.gram, L.label), *args)
        except ResourceExceeded:
            result = None
    return result, tally[0]


def _qb_entry(L, *budget) -> dict:
    report, nodes = _tallied(qb, L, *budget)
    if report is None:
        return {"nodes": nodes, "raised": True}
    frontier = None if report.frontier is None else str(report.frontier)
    return {"nodes": nodes, "certified": report.certified, "frontier": frontier}


def node_totals() -> dict:
    """The node totals of the two searches on the fixtures, as JSON data."""
    totals = {}
    for name, L in sorted(fixture_inventory().items()):
        index, nodes = _tallied(maximal_index, L)
        totals[name] = {
            "qb": _qb_entry(L),
            "qb_500": _qb_entry(L, 500),
            "maximal_index": {"nodes": nodes, "exhaustive": index.exhaustive},
        }
    return totals


def test_the_node_totals_match_the_record():
    expected = json.loads(RECORD.read_text())
    found = node_totals()
    assert found.keys() == expected.keys()
    for name, value in expected.items():
        assert found[name] == value, name


if __name__ == "__main__":
    # one line per fixture
    RECORD.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(value)}" for name, value in node_totals().items()
    ) + "\n}\n")
