"""The witnesses of qb and maximal_index, pinned against a committed record.

``witnesses.json`` holds, for every fixture and for ``centred_cubic(n)``
with n = 10..12 (the fixtures c4..c9 are n = 4..9), the basis ``qb``
returns with its ``certified`` flag and ``frontier``, and for every
fixture the frame ``maximal_index`` returns.  A7's, its base frame, was
recorded by the plain branch and bound of seconds that the decision over
candidate indices replaced.  A change to either search that keeps its
values but picks another witness among equal ones fails here.  Regenerate the record with
``PYTHONPATH=src python tests/test_witnesses.py``, and only when a change
means to move a witness.
"""

import json
from pathlib import Path

from latquot.construct import centred_cubic, fixture_inventory
from latquot.quality import qb
from latquot.watson import maximal_index

RECORD = Path(__file__).with_name("witnesses.json")


def _rows(rows):
    return [list(v) for v in rows]


def witnesses() -> dict:
    """What the two searches return on the recorded lattices, as JSON data."""
    lattices = fixture_inventory()
    lattices.update({f"cc{n}": centred_cubic(n) for n in range(10, 13)})
    bases = {}
    for name, L in sorted(lattices.items()):
        report = qb(L)
        bases[name] = {
            "best_basis": _rows(report.best_basis),
            "certified": report.certified,
            "frontier": None if report.frontier is None else str(report.frontier),
        }
    frames = {
        name: _rows(maximal_index(L).witness_frame.vectors)
        for name, L in sorted(fixture_inventory().items())
    }
    return {"qb": bases, "maximal_index": frames}


def test_the_witnesses_match_the_record():
    expected = json.loads(RECORD.read_text())
    found = witnesses()
    for kind in ("qb", "maximal_index"):
        assert found[kind].keys() == expected[kind].keys(), kind
        for name, value in expected[kind].items():
            assert found[kind][name] == value, (kind, name)


if __name__ == "__main__":
    # one line per lattice
    RECORD.write_text("{\n" + ",\n".join(
        f"{json.dumps(kind)}: {{\n" + ",\n".join(
            f" {json.dumps(name)}: {json.dumps(value)}" for name, value in entries.items()
        ) + "\n}"
        for kind, entries in witnesses().items()
    ) + "\n}\n")
