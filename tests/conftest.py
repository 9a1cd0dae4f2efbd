"""Shared fixtures."""

import pytest

from latquot import enumeration


@pytest.fixture
def node_tally(monkeypatch):
    """A one-element list that counts every node any search spends."""
    tally = [0]
    spend = enumeration._Counter.spend

    def counting(self, amount=1):
        tally[0] += amount
        return spend(self, amount)

    monkeypatch.setattr(enumeration._Counter, "spend", counting)
    return tally
