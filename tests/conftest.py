"""Shared pytest fixtures."""

import pytest

from xbarsynth.trace import Transaction


@pytest.fixture
def count_transactions(monkeypatch):
    """List that grows by one per Transaction object built during the test."""
    built = []
    init = Transaction.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Transaction, "__init__", counting_init)
    return built
