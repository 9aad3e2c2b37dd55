"""Fixtures shared by the test modules."""

from collections import Counter

import pytest

from nanopipe import coro


@pytest.fixture
def dispatches(monkeypatch):
    """How many times each loop dispatched a task, by loop. ``run_all`` looks
    ``_dispatch`` up as a module global on every call, so a wrapper put in its
    place sees every dispatch."""
    counts = Counter()
    dispatch = coro._dispatch

    def counting(loop, task):
        counts[loop] += 1
        dispatch(loop, task)

    monkeypatch.setattr(coro, "_dispatch", counting)
    return counts
