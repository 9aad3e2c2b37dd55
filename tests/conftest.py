"""Fixtures and trace readers shared by the test modules."""

import pathlib
import tempfile
from collections import Counter

import pytest

from nanopipe import coro


def times_of(trace, kind, subject):
    """The times of the records of (``kind``, ``subject``), with or without a
    frame, in record order: a scan of ``trace.events``."""
    return [e.t_us for e in trace.events if e.kind == kind and e.subject == subject]


def csv_text(trace):
    """The text of the file that ``trace.write_csv`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "trace.csv"
        trace.write_csv(path)
        return path.read_bytes().decode()


class Dispatches(Counter):
    """How many times each loop dispatched a task, by the task's own loop;
    ``log`` holds one ``(clock.now, loop.name, task.label)`` per dispatch, in
    dispatch order."""

    def __init__(self):
        super().__init__()
        self.log = []

    def of(self, label):
        """The global times at which the task labelled ``label`` was dispatched."""
        return [now for now, _, dispatched in self.log if dispatched == label]


@pytest.fixture
def dispatches(monkeypatch):
    """Every task dispatch, counted by loop and logged (``Dispatches``).
    A task binds ``Task._dispatch`` once, as its ``resume``, when it is built,
    so the wrapper put in its place sees every dispatch of the tasks built
    after it, and none of a task built before."""
    counts = Dispatches()
    dispatch = coro.Task._dispatch

    def counting(task):
        loop = task.loop
        counts[loop] += 1
        counts.log.append((loop.clock.now, loop.name, task.label))
        dispatch(task)

    monkeypatch.setattr(coro.Task, "_dispatch", counting)
    return counts
