"""Timestamped event records emitted by the runtime and device models.

Every record carries the local clock of the node that recorded it, so traces
from different nodes can only be compared after offset correction. A `TraceLog`
holds them by column: a time, a frame and a shared (node, kind, subject) key.
"""
from __future__ import annotations

import itertools
from array import array
from typing import NamedTuple, Optional


class Kind:
    SPAWN = "Spawn"
    SUSPEND = "Suspend"
    RESUME = "Resume"
    EVENT_COMPLETE = "EventComplete"
    STAGE_START = "StageStart"
    STAGE_END = "StageEnd"
    LINK_TX_START = "LinkTxStart"
    LINK_RX_END = "LinkRxEnd"
    DROP = "Drop"
    QUEUE_FULL = "QueueFull"

    ALL = (SPAWN, SUSPEND, RESUME, EVENT_COMPLETE, STAGE_START, STAGE_END,
           LINK_TX_START, LINK_RX_END, DROP, QUEUE_FULL)


CSV_HEADER = "t_us,node,kind,subject,frame"
_NO_FRAME = -1 << 63     # the frame column's value for a record without a frame


class TraceEvent(NamedTuple):
    t_us: int
    node: str
    kind: str
    subject: str
    frame: Optional[int]


class _Events:
    def __init__(self, log: TraceLog):
        self._log = log

    def __len__(self) -> int:
        return len(self._log._t)

    def __iter__(self):
        # one key table for the whole pass; tuple.__new__ skips the NamedTuple's own __new__
        log, new = self._log, tuple.__new__
        keys = list(log._codes)
        for code, t_us, frame in zip(log._code, log._t, log._frame):
            yield new(TraceEvent, (t_us, *keys[code], None if frame == _NO_FRAME else frame))

    def clear(self) -> None:
        self._log.events = ()


class TraceLog:
    """Append-only event log shared by all loops of one simulation. Its key
    table outlives clearing or reassigning the records, so a site may look up
    its code once (``key``) and append with ``record``."""

    def __init__(self):
        self._codes: dict = {}
        self.events = ()

    @property
    def events(self) -> _Events:
        """Every record as a `TraceEvent`, built on access; assigning `TraceEvent`s refills."""
        return _Events(self)

    @events.setter
    def events(self, records) -> None:
        code, times, frames = array("I"), array("q"), array("q")
        for t_us, node, kind, subject, frame in records:
            code.append(self.key(node, kind, subject))
            times.append(t_us)
            frames.append(_NO_FRAME if frame is None else frame)
        self._code, self._t, self._frame = code, times, frames

    def key(self, node: str, kind: str, subject: str) -> int:
        """The code of a (node, kind, subject) key, for ``record``."""
        return self._codes.setdefault((node, kind, subject), len(self._codes))

    def record(self, loop, code: int, frame: Optional[int] = None) -> None:
        """Append a record of the key ``code`` at ``loop``'s local time."""
        self._code.append(code)
        self._t.append(loop.clock.now + loop.offset_us)
        self._frame.append(_NO_FRAME if frame is None else frame)

    def emit(self, loop, kind: str, subject: str, frame: Optional[int] = None) -> None:
        self.record(loop, self.key(loop.name, kind, subject), frame)

    def _indices(self, kind: str, subject: Optional[str]):
        """Indexes of the records of `kind`, and of `subject` unless it is None."""
        codes = {c for (_, k, s), c in self._codes.items() if k == kind and subject in (None, s)}
        if not codes:
            return ()
        return itertools.compress(range(len(self._t)), map(codes.__contains__, self._code))

    def times(self, kind: str, subject: str) -> list[int]:
        return [self._t[i] for i in self._indices(kind, subject)]

    def frames_of(self, kind: str, subject: str) -> list[tuple[int, int]]:
        """(frame, t_us) pairs for the matching events, in emission order."""
        t, f = self._t, self._frame
        return [(f[i], t[i]) for i in self._indices(kind, subject) if f[i] != _NO_FRAME]

    def count(self, kind: str, subject: Optional[str] = None) -> int:
        return sum(1 for _ in self._indices(kind, subject))

    def _csv_lines(self):
        yield CSV_HEADER + "\n"
        prefixes = [",".join(key) for key in self._codes]
        for code, t_us, frame in zip(self._code, self._t, self._frame):
            yield f"{t_us},{prefixes[code]},{'' if frame == _NO_FRAME else frame}\n"

    def to_csv(self) -> str:
        return "".join(self._csv_lines())

    def write_csv(self, path) -> None:
        """Write the CSV 4,096 lines at a time, never holding the whole text."""
        lines = self._csv_lines()
        with open(path, "w", newline="") as fp:
            while chunk := "".join(itertools.islice(lines, 4096)):
                fp.write(chunk)
