"""Timestamped domain records emitted by the stages and device models.

Every record carries the local clock of the node that recorded it, so traces
from different nodes can only be compared after offset correction. A `TraceLog`
holds them by column: a time, a frame and a shared (node, kind, subject) key.
Its CSV export formats 4,096 records per chunk in one ``%`` call, from a
format string per key code, so no Python code runs per record.
"""
from __future__ import annotations

from array import array
from contextlib import suppress
from itertools import compress
from operator import itemgetter
from typing import NamedTuple, Optional


class Kind:
    # Nothing emits SPAWN to EVENT_COMPLETE. They stay while perfbench builds
    # synthetic traces from them and keys its per-kind rows on ALL.
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

    def _indices(self, kind: str, subject: str) -> list[int]:
        """Positions of the records of (`kind`, `subject`), on any node, in
        order. C-level scans (``array.index``) find each matching code's."""
        column, found = self._code, []
        for (_, k, s), code in self._codes.items():
            if k == kind and s == subject:
                i = -1
                with suppress(ValueError):      # raised past the code's last record
                    while True:
                        found.append(i := column.index(code, i + 1))
        return sorted(found)    # the codes of several nodes interleave

    def columns(self, kind: str, subject: str) -> tuple[array, array]:
        """The frames and the times of the matching records that name a frame,
        as two ``array('q')``s in emission order. One ``itemgetter`` gathers
        each column at C level, so no per-record object outlives the call."""
        positions = self._indices(kind, subject)
        if not positions:
            return array("q"), array("q")
        get = itemgetter(positions[0], *positions)   # two or more items: it returns a tuple
        frames, times = array("q", get(self._frame)), array("q", get(self._t))
        del frames[0], times[0]
        if _NO_FRAME in frames:
            named = [f != _NO_FRAME for f in frames]
            frames, times = array("q", compress(frames, named)), array("q", compress(times, named))
        return frames, times

    def count(self, kind: str, subject: str) -> int:
        return len(self._indices(kind, subject))

    def write_csv(self, path) -> None:
        """Write the CSV: the header, then 4,096 records per chunk, each chunk
        formatted by one ``%`` call, so the whole text is never held."""
        formats = ["%d," + ",".join(key).replace("%", "%%") + ",%d\n" for key in self._codes]
        code, times, frames = self._code, self._t, self._frame
        with open(path, "w", newline="") as fp:
            fp.write(CSV_HEADER + "\n")
            for i in range(0, len(code), 4096):
                j = min(i + 4096, len(code))
                args = [0] * (2 * (j - i))
                args[::2], args[1::2] = times[i:j], frames[i:j]
                text = "".join(map(formats.__getitem__, code[i:j])) % tuple(args)
                # the frame is a line's last field: only a frame can put this before a newline
                fp.write(text.replace(f",{_NO_FRAME}\n", ",\n"))
