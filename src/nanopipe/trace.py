"""Timestamped domain records emitted by the stages and device models.

Every record carries the local clock of the node that recorded it, so traces
from different nodes can only be compared after offset correction. A `TraceLog`
holds them by column: a time, a frame and a shared (node, kind, subject) key.
Times and frames are ``array('Q')``s in two's complement, ``1 << 63`` for no
frame, as an ``array('q')`` append parses its argument through ``PyArg_Parse``.
A time is negative only before a node with a negative offset reads 0; only then
does its append raise ``OverflowError``, and ``record`` adds ``1 << 64``. Both
columns are read as signed. The CSV export is UTF-8 bytes, 1,024 records per
chunk formatted by one bytes ``%`` call, so no Python code runs per record.
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
_NO_FRAME = 1 << 63      # the frame column's value for a record without a frame
_SIGNED_NO_FRAME = -_NO_FRAME       # the same value read back as signed


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
        log, new, keys = self._log, tuple.__new__, list(self._log._codes)
        times, frames = array("q", bytes(log._t)), array("q", bytes(log._frame))  # signed copies
        for code, t_us, frame in zip(log._code, times, frames):
            yield new(TraceEvent, (t_us, *keys[code], None if frame == _SIGNED_NO_FRAME else frame))

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
        """Every record as a `TraceEvent`, built on access; assigning `TraceEvent`s
        refills. A time or frame in the signed 64-bit range reads back as given."""
        return _Events(self)

    @events.setter
    def events(self, records) -> None:
        code, times, frames = array("I"), array("q"), array("q")
        for t_us, node, kind, subject, frame in records:
            code.append(self.key(node, kind, subject))
            times.append(t_us)
            frames.append(_SIGNED_NO_FRAME if frame is None else frame)
        # a 'q' append raises OverflowError outside the signed range; bytes reinterpret
        self._code, self._t, self._frame = code, array("Q", bytes(times)), array("Q", bytes(frames))

    def key(self, node: str, kind: str, subject: str) -> int:
        """The code of a (node, kind, subject) key, for ``record``."""
        return self._codes.setdefault((node, kind, subject), len(self._codes))

    def record(self, loop, code: int, frame: Optional[int] = None) -> None:
        """Append a record of the key ``code`` at ``loop``'s local time, naming
        ``frame``, which is at least 0, or None (a negative one raises OverflowError)."""
        self._frame.append(_NO_FRAME if frame is None else frame)   # first: it can raise
        self._code.append(code)
        try:
            self._t.append(loop.clock.now + loop.offset_us)
        except OverflowError:       # a negative local time: store its two's complement
            self._t.append(loop.clock.now + loop.offset_us + (1 << 64))

    def emit(self, loop, kind: str, subject: str, frame: Optional[int] = None) -> None:
        """``record`` under the key (loop's node, ``kind``, ``subject``); ``frame``
        is at least 0, or None."""
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
        """The frames and the times of the matching records that name a frame, as
        two signed ``array('q')``s in emission order. One ``itemgetter`` gathers
        each column at C level, so no per-record object outlives the call."""
        positions = self._indices(kind, subject)
        if not positions:
            return array("q"), array("q")
        get = itemgetter(positions[0], *positions)   # two or more items: it returns a tuple
        frames = array("q", bytes(array("Q", get(self._frame))))
        times = array("q", bytes(array("Q", get(self._t))))
        del frames[0], times[0]
        if _SIGNED_NO_FRAME in frames:
            named = [f != _SIGNED_NO_FRAME for f in frames]
            frames, times = array("q", compress(frames, named)), array("q", compress(times, named))
        return frames, times

    def count(self, kind: str, subject: str) -> int:
        return len(self._indices(kind, subject))

    def write_csv(self, path) -> None:
        """Write the CSV as UTF-8 in 1,024-record chunks, so the whole text is never held."""
        formats = [b"%d," + ",".join(key).replace("%", "%%").encode() + b",%d\n"
                   for key in self._codes]
        code, no_frame = self._code, b",%d\n" % _SIGNED_NO_FRAME
        times, frames = (memoryview(c).cast("B").cast("q") for c in (self._t, self._frame))
        with open(path, "wb") as fp:
            fp.write(CSV_HEADER.encode() + b"\n")
            for i in range(0, len(code), 1024):
                j = min(i + 1024, len(code))
                args = [0] * (2 * (j - i))
                args[::2], args[1::2] = times[i:j], frames[i:j]
                text = b"".join(map(formats.__getitem__, code[i:j])) % tuple(args)
                # the frame is a line's last field: only a frame can put this before a newline
                fp.write(text.replace(no_frame, b",\n"))
