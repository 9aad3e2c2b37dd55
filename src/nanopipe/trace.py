"""Timestamped event records emitted by the runtime and device models.

Every record carries the local clock of the node that recorded it, so traces
from different nodes can only be compared after offset correction.
"""
from __future__ import annotations

import csv
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


class TraceEvent(NamedTuple):
    t_us: int
    node: str
    kind: str
    subject: str
    frame: Optional[int]


class TraceLog:
    """Append-only event log shared by all loops of one simulation."""

    def __init__(self):
        self.events: list[TraceEvent] = []

    def emit(self, loop, kind: str, subject: str, frame: Optional[int] = None) -> None:
        # the same record as TraceEvent(loop.now, ...), minus two Python-level calls
        self.events.append(tuple.__new__(
            TraceEvent, (loop.clock.now + loop.offset_us, loop.name, kind, subject, frame)))

    def times(self, kind: str, subject: str) -> list[int]:
        return [e.t_us for e in self.events if e.kind == kind and e.subject == subject]

    def frames_of(self, kind: str, subject: str) -> list[tuple[int, int]]:
        """(frame, t_us) pairs for the matching events, in emission order."""
        return [(e.frame, e.t_us) for e in self.events
                if e.kind == kind and e.subject == subject and e.frame is not None]

    def count(self, kind: str, subject: Optional[str] = None) -> int:
        return sum(1 for e in self.events
                   if e.kind == kind and (subject is None or e.subject == subject))

    def _csv_lines(self):
        yield CSV_HEADER + "\n"
        for t_us, node, kind, subject, frame in self.events:
            yield f"{t_us},{node},{kind},{subject},{'' if frame is None else frame}\n"

    def to_csv(self) -> str:
        return "".join(self._csv_lines())

    def write_csv(self, path) -> None:
        """Write the CSV line by line, never holding the whole text in memory."""
        with open(path, "w", newline="") as fp:
            fp.writelines(self._csv_lines())

    @staticmethod
    def from_csv(path) -> "TraceLog":
        log = TraceLog()
        with open(path, newline="") as fp:
            reader = csv.reader(fp)
            header = next(reader)
            if ",".join(header) != CSV_HEADER:
                raise ValueError(f"unexpected trace header: {header}")
            for t_us, node, kind, subject, frame in reader:
                log.events.append(TraceEvent(
                    int(t_us), node, kind, subject, int(frame) if frame else None))
        return log
