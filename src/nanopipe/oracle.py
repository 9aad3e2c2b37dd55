"""Closed-form steady-state period predictions for simple pipelines."""
from __future__ import annotations

from .errors import OracleUnavailable
from .pipeline import MODES, SERIALIZED


def analytic_oracle(durations_us, mode: str, pool_size: int) -> int:
    """Expected steady-state period of a linear pipeline on distinct resources.

    Serialized runs take the sum of the stage durations. Pipelined runs with
    two or more buffers are bounded by the slowest stage; with a single buffer
    the frame cannot leave the pipeline before the next one starts, so the
    period collapses back to the sum.
    """
    if mode not in MODES:
        raise OracleUnavailable(f"unknown mode {mode!r}")
    if not durations_us:
        raise OracleUnavailable("empty stage list")
    if mode == SERIALIZED or pool_size == 1:
        return sum(durations_us)
    return max(durations_us)
