"""Deterministic desk-scale simulator for pipelined perception stacks.

The package models a small flying robot's software stack on a virtual clock:
stackless cooperative step-list tasks (``coro``), multi-buffered frame pipelines
(``pipeline``), camera timing and virtual links (``vnode``), a zero-copy packet
router (``cpx``), canned closed-loop workloads (``scenarios``), and a CLI with
microbenchmarks (``cli``, ``bench``).
"""

from .bench import BenchReport, microbench
from .coro import (Event, EventLoop, Task, TaskState, VirtualClock, call_at, event_complete,
                   event_init, event_reset, loop_run, pulse, schedule_completion, spawn,
                   spawn_task)
from .cpx import (BASELINE, CpxPacket, NODE_IDS, Router, RouterQueue, ZEROCOPY,
                  estimate_clock_offset, packet_decode, packet_encode, router_forward)
from .errors import (ConfigError, MetricsError, NanopipeError, OracleUnavailable,
                     ProtocolError, UsageError)
from .oracle import analytic_oracle
from .pipeline import (BufferPool, BufferState, Channel, FrameBuffer, PIPELINED, SERIALIZED,
                       pipeline_run, pool_create)
from .scenarios import (Metrics, Scenario, compute_metrics, expected_period_us,
                        list_scenarios, load_scenario, run_scenario)
from .trace import Kind, TraceEvent, TraceLog
from .vnode import Link, LinkConfig, NodeGraph, STREAMING, TRIGGER

__version__ = "0.1.0"
