"""Canned closed-loop workloads and the metrics extracted from their traces.

A scenario binds a camera, compute stages, links, and (for remote kinds) the
packet router into one deterministic run. Three kinds exist:

    onboard   camera -> on-board inference -> uart result -> control sink
    remote    camera -> spi -> router -> wifi -> host inference -> result
              back over wifi/spi -> uart -> control sink
    stream    camera/fill -> spi -> router -> wifi -> host sink (image stream)

Scenario files are JSON documents (schema in the README); the named fixtures
shipped with the package parameterize the runs the acceptance suite checks.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import random
from dataclasses import dataclass, field
from typing import Optional

from .coro import (coroutine, ctx_init, done, event_init, loop_run, schedule_completion,
                   sleep_until, spawn, wait)
from .cpx import (BASELINE, FUNCTION_APP_STREAM, NODE_IDS, ROUTER_MODES, ZEROCOPY,
                  CpxPacket, Router, estimate_clock_offset)
from .errors import ConfigError, MetricsError, OracleUnavailable
from .oracle import analytic_oracle
from .pipeline import MODES, PIPELINED, SERIALIZED, Channel, ResourceBusy, pool_create
from .trace import Kind, TraceLog
from .vnode import (NODE_NAMES, STREAMING, TRIGGER, Camera, CameraConfig, LinkConfig,
                    NodeGraph, camera_capture, camera_stream)

FUNCTION_PING = 6

KINDS = ("onboard", "remote", "stream")

_LINK_KEYS = {
    "onboard": ("uart_down",),
    "remote": ("spi_up", "spi_down", "wifi_up", "wifi_down", "uart_down"),
    "stream": ("spi_up", "spi_down", "wifi_up", "wifi_down"),
}

_LINK_EDGES = {
    "uart_down": ("gap8", "stm32", "uart"),
    "uart_up": ("stm32", "gap8", "uart"),
    "spi_up": ("gap8", "esp32", "spi"),
    "spi_down": ("esp32", "gap8", "spi"),
    "wifi_up": ("esp32", "host", "wifi"),
    "wifi_down": ("host", "esp32", "wifi"),
}


def _int_min(least):
    return (lambda v: type(v) is int and v >= least), f"an int >= {least}"


def _or_null(rule):
    check, what = rule
    return (lambda v: v is None or check(v)), f"{what} or null"


_INT = (lambda v: type(v) is int, "an int")
_STR = (lambda v: type(v) is str, "a string")
_OBJECT = (lambda v: type(v) is dict, "a JSON object")
_POSITIVE = (lambda v: type(v) in (int, float) and 0 < v < math.inf, "a number > 0")
_NON_NEGATIVE = (lambda v: type(v) in (int, float) and 0 <= v < math.inf, "a number >= 0")

# Every field each block of a scenario document may hold, and what it may
# hold; "links" applies to each link entry. Scenario checks how fields combine.
_FIELDS = {
    "scenario": {
        "name": _STR, "kind": _STR, "description": _STR, "mode": _STR, "router_mode": _STR,
        "aliases": (lambda v: type(v) is list and all(type(a) is str for a in v),
                    "a list of strings"),
        "seed": _INT, "frames": _int_min(1), "pool_size": _int_min(1),
        "rate_hz": _or_null(_POSITIVE), "inference_hz": _or_null(_POSITIVE),
        "inference_us": _int_min(0), "host_compute_us": _int_min(0),
        "image_bytes": _or_null(_int_min(0)), "result_bytes": _int_min(0),
        "rtt_probe_rounds": _int_min(0), "steady_start_frame": _int_min(0),
        "camera": _OBJECT, "router": _OBJECT, "links": _OBJECT, "offsets_us": _OBJECT,
        "notes": _OBJECT},
    "camera": {
        "mode": (lambda v: v in (TRIGGER, STREAMING), f"{TRIGGER!r} or {STREAMING!r}"),
        "resolution": (lambda v: type(v) is list and len(v) == 2
                       and all(type(x) is int and x >= 1 for x in v),
                       "a list of two ints >= 1"),
        "readout_us": _int_min(0), "trigger_setup_us": _int_min(0)},
    "router": {"queue_capacity": _int_min(1), "copy_ns_per_byte": _NON_NEGATIVE},
    "offsets_us": {node: _INT for node in NODE_NAMES},
    "links": {"bandwidth_bps": _int_min(1), "mtu": _int_min(1), "base_latency_us": _int_min(0),
              "injected_delay_us": _int_min(0), "jitter_us": _int_min(0)},
}


def _check_fields(path: str, raw, rules: dict) -> None:
    """Check one block of a scenario document against its ``rules``."""
    _require(isinstance(raw, dict), f"{path} must be a JSON object")
    unknown = set(raw) - set(rules)
    _require(not unknown, f"{path} has unknown fields: {sorted(unknown)}")
    for name, (check, what) in rules.items():
        if name in raw:
            _require(check(raw[name]), f"{path}.{name} must be {what}, got {raw[name]!r}")


@dataclass
class Scenario:
    name: str
    kind: str
    description: str = ""
    aliases: tuple = ()
    mode: str = PIPELINED
    router_mode: str = ZEROCOPY
    seed: int = 1
    frames: int = 100
    pool_size: int = 2
    rate_hz: Optional[float] = None        # camera pacing; None = free-run
    inference_hz: Optional[float] = None   # declared compute-alone rate
    camera_mode: str = STREAMING
    resolution: tuple = (160, 160)
    readout_us: int = 8000
    trigger_setup_us: int = 25333
    inference_us: int = 0                  # on-board compute time
    host_compute_us: int = 0               # remote compute time
    image_bytes: Optional[int] = None      # defaults to the resolution product
    result_bytes: int = 15
    links: dict = field(default_factory=dict)
    offsets_us: dict = field(default_factory=dict)
    queue_capacity: int = 8
    copy_ns_per_byte: float = 0.0
    rtt_probe_rounds: int = 0
    steady_start_frame: int = 10
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.router_mode not in ROUTER_MODES:
            raise ConfigError(f"unknown router mode {self.router_mode!r}")
        if self.frames < 50:
            raise ConfigError("steady-state metrics need a run length of >= 50 frames")
        if self.pool_size < 1:
            raise ConfigError("pool_size must be >= 1")
        if self.kind == "stream":
            if self.mode != PIPELINED:
                raise ConfigError("stream scenarios only run pipelined")
            if self.rate_hz is not None:
                raise ConfigError("stream scenarios free-run; rate_hz is not supported")
        elif self.rate_hz is None:
            raise ConfigError(f"{self.kind} scenarios need a rate_hz pacing value")
        _require(isinstance(self.links, dict), "links must be a JSON object")
        unknown = set(self.links) - set(_LINK_EDGES)
        _require(not unknown, f"links {sorted(unknown)} name no known edge")
        for key in _LINK_KEYS[self.kind]:
            if key not in self.links:
                raise ConfigError(f"scenario {self.name!r} is missing link {key!r}")
        for key, raw in self.links.items():
            _check_fields(f"links.{key}", raw, _FIELDS["links"])
            _require("bandwidth_bps" in raw, f"link {key!r} is missing 'bandwidth_bps'")
        if self.rate_hz is not None:
            period = self.frame_period_us
            if self.camera_mode == TRIGGER:
                ceiling = 1e6 / (self.trigger_setup_us + self.readout_us)
                if self.rate_hz > ceiling + 1e-9:
                    raise ConfigError(
                        f"trigger rate {self.rate_hz} Hz above the camera ceiling "
                        f"{ceiling:.2f} Hz")
            elif self.readout_us > period:
                raise ConfigError("readout does not fit the requested frame period")

    @property
    def frame_period_us(self) -> int:
        if self.rate_hz is None:
            return 0
        return round(1e6 / self.rate_hz)

    @property
    def frame_bytes(self) -> int:
        if self.image_bytes is not None:
            return self.image_bytes
        return self.resolution[0] * self.resolution[1]

    def link_cfg(self, key: str) -> LinkConfig:
        # link entry fields are LinkConfig fields; only the mtu default differs
        return LinkConfig(name=key, **{"mtu": 1 << 20, **self.links[key]})


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def scenario_from_dict(raw: dict) -> Scenario:
    _check_fields("scenario", raw, _FIELDS["scenario"])
    for key in ("name", "kind", "frames", "links"):
        _require(key in raw, f"scenario is missing required field {key!r}")
    for block in ("camera", "router", "offsets_us"):
        _check_fields(block, raw.get(block, {}), _FIELDS[block])
    # the camera and router blocks flatten into Scenario fields of the same
    # names, except that the camera's mode is camera_mode
    args = {k: v for k, v in raw.items() if k not in ("camera", "router")}
    args.update(raw.get("router", {}))
    for key, value in raw.get("camera", {}).items():
        args["camera_mode" if key == "mode" else key] = value
    for key in ("aliases", "resolution"):
        if key in args:
            args[key] = tuple(args[key])
    return Scenario(**args)


def fixture_dir() -> pathlib.Path:
    override = os.environ.get("NANOPIPE_SCENARIO_DIR")
    if override:
        return pathlib.Path(override)
    return pathlib.Path(__file__).parent / "fixtures"


def list_scenarios() -> list:
    """(name, aliases, description) for every fixture in the scenario dir."""
    out = []
    for path in sorted(fixture_dir().glob("*.json")):
        raw = json.loads(path.read_text())
        out.append((raw["name"], tuple(raw.get("aliases", ())),
                    raw.get("description", "")))
    return out


def load_scenario(name_or_path) -> Scenario:
    path = pathlib.Path(name_or_path)
    if path.suffix == ".json" or path.exists():
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError) as exc:    # missing, a directory, not JSON, not text
            raise ConfigError(f"unreadable scenario file {path}: {exc}") from exc
        return scenario_from_dict(raw)
    for fixture in sorted(fixture_dir().glob("*.json")):
        raw = json.loads(fixture.read_text())
        if raw["name"] == name_or_path or name_or_path in raw.get("aliases", ()):
            return scenario_from_dict(raw)
    raise ConfigError(f"unknown scenario {name_or_path!r} "
                      f"(searched {fixture_dir()})")


# --- metrics -------------------------------------------------------------------

@dataclass
class Metrics:
    closed_loop_hz: float
    inference_hz: Optional[float]
    drop_pct: Optional[float]
    e2e_ms_mean: Optional[float]
    e2e_ms_p95: Optional[float]
    rtt_ms_mean: Optional[float]
    frames_dropped: int
    steady_receipts: int
    steady_start_frame: int
    offset_us_applied: float
    offsets_estimated_us: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _p95(values):
    ordered = sorted(values)
    rank = max(1, math.ceil(0.95 * len(ordered)))
    return ordered[rank - 1]


def compute_metrics(trace: TraceLog, *, sink_stage: str = "sink",
                    capture_stage: str = "capture", offset_us: float = 0.0,
                    inference_hz: Optional[float] = None, steady_start_frame: int = 10,
                    offsets_estimated_us: Optional[dict] = None) -> Metrics:
    """Steady-state throughput and latency from sink receipts in the trace.

    ``offset_us`` is the estimated clock offset of the sink's node relative to
    the capture node and is subtracted from every per-frame latency.
    """
    receipts = sorted(trace.frames_of(Kind.STAGE_END, sink_stage))
    steady = [(f, t) for f, t in receipts if f >= steady_start_frame]
    if len(steady) < 10:
        raise MetricsError(
            f"only {len(steady)} steady-state receipts past frame {steady_start_frame}; "
            f"need at least 10")
    t_first, t_last = steady[0][1], steady[-1][1]
    if t_last == t_first:
        raise MetricsError("empty steady-state window")
    closed_loop_hz = (len(steady) - 1) / ((t_last - t_first) / 1e6)

    starts = dict(trace.frames_of(Kind.STAGE_START, capture_stage))
    lat = [t - starts[f] - offset_us for f, t in steady if f in starts]
    e2e_mean = e2e_p95 = None
    if lat:
        e2e_mean = (sum(lat) / len(lat)) / 1000.0
        e2e_p95 = _p95(lat) / 1000.0

    drop_pct = None
    if inference_hz:
        drop_pct = (1.0 - closed_loop_hz / inference_hz) * 100.0
        if not -2.0 <= drop_pct <= 100.0:
            raise MetricsError(f"drop_pct {drop_pct:.3f} outside [-2, 100]")

    rtt_starts = dict(trace.frames_of(Kind.STAGE_START, "rtt_probe"))
    rtt_ends = dict(trace.frames_of(Kind.STAGE_END, "rtt_probe"))
    rtt_ms = None
    if rtt_ends:
        samples = [rtt_ends[k] - rtt_starts[k] for k in sorted(rtt_ends)]
        rtt_ms = (sum(samples) / len(samples)) / 1000.0

    return Metrics(
        closed_loop_hz=closed_loop_hz,
        inference_hz=inference_hz,
        drop_pct=drop_pct,
        e2e_ms_mean=e2e_mean,
        e2e_ms_p95=e2e_p95,
        rtt_ms_mean=rtt_ms,
        frames_dropped=trace.count(Kind.DROP, capture_stage),
        steady_receipts=len(steady),
        steady_start_frame=steady_start_frame,
        offset_us_applied=offset_us,
        offsets_estimated_us=dict(offsets_estimated_us or {}),
    )


# --- shared coroutine bodies and channel handlers ----------------------------------

class _Rec:
    """Mutable bag for coroutine args: everything that must survive suspension."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


def _sink(trace, loop, notify_loop=None, pending=None):
    """Channel handler of the zero-duration control sink: records each result
    frame, and completes the oldest ``pending`` event on ``notify_loop``."""
    def receive(msg):
        frame = msg.meta if isinstance(msg.meta, int) else msg.payload.meta
        trace.emit(loop, Kind.STAGE_START, "sink", frame)
        trace.emit(loop, Kind.STAGE_END, "sink", frame)
        if notify_loop is not None:
            schedule_completion(notify_loop, pending.pop(0), notify_loop.now)
    return receive


@coroutine
def _trigger_producer_body(ctx):
    # paced single-shot capture requests feeding the frame channel
    st = ctx.args
    loop = st.loop
    while True:
        if ctx.resume_point == 0:
            if st.n == st.frames:
                return done()
            st.ev = sleep_until(loop, st.t0 + st.n * st.period, "frame-tick")
            return wait(st.ev, then=1)
        if ctx.resume_point == 1:
            buf = st.pool.try_acquire()
            if buf is None:
                st.trace.emit(loop, Kind.DROP, "capture", st.n)
                st.n += 1
                ctx.resume_point = 0
                continue
            st.buf = buf
            st.ev = event_init("capture-done")
            camera_capture(st.cam, buf, st.ev)
            return wait(st.ev, then=2)
        st.pool.attach(st.buf)
        st.out.put((st.n, st.buf))
        st.buf = None
        st.n += 1
        ctx.resume_point = 0


@coroutine
def _onboard_inference_body(ctx):
    # consumes frames, holds the cluster for the inference time, emits the
    # result over the uart link, releases the image buffer
    st = ctx.args
    loop = st.loop
    while True:
        if ctx.resume_point == 0:
            tok = st.in_ch.try_get()
            if tok is None:
                return wait(st.in_ch.ready_event, then=0)
            st.tok = tok
            ctx.resume_point = 1
        if ctx.resume_point == 1:
            if not st.engine.try_acquire():
                return wait(st.engine.free_event, then=1)
            st.trace.emit(loop, Kind.STAGE_START, "inference", st.tok[0])
            st.ev = sleep_until(loop, loop.now + st.duration_us, "inference")
            return wait(st.ev, then=2)
        frame, buf = st.tok
        st.trace.emit(loop, Kind.STAGE_END, "inference", frame)
        st.engine.release()
        st.pool.release(buf)
        st.uart.send(b"", st.result_bytes, meta=frame, frame=frame)
        st.tok = None
        ctx.resume_point = 0


@coroutine
def _serialized_onboard_body(ctx):
    # one logical thread: capture, inference, and result tx back to back
    st = ctx.args
    loop = st.loop
    while True:
        if ctx.resume_point == 0:
            if st.n == st.frames:
                return done()
            if st.period:
                st.ev = sleep_until(loop, st.t0 + st.n * st.period, "frame-tick")
                return wait(st.ev, then=1)
            ctx.resume_point = 1
        if ctx.resume_point == 1:
            buf = st.pool.try_acquire()
            if buf is None:
                return wait(st.pool.free_event, then=1)
            st.buf = buf
            st.trace.emit(loop, Kind.STAGE_START, "capture", st.n)
            st.ev = sleep_until(loop, loop.now + st.readout_us, "readout")
            return wait(st.ev, then=2)
        if ctx.resume_point == 2:
            st.trace.emit(loop, Kind.STAGE_END, "capture", st.n)
            st.buf.fill()
            st.buf.make_ready(st.n)
            st.pool.attach(st.buf)
            st.trace.emit(loop, Kind.STAGE_START, "inference", st.n)
            st.ev = sleep_until(loop, loop.now + st.inference_us, "inference")
            return wait(st.ev, then=3)
        if ctx.resume_point == 3:
            st.trace.emit(loop, Kind.STAGE_END, "inference", st.n)
            st.ev = event_init("uart-done")
            st.uart.send(b"", st.result_bytes, st.ev, meta=st.n, frame=st.n)
            return wait(st.ev, then=4)
        st.pool.release(st.buf)
        st.buf = None
        st.n += 1
        ctx.resume_point = 0


@coroutine
def _image_sender_body(ctx):
    # gap8 side of the packet stream: credit-gated spi transmission
    st = ctx.args
    loop = st.loop
    while True:
        if ctx.resume_point == 0:
            tok = st.in_ch.try_get()
            if tok is None:
                return wait(st.in_ch.ready_event, then=0)
            frame, buf = tok
            st.tok = tok
            st.pkt = CpxPacket(NODE_IDS["gap8"], NODE_IDS["host"], FUNCTION_APP_STREAM,
                               memoryview(buf.data)[:st.nbytes], meta=frame)
            ctx.resume_point = 1
        if ctx.resume_point == 1:
            if not st.queue.try_reserve():
                st.trace.emit(loop, Kind.QUEUE_FULL, st.queue.name, st.tok[0])
                st.ev = st.queue.register_credit_waiter(loop)
                return wait(st.ev, then=1)
            st.ev = event_init("spi-done")
            st.link.send(st.pkt, st.pkt.wire_bytes, st.ev, frame=st.tok[0])
            return wait(st.ev, then=2)
        st.pool.release(st.tok[1])
        st.tok = None
        st.pkt = None
        ctx.resume_point = 0


@coroutine
def _host_compute_body(ctx):
    # remote inference: run the model, send the result back toward the sink
    st = ctx.args
    loop = st.loop
    while True:
        if ctx.resume_point == 0:
            pkt = st.job_ch.try_get()
            if pkt is None:
                return wait(st.job_ch.ready_event, then=0)
            st.frame = pkt.meta
            ctx.resume_point = 1
        if ctx.resume_point == 1:
            if not st.engine.try_acquire():
                return wait(st.engine.free_event, then=1)
            st.trace.emit(loop, Kind.STAGE_START, "inference", st.frame)
            st.ev = sleep_until(loop, loop.now + st.duration_us, "inference")
            return wait(st.ev, then=2)
        if ctx.resume_point == 2:
            st.trace.emit(loop, Kind.STAGE_END, "inference", st.frame)
            st.engine.release()
            ctx.resume_point = 3
        if ctx.resume_point == 3:
            if not st.queue.try_reserve():
                st.trace.emit(loop, Kind.QUEUE_FULL, st.queue.name, st.frame)
                st.ev = st.queue.register_credit_waiter(loop)
                return wait(st.ev, then=3)
            reply = CpxPacket(NODE_IDS["host"], NODE_IDS["stm32"], FUNCTION_APP_STREAM,
                              bytes(st.result_bytes), meta=st.frame)
            st.link.send(reply, reply.wire_bytes, frame=st.frame)
            ctx.resume_point = 0


@coroutine
def _host_echo_body(ctx):
    # bounces timing probes straight back toward the gap8
    st = ctx.args
    while True:
        if ctx.resume_point == 0:
            pkt = st.ping_ch.try_get()
            if pkt is None:
                return wait(st.ping_ch.ready_event, then=0)
            st.frame = pkt.meta
            ctx.resume_point = 1
        if ctx.resume_point == 1:
            if not st.queue.try_reserve():
                st.ev = st.queue.register_credit_waiter(st.loop)
                return wait(st.ev, then=1)
            pong = CpxPacket(NODE_IDS["host"], NODE_IDS["gap8"], FUNCTION_PING,
                             b"", meta=st.frame)
            st.link.send(pong, pong.wire_bytes, frame=st.frame)
            ctx.resume_point = 0


@coroutine
def _rtt_probe_body(ctx):
    # round-trip probes over the full routed path, run on a quiet network
    st = ctx.args
    loop = st.loop
    while True:
        if ctx.resume_point == 0:
            if st.k == st.rounds:
                return done()
            ctx.resume_point = 1
        if ctx.resume_point == 1:
            if not st.queue.try_reserve():
                st.ev = st.queue.register_credit_waiter(loop)
                return wait(st.ev, then=1)
            st.trace.emit(loop, Kind.STAGE_START, "rtt_probe", st.k)
            ping = CpxPacket(NODE_IDS["gap8"], NODE_IDS["host"], FUNCTION_PING,
                             bytes(8), meta=st.k)
            st.link.send(ping, ping.wire_bytes, frame=st.k)
            ctx.resume_point = 2
        if ctx.resume_point == 2:
            pkt = st.pong_ch.try_get()
            if pkt is None:
                return wait(st.pong_ch.ready_event, then=2)
            st.trace.emit(loop, Kind.STAGE_END, "rtt_probe", st.k)
            st.k += 1
            ctx.resume_point = 0


@coroutine
def _serialized_remote_body(ctx):
    # closed-loop lockstep: capture, ship the frame, wait for the sink receipt
    st = ctx.args
    loop = st.loop
    while True:
        if ctx.resume_point == 0:
            if st.n == st.frames:
                return done()
            if st.period:
                st.ev = sleep_until(loop, st.t0 + st.n * st.period, "frame-tick")
                return wait(st.ev, then=1)
            ctx.resume_point = 1
        if ctx.resume_point == 1:
            buf = st.pool.try_acquire()
            if buf is None:
                return wait(st.pool.free_event, then=1)
            st.buf = buf
            st.trace.emit(loop, Kind.STAGE_START, "capture", st.n)
            st.ev = sleep_until(loop, loop.now + st.readout_us, "readout")
            return wait(st.ev, then=2)
        if ctx.resume_point == 2:
            st.trace.emit(loop, Kind.STAGE_END, "capture", st.n)
            st.buf.fill()
            st.buf.make_ready(st.n)
            st.pool.attach(st.buf)
            ctx.resume_point = 3
        if ctx.resume_point == 3:
            if not st.queue.try_reserve():
                st.ev = st.queue.register_credit_waiter(loop)
                return wait(st.ev, then=3)
            pkt = CpxPacket(NODE_IDS["gap8"], NODE_IDS["host"], FUNCTION_APP_STREAM,
                            memoryview(st.buf.data)[:st.nbytes], meta=st.n)
            st.ev = event_init("spi-done")
            st.link.send(pkt, pkt.wire_bytes, st.ev, frame=st.n)
            return wait(st.ev, then=4)
        if ctx.resume_point == 4:
            st.pool.release(st.buf)
            st.buf = None
            st.frame_done = event_init("frame-done")
            st.pending.append(st.frame_done)
            return wait(st.frame_done, then=5)
        st.n += 1
        ctx.resume_point = 0


# --- runners ---------------------------------------------------------------------

def _build_graph(spec: Scenario):
    rng = random.Random(spec.seed)
    graph = NodeGraph(offsets=spec.offsets_us, rng=rng)
    links = {}
    for key in _LINK_KEYS[spec.kind]:
        src, dst, kind = _LINK_EDGES[key]
        links[key] = graph.add_link(key, src, dst, kind, spec.link_cfg(key))
    if "uart_down" in links and "uart_up" not in links:
        # mirror of the result uart, used only by the offset exchange
        cfg = dataclasses.replace(spec.link_cfg("uart_down"), name="uart_up",
                                  injected_delay_us=0, jitter_us=0)
        links["uart_up"] = graph.add_link("uart_up", "stm32", "gap8", "uart", cfg)
    return graph, links


def _estimate_offsets(graph, links, spec):
    """Pairwise two-way exchanges, run before any scenario traffic.

    Clocks are synchronized at setup time: added-latency injection arms only
    after this phase, the way an experiment's delay device sits on the data
    path rather than on the calibration path.
    """
    injected = {key: link.cfg.injected_delay_us for key, link in links.items()}
    for link in links.values():
        link.cfg.injected_delay_us = 0
    rounds = 3
    est = {}
    if spec.kind == "onboard" or spec.kind == "remote":
        est["stm32"] = estimate_clock_offset(graph, "gap8", "stm32", rounds)
    if spec.kind == "stream":
        to_esp = estimate_clock_offset(graph, "gap8", "esp32", rounds)
        to_host = estimate_clock_offset(graph, "esp32", "host", rounds)
        est["esp32"] = to_esp
        est["host"] = to_esp + to_host
    for key, link in links.items():
        link.cfg.injected_delay_us = injected[key]
    return est


def _spawn_camera_producer(spec, graph, pool, out_ch):
    gap8 = graph.loop("gap8")
    cam_cfg = CameraConfig(spec.camera_mode, resolution=spec.resolution,
                           frame_period_us=spec.frame_period_us,
                           readout_us=spec.readout_us,
                           trigger_setup_us=spec.trigger_setup_us)
    cam = Camera(gap8, cam_cfg, graph.trace)
    if spec.camera_mode == TRIGGER:
        rec = _Rec(loop=gap8, cam=cam, pool=pool, out=out_ch, frames=spec.frames,
                   period=spec.frame_period_us, t0=gap8.now, n=0, buf=None, ev=None,
                   trace=graph.trace)
        spawn(gap8, ctx_init(_trigger_producer_body, rec, label="trigger-producer"))
        return None

    def on_frame(buf, seq):
        pool.attach(buf)
        out_ch.put((seq, buf))

    return camera_stream(cam, pool, on_frame, spec.frames)


def _run_onboard(spec: Scenario):
    graph, links = _build_graph(spec)
    gap8 = graph.loop("gap8")
    stm32 = graph.loop("stm32")
    offsets = _estimate_offsets(graph, links, spec)

    pool = pool_create(gap8, spec.pool_size, spec.frame_bytes)
    uart = links["uart_down"]

    uart.rx.consume(_sink(graph.trace, stm32))

    if spec.mode == SERIALIZED:
        rec = _Rec(loop=gap8, pool=pool, uart=uart, trace=graph.trace,
                   frames=spec.frames, period=spec.frame_period_us, t0=gap8.now,
                   readout_us=spec.readout_us, inference_us=spec.inference_us,
                   result_bytes=spec.result_bytes, n=0, buf=None, ev=None)
        spawn(gap8, ctx_init(_serialized_onboard_body, rec, label="serialized"))
        loop_run(gap8)
    else:
        frame_ch = Channel(gap8, "frames")
        engine = ResourceBusy(gap8, "cluster")
        inf = _Rec(loop=gap8, in_ch=frame_ch, engine=engine, pool=pool, uart=uart,
                   duration_us=spec.inference_us, result_bytes=spec.result_bytes,
                   trace=graph.trace, tok=None, ev=None)
        spawn(gap8, ctx_init(_onboard_inference_body, inf, label="inference"))
        _spawn_camera_producer(spec, graph, pool, frame_ch)
        loop_run(gap8)

    metrics = compute_metrics(
        graph.trace, offset_us=offsets.get("stm32", 0.0),
        inference_hz=spec.inference_hz, steady_start_frame=spec.steady_start_frame,
        offsets_estimated_us=offsets)
    return graph.trace, metrics


def _attach_router(spec, graph, links):
    router = Router(graph, mode=spec.router_mode, queue_capacity=spec.queue_capacity,
                    copy_ns_per_byte=spec.copy_ns_per_byte)
    router.attach_interface("wifi", in_link=links["wifi_down"], out_link=links["wifi_up"],
                            destinations=(NODE_IDS["host"],))
    router.attach_interface("spi", in_link=links["spi_up"], out_link=links["spi_down"],
                            destinations=(NODE_IDS["gap8"], NODE_IDS["stm32"]))
    return router


def _run_remote(spec: Scenario):
    graph, links = _build_graph(spec)
    gap8, host, stm32 = graph.loop("gap8"), graph.loop("host"), graph.loop("stm32")
    offsets = _estimate_offsets(graph, links, spec)
    router = _attach_router(spec, graph, links)

    pool = pool_create(gap8, spec.pool_size, spec.frame_bytes)
    wifi_q, spi_q = router.queues["wifi"], router.queues["spi"]

    ping_ch, job_ch, pong_ch = (Channel(host, "pings"), Channel(host, "jobs"),
                                Channel(gap8, "pongs"))
    uart = links["uart_down"]

    def host_rx(msg):
        # demultiplexes traffic arriving at the host over wifi
        pkt = msg.payload
        (ping_ch if pkt.function == FUNCTION_PING else job_ch).put(pkt)

    def gap8_relay(msg):
        # result packets continue over uart to the stm32; probe replies stay local
        pkt = msg.payload
        if pkt.destination == NODE_IDS["stm32"]:
            uart.send(b"", spec.result_bytes, meta=pkt.meta, frame=pkt.meta)
        else:
            pong_ch.put(pkt)

    links["wifi_up"].rx.consume(host_rx)
    spawn(host, ctx_init(_host_compute_body,
                         _Rec(loop=host, job_ch=job_ch, engine=ResourceBusy(host, "inference"),
                              duration_us=spec.host_compute_us, queue=spi_q,
                              link=links["wifi_down"], result_bytes=spec.result_bytes,
                              trace=graph.trace, frame=None, ev=None),
                         label="host-compute"))
    spawn(host, ctx_init(_host_echo_body,
                         _Rec(loop=host, ping_ch=ping_ch, queue=spi_q,
                              link=links["wifi_down"], frame=None, ev=None),
                         label="host-echo"))
    links["spi_down"].rx.consume(gap8_relay)

    pending = []
    uart.rx.consume(_sink(graph.trace, stm32,
                          gap8 if spec.mode == SERIALIZED else None, pending))

    if spec.mode == SERIALIZED:
        rec = _Rec(loop=gap8, pool=pool, queue=wifi_q, link=links["spi_up"],
                   trace=graph.trace, frames=spec.frames, period=spec.frame_period_us,
                   t0=gap8.now, readout_us=spec.readout_us, nbytes=spec.frame_bytes,
                   pending=pending, n=0, buf=None, ev=None, frame_done=None)
        spawn(gap8, ctx_init(_serialized_remote_body, rec, label="serialized"))
        loop_run(gap8)
    else:
        frame_ch = Channel(gap8, "frames")
        spawn(gap8, ctx_init(_image_sender_body,
                             _Rec(loop=gap8, in_ch=frame_ch, queue=wifi_q,
                                  link=links["spi_up"], pool=pool,
                                  nbytes=spec.frame_bytes, trace=graph.trace,
                                  tok=None, pkt=None, ev=None),
                             label="image-tx"))
        _spawn_camera_producer(spec, graph, pool, frame_ch)
        loop_run(gap8)

    if spec.rtt_probe_rounds:
        spawn(gap8, ctx_init(_rtt_probe_body,
                             _Rec(loop=gap8, queue=wifi_q, link=links["spi_up"],
                                  pong_ch=pong_ch, rounds=spec.rtt_probe_rounds,
                                  trace=graph.trace, k=0, ev=None),
                             label="rtt-probe"))
        loop_run(gap8)

    metrics = compute_metrics(
        graph.trace, offset_us=offsets.get("stm32", 0.0),
        inference_hz=spec.inference_hz, steady_start_frame=spec.steady_start_frame,
        offsets_estimated_us=offsets)
    return graph.trace, metrics


@coroutine
def _fill_producer_body(ctx):
    # free-running frame source: fill each buffer for the capture time
    st = ctx.args
    loop = st.loop
    while True:
        if ctx.resume_point == 0:
            if st.n == st.frames:
                return done()
            buf = st.pool.try_acquire()
            if buf is None:
                return wait(st.pool.free_event, then=0)
            st.buf = buf
            st.trace.emit(loop, Kind.STAGE_START, "capture", st.n)
            st.ev = sleep_until(loop, loop.now + st.readout_us, "fill")
            return wait(st.ev, then=1)
        st.trace.emit(loop, Kind.STAGE_END, "capture", st.n)
        st.buf.fill()
        st.buf.make_ready(st.n)
        st.pool.attach(st.buf)
        st.out.put((st.n, st.buf))
        st.buf = None
        st.n += 1
        ctx.resume_point = 0


def _run_stream(spec: Scenario):
    graph, links = _build_graph(spec)
    gap8, host = graph.loop("gap8"), graph.loop("host")
    offsets = _estimate_offsets(graph, links, spec)
    router = _attach_router(spec, graph, links)

    pool = pool_create(gap8, spec.pool_size, spec.frame_bytes)
    frame_ch = Channel(gap8, "frames")
    links["wifi_up"].rx.consume(_sink(graph.trace, host))
    spawn(gap8, ctx_init(_image_sender_body,
                         _Rec(loop=gap8, in_ch=frame_ch, queue=router.queues["wifi"],
                              link=links["spi_up"], pool=pool, nbytes=spec.frame_bytes,
                              trace=graph.trace, tok=None, pkt=None, ev=None),
                         label="image-tx"))
    spawn(gap8, ctx_init(_fill_producer_body,
                         _Rec(loop=gap8, pool=pool, out=frame_ch, frames=spec.frames,
                              readout_us=spec.readout_us, trace=graph.trace,
                              n=0, buf=None, ev=None),
                         label="fill-producer"))
    loop_run(gap8)

    metrics = compute_metrics(
        graph.trace, offset_us=offsets.get("host", 0.0),
        inference_hz=spec.inference_hz, steady_start_frame=spec.steady_start_frame,
        offsets_estimated_us=offsets)
    return graph.trace, metrics


def run_scenario(spec: Scenario):
    """Run a scenario to completion; returns (trace, metrics), deterministic per seed."""
    if spec.kind == "onboard":
        return _run_onboard(spec)
    if spec.kind == "remote":
        return run_remote_scenario(spec)
    return _run_stream(spec)


def run_remote_scenario(spec: Scenario):
    if spec.kind != "remote":
        raise ConfigError(f"scenario {spec.name!r} is not a remote scenario")
    return _run_remote(spec)


def expected_period_us(spec: Scenario) -> int:
    """Closed-form steady-state period for the scenario's configuration.

    Builds the scenario's stage list and takes the ``analytic_oracle`` period
    of it, never faster than the camera pacing. Covers onboard runs in both
    modes and pipelined remote/stream runs; the reply-path legs of a remote
    loop are assumed non-binding (they move a few bytes). Raises
    OracleUnavailable for shapes outside the closed form.
    """
    wire = spec.frame_bytes + 4
    if spec.pool_size == 1 and spec.mode == PIPELINED and spec.rate_hz is not None:
        raise OracleUnavailable(
            "no closed form for a camera-paced pipeline with a single buffer")
    if spec.kind == "onboard":
        uart = spec.link_cfg("uart_down").serialization_us(spec.result_bytes)
        stages = [spec.readout_us, spec.inference_us, uart]
    else:
        if spec.mode == SERIALIZED:
            raise OracleUnavailable("no closed form for a serialized remote loop")
        spi = spec.link_cfg("spi_up").serialization_us(wire)
        wifi = spec.link_cfg("wifi_up").serialization_us(wire)
        stages = [spec.readout_us, spi, wifi]
        if spec.router_mode == BASELINE:
            copy_us = math.ceil(spec.frame_bytes * spec.copy_ns_per_byte / 1000.0)
            stages = [spec.readout_us, spi + copy_us + wifi]
        if spec.kind == "remote":
            stages.append(spec.host_compute_us)
    return max(analytic_oracle(stages, spec.mode, spec.pool_size), spec.frame_period_us)
