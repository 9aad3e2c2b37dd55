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
import operator
import os
import pathlib
import random
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from .coro import YIELD, guard, loop_run, spawn_task
from .cpx import (BASELINE, FUNCTION_APP_STREAM, HEADER_BYTES, NODE_IDS, ROUTER_MODES,
                  ZEROCOPY, CpxPacket, Router, estimate_clock_offset, reserve)
from .errors import ConfigError, MetricsError, OracleUnavailable
from .oracle import analytic_oracle
from .pipeline import (MODES, PIPELINED, SERIALIZED, Channel, acquire, grab, next_frame,
                       pool_create, spawn_chain, stage, take)
from .trace import Kind, TraceLog
from .vnode import (DEFAULT_TRIGGER_SETUP_US, LINKS, NODE_NAMES, STREAMING,
                    STREAMING_MIN_PERIOD_US, TRIGGER, LinkConfig, NodeGraph, trigger_capture_us)

FUNCTION_PING = 6

PLATFORM_MEMORY_BYTES = 8 * 2**20     # the AI-deck's HyperRAM, the most memory on board
OFFSET_ROUNDS = 3       # two-way exchanges per offset hop (_estimate_offsets)

# Each kind's links, in build order, and its offset exchange as (out, back)
# link pairs, one per hop from the capture node to the sink's node; the sum
# over the hops corrects the latencies.
_KIND_LINKS = {
    "onboard": (("uart_down",), (("uart_down", "uart_up"),)),
    "remote": (("spi_up", "spi_down", "wifi_up", "wifi_down", "uart_down"),
               (("uart_down", "uart_up"),)),
    "stream": (("spi_up", "spi_down", "wifi_up", "wifi_down"),
               (("spi_up", "spi_down"), ("wifi_up", "wifi_down"))),
}


def _int_min(least):
    return (lambda v: type(v) is int and v >= least), f"an int >= {least}"


def _or_null(rule):
    check, what = rule
    return (lambda v: v is None or check(v)), f"{what} or null"


_INT = (lambda v: type(v) is int, "an int")
_STR = (lambda v: type(v) is str, "a string")
_OBJECT = (lambda v: type(v) is dict, "a JSON object")
_POSITIVE = (lambda v: type(v) in (int, float) and 0 < v <= sys.float_info.max,
             "a number > 0 that a float holds")
_NON_NEGATIVE = (lambda v: type(v) in (int, float) and 0 <= v <= sys.float_info.max,
                 "a number >= 0 that a float holds")

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
    "links": {"bandwidth_bps": _int_min(1), "base_latency_us": _int_min(0),
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
    trigger_setup_us: int = DEFAULT_TRIGGER_SETUP_US
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
        if self.kind not in _KIND_LINKS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.router_mode not in ROUTER_MODES:
            raise ConfigError(f"unknown router mode {self.router_mode!r}")
        if self.frames < 50:
            raise ConfigError("steady-state metrics need a run length of >= 50 frames")
        if self.pool_size < 1:
            raise ConfigError("pool_size must be >= 1")
        for what, n in (("pool_size x frame bytes", self.pool_size * max(self.frame_bytes, 1)),
                        ("result_bytes", self.result_bytes)):
            _require(n <= PLATFORM_MEMORY_BYTES,
                     f"{what} = {n} B exceeds the {PLATFORM_MEMORY_BYTES} B of platform memory")
        if self.kind == "stream":
            if self.mode != PIPELINED:
                raise ConfigError("stream scenarios only run pipelined")
            if self.rate_hz is not None:
                raise ConfigError("stream scenarios free-run; rate_hz is not supported")
        elif self.rate_hz is None:
            raise ConfigError(f"{self.kind} scenarios need a rate_hz pacing value")
        _require(isinstance(self.links, dict), "links must be a JSON object")
        built = _KIND_LINKS[self.kind][0]
        unused = set(self.links) - set(built)
        _require(not unused, f"{self.kind} scenarios build no links {sorted(unused)}")
        for key in built:
            if key not in self.links:
                raise ConfigError(f"scenario {self.name!r} is missing link {key!r}")
        for key, raw in self.links.items():
            _check_fields(f"links.{key}", raw, _FIELDS["links"])
            _require("bandwidth_bps" in raw, f"link {key!r} is missing 'bandwidth_bps'")
        _require(self.rate_hz is None or 1e6 / self.rate_hz < math.inf,
                 f"rate_hz {self.rate_hz} gives no frame period")
        _require(self.time_ceiling_us < 2**62,      # trace times are 64-bit: stay well inside
                 "a run of this scenario could reach 2**62 us of virtual time")
        if self.rate_hz is not None:
            period = self.frame_period_us
            if self.camera_mode == TRIGGER:
                # a capture that takes no time sets no ceiling
                ceiling = 1e6 / self.capture_us if self.capture_us else math.inf
                if self.rate_hz > ceiling + 1e-9:
                    raise ConfigError(
                        f"trigger rate {self.rate_hz} Hz above the camera ceiling "
                        f"{ceiling:.2f} Hz")
            elif self.readout_us > period:
                raise ConfigError("readout does not fit the requested frame period")
            elif self.mode == PIPELINED and period < STREAMING_MIN_PERIOD_US:
                # the pipelined producer free-runs the sensor at this period
                raise ConfigError(
                    f"streaming period {period} us below the {STREAMING_MIN_PERIOD_US} us "
                    f"(150 frame/s) sensor ceiling")

    @property
    def frame_period_us(self) -> int:
        if self.rate_hz is None:
            return 0
        return round(1e6 / self.rate_hz)

    @property
    def time_ceiling_us(self) -> int:
        """A bound on the |time| of any record: each offset exchange, frame and
        RTT probe takes at most the period, every stage, two baseline copies of the
        largest message and two crossings of each built link with it; add the largest |offset|."""
        built, hops = _KIND_LINKS[self.kind]
        nbytes = max(self.frame_bytes, self.result_bytes, 8) + HEADER_BYTES
        num, den = self.copy_ns_per_byte.as_integer_ratio()     # exact: no float overflow
        cost = (self.frame_period_us + self.capture_us + self.inference_us
                + self.host_compute_us + 2 * -(-nbytes * num // (den * 1000)))
        for cfg in map(self.link_cfg, built):
            cost += 2 * (cfg.base_latency_us + cfg.injected_delay_us + cfg.jitter_us
                         + cfg.serialization_us(nbytes))
        rounds = OFFSET_ROUNDS * len(hops) + self.frames + self.rtt_probe_rounds
        return rounds * cost + max(map(abs, self.offsets_us.values()), default=0)

    @property
    def capture_us(self) -> int:
        """How long one capture takes: a trigger camera sets up, then reads out
        (``vnode.trigger_capture_us``)."""
        if self.camera_mode == TRIGGER:
            return trigger_capture_us(self.trigger_setup_us, self.readout_us, self.frame_bytes)
        return self.readout_us

    @property
    def frame_bytes(self) -> int:
        if self.image_bytes is not None:
            return self.image_bytes
        return self.resolution[0] * self.resolution[1]

    def link_cfg(self, key: str) -> LinkConfig:
        # link entry fields are LinkConfig fields
        return LinkConfig(name=key, **self.links[key])


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


def _read_scenario_file(path: pathlib.Path) -> dict:
    """The JSON object in ``path``, with a checked name, aliases and description."""
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:    # missing, a directory, not JSON, not text
        raise ConfigError(f"unreadable scenario file {path}: {exc}") from exc
    _require(isinstance(raw, dict) and "name" in raw,
             f"scenario file {path} is not a JSON object with a 'name'")
    for key in ("name", "aliases", "description"):
        check, what = _FIELDS["scenario"][key]
        if key in raw and not check(raw[key]):
            raise ConfigError(f"scenario file {path}: {key} must be {what}, got {raw[key]!r}")
    return raw


def list_scenarios() -> list:
    """(name, aliases, description) for every fixture in the scenario dir."""
    out = []
    for path in sorted(fixture_dir().glob("*.json")):
        raw = _read_scenario_file(path)
        out.append((raw["name"], tuple(raw.get("aliases", ())),
                    raw.get("description", "")))
    return out


def load_scenario(name_or_path) -> Scenario:
    path = pathlib.Path(name_or_path)
    if path.suffix == ".json" or path.is_file():     # a directory never shadows a name
        return scenario_from_dict(_read_scenario_file(path))
    for fixture in sorted(fixture_dir().glob("*.json")):
        raw = _read_scenario_file(fixture)
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


def compute_metrics(trace: TraceLog, *, offset_us: float = 0.0,
                    inference_hz: Optional[float] = None, steady_start_frame: int = 10,
                    offsets_estimated_us: Optional[dict] = None) -> Metrics:
    """Steady-state throughput and latency from sink receipts in the trace.

    ``offset_us`` is the estimated clock offset of the sink's node relative to
    the capture node and is subtracted from every per-frame latency.
    """
    frames, times = trace.columns(Kind.STAGE_END, "sink")
    # in (frame, t) order; only strictly increasing frames are sure to be in
    # it already, as a frame's receipts on two nodes need not be in time order
    if any(map(operator.ge, frames, frames[1:])):
        frames, times = zip(*sorted(zip(frames, times)))
    first = bisect_left(frames, steady_start_frame)
    steady = len(frames) - first
    if steady < 10:
        raise MetricsError(
            f"only {steady} steady-state receipts past frame {steady_start_frame}; "
            f"need at least 10")
    t_first, t_last = times[first], times[-1]
    if t_last == t_first:
        raise MetricsError("empty steady-state window")
    closed_loop_hz = (steady - 1) / ((t_last - t_first) / 1e6)

    starts = dict(zip(*trace.columns(Kind.STAGE_START, "capture")))
    lat = [t - starts[f] - offset_us for f, t in zip(frames[first:], times[first:]) if f in starts]
    e2e_mean = e2e_p95 = None
    if lat:
        e2e_mean = (sum(lat) / len(lat)) / 1000.0
        e2e_p95 = _p95(lat) / 1000.0

    drop_pct = None
    if inference_hz:
        drop_pct = (1.0 - closed_loop_hz / inference_hz) * 100.0
        if not -2.0 <= drop_pct <= 100.0:
            raise MetricsError(f"drop_pct {drop_pct:.3f} outside [-2, 100]")

    rtt_starts = dict(zip(*trace.columns(Kind.STAGE_START, "rtt_probe")))
    rtt_ends = dict(zip(*trace.columns(Kind.STAGE_END, "rtt_probe")))
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
        frames_dropped=trace.count(Kind.DROP, "capture"),
        steady_receipts=steady,
        steady_start_frame=steady_start_frame,
        offset_us_applied=offset_us,
        offsets_estimated_us=dict(offsets_estimated_us or {}),
    )


# --- task steps and channel handlers -----------------------------------------------
# A task's t.frame is the frame (or probe round) it works on. Channels between
# tasks carry (frame, buffer) pairs; on the host the "buffer" is the packet.

def _sink(trace, loop, receipts=None):
    """Channel handler of the zero-duration control sink: records each result
    frame, and puts it on ``receipts`` for a loop that waits for it."""
    start, end = (trace.key(loop.name, kind, "sink") for kind in (Kind.STAGE_START, Kind.STAGE_END))

    def receive(msg):
        frame = msg.frame
        trace.record(loop, start, frame)
        trace.record(loop, end, frame)
        if receipts is not None:
            receipts.put(frame)
    return receive


def _behind_ready(t):
    return YIELD


def _send_result(t):
    t.link.send(b"", t.nbytes, frame=t.frame)


def _result_out(t):
    # serialized onboard: the next frame waits for the result's last byte
    return t.link.free_at + t.loop.offset_us


def _send_image(t):
    # the payload is the whole buffer, t.nbytes long: the pool's capacity
    pkt = CpxPacket(NODE_IDS["gap8"], NODE_IDS["host"], FUNCTION_APP_STREAM, t.buf.view, t.frame)
    return t.link.send(pkt, HEADER_BYTES + t.nbytes, frame=t.frame)


@guard
def _receipt(t):
    # serialized remote: the next frame waits for this one's sink receipt
    if t.receipts.try_get() is None:
        return t.receipts.ready_event


def _send_reply(t):
    # host side: the inference result toward the stm32, or a probe's pong
    dst, function, payload = t.reply
    pkt = CpxPacket(NODE_IDS["host"], NODE_IDS[dst], function, payload, t.frame)
    t.link.send(pkt, HEADER_BYTES + len(payload), frame=t.frame)


def _ping(t):
    t.trace.emit(t.loop, Kind.STAGE_START, "rtt_probe", t.frame)
    ping = CpxPacket(NODE_IDS["gap8"], NODE_IDS["host"], FUNCTION_PING, bytes(8), t.frame)
    t.link.send(ping, HEADER_BYTES + len(ping.payload), frame=t.frame)


def _ponged(t):
    t.trace.emit(t.loop, Kind.STAGE_END, "rtt_probe", t.frame)
    t.frame += 1


# --- runners ---------------------------------------------------------------------
# A runner wires a kind's links, router, host tasks and handlers, the same in
# both modes, and describes its gap8 side once, as a chain (``_spawn_gap8``);
# only ``pipeline.spawn_chain`` turns that into serialized or pipelined tasks.

def _build_graph(spec: Scenario) -> NodeGraph:
    """The kind's links; a hop's back link that the kind does not build mirrors
    its out link, with no injected delay or jitter, for the offset exchange."""
    graph = NodeGraph(offsets=spec.offsets_us, rng=random.Random(spec.seed))
    built, hops = _KIND_LINKS[spec.kind]
    for key in built:
        graph.add_link(key, *LINKS[key], spec.link_cfg(key))
    for out, back in hops:
        if back not in graph.links:
            cfg = dataclasses.replace(spec.link_cfg(out), name=back, injected_delay_us=0,
                                      jitter_us=0)
            graph.add_link(back, *LINKS[back], cfg)
    return graph


def _estimate_offsets(graph, spec):
    """Two-way exchanges over the kind's offset hops, one by one, run before
    any scenario traffic; each node's estimate adds up the hops before it.
    Returns the estimates by node and the sink node's.

    Clocks are synchronized at setup time: added-latency injection arms only
    after this phase, the way an experiment's delay device sits on the data
    path rather than on the calibration path.
    """
    links = graph.links
    injected = {key: link.cfg.injected_delay_us for key, link in links.items()}
    for link in links.values():
        link.cfg.injected_delay_us = 0
    est, total = {}, 0
    for out, back in _KIND_LINKS[spec.kind][1]:
        total += estimate_clock_offset(links[out], links[back], rounds=OFFSET_ROUNDS)
        est[links[out].dst.name] = total
    for key, link in links.items():
        link.cfg.injected_delay_us = injected[key]
    return est, total


def _spawn_gap8(spec, loop, label, work, close, source=None, **fields):
    """Spawn the gap8 side of a closed loop (``spawn_chain``): ``source`` fills
    each frame's buffer, then the task ``label`` runs ``work`` on it, and a
    serialized loop waits for ``close`` before its next frame.

    The default source is the paced camera: each frame waits for its start,
    takes a Free buffer or is dropped (``grab``), and is captured. A trigger
    camera signals the end of a capture, and the loop takes that signal
    behind the tasks already ready at the instant; a capture that takes no
    time is over before the loop would wait for it. Serialized, nothing else
    is ready on gap8 at the end of a capture, as the frame before is already
    received, so the signal changes nothing there.
    """
    if source is None:
        signal = [_behind_ready] if spec.camera_mode == TRIGGER and spec.capture_us else []
        source = [next_frame, grab, *stage(fields["trace"], loop, "capture", spec.capture_us),
                  *signal]
        fields.update(period=spec.frame_period_us, t0=loop.now)
    spawn_chain(loop, spec.mode, source, [work], close, labels=("camera", label),
                pool=pool_create(loop, spec.pool_size, spec.frame_bytes),
                frames=spec.frames, **fields)


def _run_onboard(spec: Scenario, graph):
    gap8, uart = graph.loop("gap8"), graph.links["uart_down"]
    uart.rx.consume(_sink(graph.trace, graph.loop("stm32")))
    # The result is sent before the buffer is freed. Pipelined, either order
    # gives the same run: the paced camera never waits on the pool (``grab``
    # drops the frame instead) and a release records nothing. Serialized, the
    # buffer is freed before the wait for the result's last byte, which is the
    # same too, as the loop's one task is the pool's only user.
    _spawn_gap8(spec, gap8, "inference",
                [*stage(graph.trace, gap8, "inference", spec.inference_us), _send_result],
                [_result_out], link=uart, trace=graph.trace, nbytes=spec.result_bytes)
    loop_run(gap8)


def _attach_router(spec, graph):
    links = graph.links
    router = Router(graph, mode=spec.router_mode, queue_capacity=spec.queue_capacity,
                    copy_ns_per_byte=spec.copy_ns_per_byte)
    router.attach_interface("wifi", in_link=links["wifi_down"], out_link=links["wifi_up"],
                            destinations=(NODE_IDS["host"],))
    router.attach_interface("spi", in_link=links["spi_up"], out_link=links["spi_down"],
                            destinations=(NODE_IDS["gap8"], NODE_IDS["stm32"]))
    return router


def _run_remote(spec: Scenario, graph):
    gap8, host, stm32 = graph.loop("gap8"), graph.loop("host"), graph.loop("stm32")
    links = graph.links
    router = _attach_router(spec, graph)

    wifi_q, spi_q = router.queues["wifi"], router.queues["spi"]

    ping_ch, job_ch, pong_ch = (Channel(host, "pings"), Channel(host, "jobs"),
                                Channel(gap8, "pongs"))
    uart = links["uart_down"]

    def host_rx(msg):
        # demultiplexes traffic arriving at the host over wifi
        pkt = msg.payload
        (ping_ch if pkt.function == FUNCTION_PING else job_ch).put((pkt.meta, pkt))

    def gap8_relay(msg):
        # result packets continue over uart to the stm32; probe replies stay local
        pkt = msg.payload
        if pkt.destination == NODE_IDS["stm32"]:
            uart.send(b"", spec.result_bytes, frame=pkt.meta)
        else:
            pong_ch.put((pkt.meta, pkt))

    links["wifi_up"].rx.consume(host_rx)
    host_fields = dict(queue=spi_q, link=links["wifi_down"], trace=graph.trace,
                       frame=None, buf=None)
    spawn_task(host, "host-compute",
               [take, *stage(graph.trace, host, "inference", spec.host_compute_us), reserve,
                _send_reply], inbox=job_ch,
               reply=("stm32", FUNCTION_APP_STREAM, bytes(spec.result_bytes)), **host_fields)
    spawn_task(host, "host-echo", [take, reserve, _send_reply], inbox=ping_ch,
               reply=("gap8", FUNCTION_PING, b""), **host_fields)
    links["spi_down"].rx.consume(gap8_relay)

    # only a serialized loop waits for its frames' receipts
    receipts = Channel(gap8, "receipts") if spec.mode == SERIALIZED else None
    uart.rx.consume(_sink(graph.trace, stm32, receipts))
    _spawn_gap8(spec, gap8, "image-tx", [reserve, _send_image], [_receipt], queue=wifi_q,
                link=links["spi_up"], trace=graph.trace, nbytes=spec.frame_bytes,
                receipts=receipts)
    loop_run(gap8)

    if spec.rtt_probe_rounds:
        spawn_task(gap8, "rtt-probe", [next_frame, reserve, _ping, take, _ponged],
                   queue=wifi_q, link=links["spi_up"], inbox=pong_ch,
                   frames=spec.rtt_probe_rounds, period=0, trace=graph.trace,
                   frame=0, buf=None)
        loop_run(gap8)


def _run_stream(spec: Scenario, graph):
    gap8, links = graph.loop("gap8"), graph.links
    router = _attach_router(spec, graph)
    links["wifi_up"].rx.consume(_sink(graph.trace, graph.loop("host")))
    # free-running frame source: fill each buffer for the capture time
    _spawn_gap8(spec, gap8, "image-tx", [reserve, _send_image], (),
                [acquire, *stage(graph.trace, gap8, "capture", spec.capture_us)],
                queue=router.queues["wifi"],
                link=links["spi_up"], trace=graph.trace, nbytes=spec.frame_bytes)
    loop_run(gap8)


_RUNNERS = {"onboard": _run_onboard, "remote": _run_remote, "stream": _run_stream}


def run_scenario(spec: Scenario):
    """Run a scenario to completion; returns (trace, metrics), deterministic per seed."""
    graph = _build_graph(spec)
    offsets, sink_offset = _estimate_offsets(graph, spec)
    _RUNNERS[spec.kind](spec, graph)
    metrics = compute_metrics(
        graph.trace, offset_us=sink_offset,
        inference_hz=spec.inference_hz, steady_start_frame=spec.steady_start_frame,
        offsets_estimated_us=offsets)
    return graph.trace, metrics


def expected_period_us(spec: Scenario) -> int:
    """Closed-form steady-state period for the scenario's configuration.

    Builds the scenario's stage list and takes the ``analytic_oracle`` period
    of it, never faster than the camera pacing. Covers onboard runs in both
    modes and pipelined remote/stream runs; the reply-path legs of a remote
    loop are assumed non-binding (they move a few bytes). Raises
    OracleUnavailable for shapes outside the closed form.
    """
    wire = spec.frame_bytes + HEADER_BYTES
    if spec.pool_size == 1 and spec.mode == PIPELINED and spec.rate_hz is not None:
        raise OracleUnavailable(
            "no closed form for a camera-paced pipeline with a single buffer")
    if spec.kind == "onboard":
        uart = spec.link_cfg("uart_down").serialization_us(spec.result_bytes)
        stages = [spec.capture_us, spec.inference_us, uart]
    else:
        if spec.mode == SERIALIZED:
            raise OracleUnavailable("no closed form for a serialized remote loop")
        spi = spec.link_cfg("spi_up").serialization_us(wire)
        wifi = spec.link_cfg("wifi_up").serialization_us(wire)
        stages = [spec.capture_us, spi, wifi]
        if spec.router_mode == BASELINE:
            copy_us = math.ceil(spec.frame_bytes * spec.copy_ns_per_byte / 1000.0)
            stages = [spec.capture_us, spi + copy_us + wifi]
        if spec.kind == "remote":
            stages.append(spec.host_compute_us)
    return max(analytic_oracle(stages, spec.mode, spec.pool_size), spec.frame_period_us)
