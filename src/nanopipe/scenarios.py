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

from .coro import RESTART, event_init, loop_run, schedule_completion, spawn_task
from .cpx import (BASELINE, FUNCTION_APP_STREAM, NODE_IDS, ROUTER_MODES, ZEROCOPY,
                  CpxPacket, Router, estimate_clock_offset, reserve)
from .errors import ConfigError, MetricsError, OracleUnavailable
from .oracle import analytic_oracle
from .pipeline import (MODES, PIPELINED, SERIALIZED, Channel, acquire, next_frame, pool_create,
                       retire, take)
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
        unused = set(self.links) - set(_LINK_KEYS[self.kind])
        _require(not unused, f"{self.kind} scenarios build no links {sorted(unused)}")
        for key in _LINK_KEYS[self.kind]:
            if key not in self.links:
                raise ConfigError(f"scenario {self.name!r} is missing link {key!r}")
        for key, raw in self.links.items():
            _check_fields(f"links.{key}", raw, _FIELDS["links"])
            _require("bandwidth_bps" in raw, f"link {key!r} is missing 'bandwidth_bps'")
        if self.rate_hz is not None:
            _require(1e6 / self.rate_hz < math.inf, f"rate_hz {self.rate_hz} gives no frame period")
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
    if path.suffix == ".json" or path.exists():
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


# --- task steps and channel handlers -----------------------------------------------
# A task's t.frame is the frame (or probe round) it works on. Channels between
# tasks carry (frame, buffer) pairs; on the host the "buffer" is the packet.

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


def _trigger(t):
    # paced single-shot capture request; a tick that finds no Free buffer drops
    buf = t.pool.try_acquire()
    if buf is None:
        t.trace.emit(t.loop, Kind.DROP, "capture", t.frame)
        t.frame += 1
        return RESTART
    t.buf = buf
    ev = event_init("capture-done")
    camera_capture(t.cam, buf, t.frame, ev)
    return ev


def _triggered(t):
    t.pool.attach(t.buf)
    for ch in t.outs:
        ch.put((t.frame, t.buf))
    t.frame += 1


def _capture(t):
    t.trace.emit(t.loop, Kind.STAGE_START, "capture", t.frame)
    return t.loop.now + t.readout_us


def _captured(t):
    # readout done: the frame is Ready and this task holds it
    t.trace.emit(t.loop, Kind.STAGE_END, "capture", t.frame)
    t.buf.fill()
    t.buf.make_ready(t.frame)
    t.pool.attach(t.buf)


def _filled(t):
    # _captured, then the frame goes on to the next task
    t.trace.emit(t.loop, Kind.STAGE_END, "capture", t.frame)
    t.buf.fill()
    t.buf.make_ready(t.frame)
    t.pool.attach(t.buf)
    for ch in t.outs:
        ch.put((t.frame, t.buf))
    t.frame += 1


def _infer(t):
    t.trace.emit(t.loop, Kind.STAGE_START, "inference", t.frame)
    return t.loop.now + t.compute_us


def _inferred(t):
    t.trace.emit(t.loop, Kind.STAGE_END, "inference", t.frame)


def _report(t):
    # pipelined onboard: free the image, send the result over the uart
    _inferred(t)
    t.pool.release(t.buf)
    t.link.send(b"", t.nbytes, meta=t.frame, frame=t.frame)


def _report_and_wait(t):
    # serialized onboard: the result must be out before the image is freed
    _inferred(t)
    return t.link.send(b"", t.nbytes, meta=t.frame, frame=t.frame)


def _send_image(t):
    pkt = CpxPacket(NODE_IDS["gap8"], NODE_IDS["host"], FUNCTION_APP_STREAM,
                    memoryview(t.buf.data)[:t.nbytes], meta=t.frame)
    return t.link.send(pkt, pkt.wire_bytes, frame=t.frame)


def _await_receipt(t):
    # serialized remote: the next frame waits for this one's sink receipt
    ev = event_init("frame-done")
    t.pending.append(ev)
    return ev


def _send_reply(t):
    # host side: the inference result toward the stm32, or a probe's pong
    dst, function = t.reply
    pkt = CpxPacket(NODE_IDS["host"], NODE_IDS[dst], function, bytes(t.nbytes), meta=t.frame)
    t.link.send(pkt, pkt.wire_bytes, frame=t.frame)


def _ping(t):
    t.trace.emit(t.loop, Kind.STAGE_START, "rtt_probe", t.frame)
    ping = CpxPacket(NODE_IDS["gap8"], NODE_IDS["host"], FUNCTION_PING, bytes(8), meta=t.frame)
    t.link.send(ping, ping.wire_bytes, frame=t.frame)


def _ponged(t):
    t.trace.emit(t.loop, Kind.STAGE_END, "rtt_probe", t.frame)
    t.frame += 1


# --- runners ---------------------------------------------------------------------

def _build_graph(spec: Scenario):
    rng = random.Random(spec.seed)
    graph = NodeGraph(offsets=spec.offsets_us, rng=rng)
    links = {}
    for key in _LINK_KEYS[spec.kind]:
        src, dst, kind = _LINK_EDGES[key]
        links[key] = graph.add_link(key, src, dst, kind, spec.link_cfg(key))
    if "uart_down" in links:
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
        spawn_task(gap8, "trigger-producer", [next_frame, _trigger, _triggered],
                   cam=cam, pool=pool, outs=[out_ch], frames=spec.frames,
                   period=spec.frame_period_us, t0=gap8.now, frame=0, buf=None,
                   trace=graph.trace)
        return None

    def on_frame(buf, seq):
        pool.attach(buf)
        out_ch.put((seq, buf))

    return camera_stream(cam, pool, on_frame, spec.frames)


def _spawn_image_sender(spec, graph, pool, frame_ch, queue, link):
    # gap8 side of the packet stream: credit-gated spi transmission
    spawn_task(graph.loop("gap8"), "image-tx", [take, reserve, _send_image, retire],
               inbox=frame_ch, queue=queue, link=link, pool=pool, nbytes=spec.frame_bytes,
               trace=graph.trace, frame=None, buf=None)


def _run_onboard(spec: Scenario):
    graph, links = _build_graph(spec)
    gap8 = graph.loop("gap8")
    stm32 = graph.loop("stm32")
    offsets = _estimate_offsets(graph, links, spec)

    pool = pool_create(gap8, spec.pool_size, spec.frame_bytes)
    uart = links["uart_down"]

    uart.rx.consume(_sink(graph.trace, stm32))

    fields = dict(pool=pool, link=uart, trace=graph.trace, compute_us=spec.inference_us,
                  nbytes=spec.result_bytes, frame=0, buf=None)
    if spec.mode == SERIALIZED:
        spawn_task(gap8, "serialized", [next_frame, acquire, _capture, _captured, _infer,
                                        _report_and_wait, retire],
                   frames=spec.frames, period=spec.frame_period_us, t0=gap8.now,
                   readout_us=spec.readout_us, **fields)
    else:
        frame_ch = Channel(gap8, "frames")
        spawn_task(gap8, "inference", [take, _infer, _report], inbox=frame_ch, **fields)
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
        (ping_ch if pkt.function == FUNCTION_PING else job_ch).put((pkt.meta, pkt))

    def gap8_relay(msg):
        # result packets continue over uart to the stm32; probe replies stay local
        pkt = msg.payload
        if pkt.destination == NODE_IDS["stm32"]:
            uart.send(b"", spec.result_bytes, meta=pkt.meta, frame=pkt.meta)
        else:
            pong_ch.put((pkt.meta, pkt))

    links["wifi_up"].rx.consume(host_rx)
    host_fields = dict(queue=spi_q, link=links["wifi_down"], trace=graph.trace,
                       frame=None, buf=None)
    spawn_task(host, "host-compute", [take, _infer, _inferred, reserve, _send_reply],
               inbox=job_ch, compute_us=spec.host_compute_us, reply=("stm32", FUNCTION_APP_STREAM),
               nbytes=spec.result_bytes, **host_fields)
    spawn_task(host, "host-echo", [take, reserve, _send_reply], inbox=ping_ch,
               reply=("gap8", FUNCTION_PING), nbytes=0, **host_fields)
    links["spi_down"].rx.consume(gap8_relay)

    pending = []
    uart.rx.consume(_sink(graph.trace, stm32,
                          gap8 if spec.mode == SERIALIZED else None, pending))

    if spec.mode == SERIALIZED:
        spawn_task(gap8, "serialized", [next_frame, acquire, _capture, _captured, reserve,
                                        _send_image, retire, _await_receipt],
                   pool=pool, queue=wifi_q, link=links["spi_up"], trace=graph.trace,
                   frames=spec.frames, period=spec.frame_period_us, t0=gap8.now,
                   readout_us=spec.readout_us, nbytes=spec.frame_bytes, pending=pending,
                   frame=0, buf=None)
    else:
        frame_ch = Channel(gap8, "frames")
        _spawn_image_sender(spec, graph, pool, frame_ch, wifi_q, links["spi_up"])
        _spawn_camera_producer(spec, graph, pool, frame_ch)
    loop_run(gap8)

    if spec.rtt_probe_rounds:
        spawn_task(gap8, "rtt-probe", [next_frame, reserve, _ping, take, _ponged],
                   queue=wifi_q, link=links["spi_up"], inbox=pong_ch,
                   frames=spec.rtt_probe_rounds, period=0, trace=graph.trace,
                   frame=0, buf=None)
        loop_run(gap8)

    metrics = compute_metrics(
        graph.trace, offset_us=offsets.get("stm32", 0.0),
        inference_hz=spec.inference_hz, steady_start_frame=spec.steady_start_frame,
        offsets_estimated_us=offsets)
    return graph.trace, metrics


def _run_stream(spec: Scenario):
    graph, links = _build_graph(spec)
    gap8, host = graph.loop("gap8"), graph.loop("host")
    offsets = _estimate_offsets(graph, links, spec)
    router = _attach_router(spec, graph, links)

    pool = pool_create(gap8, spec.pool_size, spec.frame_bytes)
    frame_ch = Channel(gap8, "frames")
    links["wifi_up"].rx.consume(_sink(graph.trace, host))
    _spawn_image_sender(spec, graph, pool, frame_ch, router.queues["wifi"], links["spi_up"])
    # free-running frame source: fill each buffer for the capture time
    spawn_task(gap8, "fill-producer", [acquire, _capture, _filled], pool=pool, outs=[frame_ch],
               frames=spec.frames, readout_us=spec.readout_us, trace=graph.trace,
               frame=0, buf=None)
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
