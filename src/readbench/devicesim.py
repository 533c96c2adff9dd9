"""Deterministic parametric latency models of storage devices.

Four device classes (spinning disk, SATA SSD, NVMe SSD, ultra-low-latency
SSD) are reduced to a handful of parameters, plus an event-driven completion
scheduler so the read engines get a hardware-free backend.  Everything is
seeded and replayable: identical (model, seed, request sequence) produce
bit-identical latencies.

Model components:

* HDD: a random read pays a distance-proportional seek plus a uniform
  rotational wait plus transfer; a read starting exactly where the previous
  one ended pays transfer only.  Transfer rate falls linearly from the
  outer edge of the platter to the inner edge.
* Solid-state: fixed base latency + per-byte transfer + a jitter draw;
  the SATA class additionally suffers rare long stalls (firmware
  defragmentation pauses).
* parallelism: how many requests the device services concurrently;
  excess submissions queue FIFO.
* bandwidth_limit: a shared transfer channel that serializes the transfer
  portion of concurrent requests, capping aggregate throughput.
* The polled completion path replaces the heavy-tailed jitter draw with a
  uniform draw of the same mean, shrinking the maximum without moving the
  average; base and transfer components are unchanged.  It is a property
  of the state (``SimState.polled``), not of a request.
* Service: ``submit`` only queues a request, and ``advance`` starts queued
  requests on free slots, in one pass over the queue, before it pops the
  next completions.  The clock moves only inside ``advance``, so a request
  starts at the time it would have started at submit, and the draws happen
  in the same order.  The spinning disk picks the queued request with the
  shortest seek, which depends on what is queued at the time, so it starts
  requests inside ``submit`` whenever a slot is free and refills the slots
  that ``advance`` frees before returning.  A caller that counts ready
  completions per tag has one ``advance`` run event after event, with the
  same fill before each, until a tag has as many as it needs.
* Draws: jitter, stall and rotation draws come from one stream per device,
  ``rng.uniform_floats(rng_seed)``, computed in numpy chunks.

Where the compiled loops build, ``engines._simulate`` runs on
``rb_sim_loop`` in ``_hotloop.c``, which makes each operation of this
scheduler in C, in the same order and on the same draws, which it computes
itself from ``rng_seed`` as ``rng.uniform_floats`` does, so it gives the
same completions bit for bit.
This module is then the fallback where there is no C compiler, and the
reference the tests compare the compiled loop with.  Both take a state's
service terms from ``SimState.terms``, derived once when the state is made.
"""

from __future__ import annotations

import heapq
import math
import os
from collections import deque, namedtuple
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterator

from .errors import Backpressure, NoSuchPreset
from .rng import uniform_floats

MODEL_SCHEMA_VERSION = 1

#: heavy-tail jitter is cap * U^HEAVY_TAIL_POWER: mean = cap/(power+1),
#: 99.9th percentile ~ 0.99 * cap, maximum -> cap.  The compiled simulator's
#: fast path for U^power (``_hotloop.c``'s heavy_tail) assumes the value 9;
#: at any other it calls pow, as ``u ** power`` does.
HEAVY_TAIL_POWER = 9


@dataclass(frozen=True)
class DeviceModel:
    kind: str  # hdd | sata-ssd | nvme-ssd | ull | custom
    # spinning-disk parameters
    seek_min_us: float = 0.0
    seek_max_us: float = 0.0
    rotation_period_us: float = 0.0
    outer_rate_bps: float = 0.0
    inner_rate_bps: float = 0.0
    # solid-state parameters
    base_latency_us: float = 0.0
    per_byte_us: float = 0.0
    # shared behavior
    parallelism: int = 1
    jitter_kind: str = "none"  # none | uniform | heavy-tail
    jitter_scale_us: float = 0.0  # mean of the jitter draw
    spike_probability: float = 0.0
    spike_duration_us: float = 0.0
    bandwidth_limit_bps: float = 0.0  # 0 = unlimited
    # degraded start-up window, used to exercise warm-up exclusion
    degraded_until_us: float = 0.0
    degraded_factor: float = 1.0
    rng_seed: int = 1

    def __post_init__(self):
        # a NaN event time never pops, so a run on it would never end
        for f in fields(self):
            if f.type == "float" and not 0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and >= 0")
        if self.seek_min_us > self.seek_max_us:
            raise ValueError("seek_min_us must be <= seek_max_us")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if not 0.0 <= self.spike_probability <= 1.0:
            raise ValueError("spike_probability must be in [0, 1]")
        if self.kind == "hdd" and (self.outer_rate_bps <= 0 or self.inner_rate_bps <= 0):
            raise ValueError("hdd outer_rate_bps and inner_rate_bps must be > 0")
        if self.jitter_kind not in ("none", "uniform", "heavy-tail"):
            raise ValueError(f"unknown jitter_kind {self.jitter_kind!r}")


# Calibrated so a desk-scale simulation lands on the headline figures of
# the device classes: ~12 ms mean random access on the spinning disk with a
# 250 -> 150 MB/s sequential profile, ~140 us 4 KiB reads on SATA flash
# with ~48 ms stall spikes, ~90 us on NVMe flash, and a 12 us floor with a
# 2.3 GB/s ceiling on the ultra-low-latency class.
_PRESETS: dict[str, DeviceModel] = {
    "hdd": DeviceModel(
        kind="hdd",
        seek_min_us=2700.0,
        seek_max_us=14700.0,
        rotation_period_us=8000.0,
        outer_rate_bps=250e6,
        inner_rate_bps=150e6,
        parallelism=1,
    ),
    "sata-ssd": DeviceModel(
        kind="sata-ssd",
        base_latency_us=130.0,
        per_byte_us=1.0 / 560.0,  # 560 MB/s interface burst
        parallelism=32,  # legacy SATA command queue depth
        jitter_kind="heavy-tail",
        jitter_scale_us=2.0,
        spike_probability=1e-4,
        spike_duration_us=48000.0,
        bandwidth_limit_bps=250e6,
    ),
    "nvme-ssd": DeviceModel(
        kind="nvme-ssd",
        base_latency_us=90.0,
        per_byte_us=1.0 / 3200.0,
        parallelism=128,
        jitter_kind="heavy-tail",
        jitter_scale_us=4.0,
        bandwidth_limit_bps=3.2e9,
    ),
    "ull": DeviceModel(
        kind="ull",
        base_latency_us=10.0,
        per_byte_us=1.0 / 2300.0,
        parallelism=16,
        jitter_kind="heavy-tail",
        jitter_scale_us=4.0,
        bandwidth_limit_bps=2.3e9,
    ),
}

_ALIASES = {"ssd": "sata-ssd", "sata": "sata-ssd", "nvme": "nvme-ssd",
            "optane": "ull", "ultra": "ull"}


def preset_model(name: str) -> DeviceModel:
    key = _ALIASES.get(name, name)
    if key not in _PRESETS:
        raise NoSuchPreset(f"no device model preset named {name!r}")
    return _PRESETS[key]


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def save_model(model: DeviceModel, path: str) -> None:
    """Write a model as `key = value` lines."""
    with open(path, "w") as f:
        f.write(f"# readbench device model, schema {MODEL_SCHEMA_VERSION}\n")
        f.write(f"schema = {MODEL_SCHEMA_VERSION}\n")
        for fld in fields(DeviceModel):
            f.write(f"{fld.name} = {getattr(model, fld.name)}\n")


#: the parser of each model-file key: a field's type, or the schema number
_MODEL_KEYS = {"schema": int} | {
    f.name: {"str": str, "int": int, "float": float}[f.type]
    for f in fields(DeviceModel)}


def load_model(path_or_name: str) -> DeviceModel:
    """Resolve a preset name, or parse a key-value model file."""
    try:
        return preset_model(path_or_name)
    except NoSuchPreset:
        pass
    if not os.path.exists(path_or_name):
        raise NoSuchPreset(f"{path_or_name!r} is neither a preset "
                           f"({', '.join(preset_names())}) nor a model file")
    values = read_key_values(path_or_name, _MODEL_KEYS)
    values.pop("schema", None)
    try:
        return DeviceModel(**values)
    except ValueError as exc:  # a refused value names its key
        raise ValueError(f"{path_or_name!r}: {exc}") from exc


def read_key_values(path: str, parsers: dict[str, Callable]) -> dict:
    """``key = value`` lines of a model or plan file, each value through its
    key's parser; ``#`` starts a comment, a later key overrides an earlier
    one, and a key with no parser or a refused value raises ValueError."""
    settings: dict[str, Any] = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in parsers:
                    raise ValueError(f"{path!r}: unknown key {key!r}")
                try:
                    settings[key] = parsers[key](value)
                except ValueError as exc:
                    raise ValueError(
                        f"{path!r}: {key} = {value!r}: {exc}") from exc
    return settings


#: what :func:`_fill_slots` computes with, named as in ``struct rb_sim``;
#: uniform jitter has the heavy tail's mean, and twice it as its maximum
Terms = namedtuple("Terms", (
    "hdd parallelism base per_byte jitter uniform two_scale cap power "
    "spike_p spike_us seek_min seek_span rotation outer rate_span "
    "bandwidth degraded_until degraded_factor"))


#: the longest service one read may take, in us: 2^53 ns keeps every sum of
#: virtual times exact in a double and in an int64 of ns
MAX_SERVICE_US = 2 ** 53 / 1e3


def check_service(terms: Terms, length: int) -> None:
    """Refuse, naming the field, a model that could keep a read of length
    bytes in service beyond MAX_SERVICE_US, so that a run on it would never
    end: its base plus transfer plus the largest jitter and spike it can
    draw, or a disk's longest seek, rotation and transfer, times
    degraded_factor, plus the channel transfer."""
    if terms.hdd:
        slower = "outer_rate_bps" if terms.rate_span > 0 else "inner_rate_bps"
        rate = min(terms.outer, terms.outer + terms.rate_span)  # may round to 0
        parts = {"seek_max_us": terms.seek_min + terms.seek_span,
                 "rotation_period_us": terms.rotation,
                 slower: length / rate * 1e6 if rate > 0 else math.inf}
    else:
        jitter = terms.two_scale if terms.uniform else terms.cap
        parts = {"base_latency_us": terms.base,
                 "per_byte_us": length * terms.per_byte,
                 "jitter_scale_us": jitter if terms.jitter else 0,
                 "spike_duration_us": terms.spike_us if terms.spike_p else 0}
    if terms.degraded_until > 0 and terms.degraded_factor > 1:
        parts["degraded_factor"] = (sum(parts.values())
                                    * (terms.degraded_factor - 1))
    if terms.bandwidth > 0:
        parts["bandwidth_limit_bps"] = length / terms.bandwidth * 1e6
    longest = sum(parts.values())
    if not longest <= MAX_SERVICE_US:
        name = max(parts, key=parts.get)
        raise ValueError(f"{name} lets one {length}-byte read take "
                         f"{longest:.3g} us, more than 2^53 ns")


@dataclass
class SimState:
    """Mutable device state; confine one instance to one scheduler context.
    ``terms`` is derived once: ``polled`` is set for a run, never after."""

    model: DeviceModel
    capacity: int
    polled: bool = False  # every read takes the polled completion path
    draws: Iterator[float] = field(init=False)  # rng.uniform_floats
    terms: Terms = field(init=False)
    clock: float = 0.0
    head_position: int = 0
    last_end: int = 0
    channel_free: float = 0.0
    # (offset, length, submit_time, tag) per queued request
    pending: deque = field(default_factory=deque)
    # heap of (completion, seq, tag, submit_time) per request in service
    in_flight: list = field(default_factory=list)
    active: int = 0
    pending_bound: int = 65536
    _seq: int = 0

    def __post_init__(self):
        m = self.model
        self.draws = uniform_floats(m.rng_seed)
        self.terms = Terms(
            hdd=m.kind == "hdd", parallelism=m.parallelism,
            base=m.base_latency_us, per_byte=m.per_byte_us,
            jitter=m.jitter_kind != "none" and m.jitter_scale_us > 0,
            uniform=m.jitter_kind == "uniform" or self.polled,
            two_scale=2.0 * m.jitter_scale_us, power=HEAVY_TAIL_POWER,
            cap=(HEAVY_TAIL_POWER + 1) * m.jitter_scale_us,
            spike_p=m.spike_probability, spike_us=m.spike_duration_us,
            seek_min=m.seek_min_us, seek_span=m.seek_max_us - m.seek_min_us,
            rotation=m.rotation_period_us, outer=m.outer_rate_bps,
            rate_span=m.inner_rate_bps - m.outer_rate_bps,
            bandwidth=m.bandwidth_limit_bps,
            degraded_until=m.degraded_until_us,
            degraded_factor=m.degraded_factor)


def submit(state: SimState, offset: int, length: int, submit_time: float,
           tag: Any = None) -> None:
    """Queue a read of [offset, offset + length), submitted at submit_time.
    It enters service FIFO at the next advance, once a slot is free; a disk
    with a free slot starts it at once, because its shortest-seek-first pick
    depends on what is pending at the time."""
    if offset < 0 or offset + length > state.capacity:
        raise ValueError("request outside device capacity")
    pending, terms = state.pending, state.terms
    free = terms.parallelism - state.active
    # requests that free slots will take at the next advance are not queued
    if len(pending) - free >= state.pending_bound:
        raise Backpressure(f"more than {state.pending_bound} requests queued")
    pending.append((offset, length, submit_time, tag))
    if free > 0 and terms.hdd:
        _fill_slots(state)


def _fill_slots(state: SimState) -> None:
    """Start pending requests while slots are free, at the current clock or
    their submit time if later: the one service loop of the model."""
    (hdd, parallelism, base, per_byte, jitter, uniform, two_scale, cap, power,
     spike_p, spike_us, seek_min, seek_span, rotation, outer, rate_span,
     bandwidth, degraded_until, degraded_factor) = state.terms
    capacity = state.capacity
    draw = state.draws.__next__
    pending, in_flight = state.pending, state.in_flight
    clock, active, seq = state.clock, state.active, state._seq
    channel_free, head, last_end = (state.channel_free, state.head_position,
                                    state.last_end)
    while active < parallelism and pending:
        if hdd:
            # shortest seek first among queued requests (drive/elevator
            # scheduling); every other model services strictly FIFO
            if len(pending) > 1:
                seeks = [abs(r[0] - head) for r in pending]
                best = seeks.index(min(seeks))  # the first of equal seeks
                req = pending[best]
                del pending[best]
            else:
                req = pending.popleft()
            offset, length, submitted, tag = req
            if offset == last_end:
                access = 0.0
            else:
                seek = seek_min + seek_span * (abs(offset - head) / capacity)
                access = seek + rotation * draw()
            rate = outer + rate_span * (offset / capacity)
            total = access + length / rate * 1e6
            head = last_end = offset + length
        else:
            _, length, submitted, tag = pending.popleft()
            total = base + length * per_byte
            if jitter:
                u = draw()
                if uniform:
                    total += two_scale * u
                else:
                    total += cap * u ** power
            if spike_p > 0 and draw() < spike_p:
                total += spike_us
        start = clock if clock > submitted else submitted
        if start < degraded_until:
            total *= degraded_factor
        completion = start + total
        if bandwidth > 0:
            tb = length / bandwidth * 1e6
            # the transfer is the trailing part of service and must
            # serialize on the shared channel
            channel_start = completion - tb
            if channel_free > channel_start:
                channel_start = channel_free
            completion = channel_start + tb
            channel_free = completion
        seq += 1
        heapq.heappush(in_flight, (completion, seq, tag, submitted))
        active += 1
    state.active, state._seq, state.channel_free = active, seq, channel_free
    state.head_position, state.last_end = head, last_end


def advance(state: SimState, ready: list[int] | None = None,
            need: int = 1) -> list[tuple[float, int, Any, float]]:
    """Start what is queued on free slots, then pop every completion due at
    the next event time.

    With ``ready``, a count per tag, each popped completion is credited to
    ``ready[tag]``, and later event times follow, each after the same fill,
    until one leaves some tag with ``need`` ready completions or nothing is
    in flight.  Returns the popped (completion, seq, tag, submit_time)
    entries in pop order; the clock never moves backwards and stays put
    when nothing is in flight.
    """
    pending, in_flight = state.pending, state.in_flight
    parallelism, hdd = state.terms.parallelism, state.terms.hdd
    heappop = heapq.heappop
    done: list = []
    full = False
    while not full:
        if pending and state.active < parallelism:
            _fill_slots(state)
        if not in_flight:
            break
        t = in_flight[0][0]
        while in_flight and in_flight[0][0] == t:
            entry = heappop(in_flight)
            done.append(entry)
            state.active -= 1
            if ready is None:
                full = True
            else:
                tag = entry[2]
                n = ready[tag] = ready[tag] + 1
                full = full or n >= need
        if t > state.clock:
            state.clock = t
        if pending and hdd:
            # the disk picks among what is queued now, before anything else
            # is submitted at this time
            _fill_slots(state)
    return done
