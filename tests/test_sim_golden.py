"""Golden replay: simulated records pinned to their exact values.

The simulator's statistics must replay bit for bit across refactors of the
engine loop, the device scheduler, the offset stream and the sample store.
The values below were produced by the per-request-object implementation
(one ``LatencySample`` per request, one ``SplitMix64.next_u64`` per random
offset); any change to them is a behaviour change, not a speed-up.  Each
pinned run is checked on the compiled simulator loop and on the Python one.
"""

import itertools
from array import array

import numpy as np
import pytest

from readbench import engines
from readbench.devicesim import DeviceModel, preset_model
from readbench.engines import (EngineConfig, WorkloadSpec, offset_stream,
                               read_scattered, run)
from readbench.errors import EmptySampleSet
from readbench.measurement import (LatencySample, LatencyStats,
                                   aggregate_latencies)
from readbench.rng import SplitMix64, worker_seed
from readbench.sweep import whole_scan
from readbench.target import simulated_target

GiB = 1 << 30

#: a solid-state model with every random component and fewer slots than
#: requests in flight, so requests queue, spikes and a degraded start-up
#: window land inside the queue, and the shared channel serializes transfers
CUSTOM = DeviceModel(kind="custom", base_latency_us=40.0,
                     per_byte_us=1.0 / 1000.0, parallelism=4,
                     jitter_kind="uniform", jitter_scale_us=6.0,
                     spike_probability=0.01, spike_duration_us=5000.0,
                     bandwidth_limit_bps=400e6, degraded_until_us=3000.0,
                     degraded_factor=4.0, rng_seed=17)

#: name -> (model preset or DeviceModel, capacity, fill seed, workload
#:          fields, engine, latency, throughput_mb_s, data_checksum, extra)
GOLDEN = {
    "hdd-sync": (
        "hdd", GiB, 7, dict(block_size=65536, request_budget=2000, seed=1),
        EngineConfig(kind="sync"),
        LatencyStats(count=2000, min_us=3140, max_us=21717,
                     mean_us=10917.9695, p99_us=19701, p999_us=21549),
        6.002583067046276, "", {"max_inflight": 1, "short_harvests": 0}),
    "sata-aio-q32b8-T2": (
        "sata-ssd", GiB, 2, dict(threads=2, request_budget=20000, seed=4),
        EngineConfig(kind="aio", queue_size=32, batch_size=8),
        LatencyStats(count=20000, min_us=137, max_us=48666,
                     mean_us=1280.41225, p99_us=1049, p999_us=48650),
        193.64975893131728, "", {"max_inflight": 32, "short_harvests": 0}),
    "nvme-polled-verify": (
        "nvme-ssd", 1 << 28, 5, dict(request_budget=5000, seed=9, verify=True),
        EngineConfig(kind="polled"),
        LatencyStats(count=5000, min_us=91, max_us=99, mean_us=95.2188,
                     p99_us=99, p999_us=99),
        43.02151208150956,
        "2490f08c8c2275469fa153c16c3b6d023ed4701f3376420900bc4f84ba897ab7",
        {"max_inflight": 1, "short_harvests": 0}),
    "ull-uring-q16b4-T3-warmup-duration": (
        "ull", GiB, 3, dict(threads=3, warmup_s=0.002, duration_s=0.02,
                            seed=11),
        EngineConfig(kind="uring", queue_size=16, batch_size=4),
        LatencyStats(count=8720, min_us=80, max_us=143,
                     mean_us=106.7579128440367, p99_us=133, p999_us=139),
        1776.2032125361886, "", {"max_inflight": 16, "short_harvests": 0}),
    "sata-pool-T2-sequential-verify": (
        "sata-ssd", 1 << 26, 1, dict(threads=2, pattern="sequential",
                                     request_budget=8000, seed=2, verify=True),
        EngineConfig(kind="pool"),
        LatencyStats(count=8000, min_us=137, max_us=157, mean_us=139.295875,
                     p99_us=155, p999_us=157),
        58.73172188982324,
        "493615e3b897a48348b588043e8edd84130ac781e3ceeaa9a101193d923c8496",
        {"max_inflight": 1, "short_harvests": 0}),
    "anchor-nvme-uring-q64b8-verify": (
        "nvme-ssd", GiB, 1, dict(request_budget=30000, seed=3, verify=True),
        EngineConfig(kind="uring", queue_size=64, batch_size=8),
        LatencyStats(count=30000, min_us=91, max_us=200,
                     mean_us=118.34053333333334, p99_us=137, p999_us=162),
        2108.5026582284877,
        "05736f262417efcd7fa6540dc5dc4238ec231eabbcf56c48b98d0d88106d15ac",
        {"max_inflight": 64, "short_harvests": 0}),
    # the two below were produced by the scheduler that started service
    # inside submit; they pin the queued disk (whose shortest-seek pick
    # depends on what is pending) and a queued solid-state model
    "hdd-aio-q8b2": (
        "hdd", GiB, 7, dict(block_size=65536, request_budget=2000, seed=5),
        EngineConfig(kind="aio", queue_size=8, batch_size=2),
        LatencyStats(count=2000, min_us=7619, max_us=415081,
                     mean_us=60563.859, p99_us=209048, p999_us=325314),
        8.108714963516068, "", {"max_inflight": 8, "short_harvests": 0}),
    "custom-aio-q8b4-T2": (
        CUSTOM, 1 << 28, 4, dict(threads=2, request_budget=6000, seed=8),
        EngineConfig(kind="aio", queue_size=8, batch_size=4),
        LatencyStats(count=6000, min_us=153, max_us=10206,
                     mean_us=941.2926666666667, p99_us=5207, p999_us=10189),
        63.05098713836894, "", {"max_inflight": 8, "short_harvests": 0}),
}


def check_record(name):
    (model, capacity, fill_seed, fields, engine,
     latency, throughput, checksum, extra) = GOLDEN[name]
    if isinstance(model, str):
        model = preset_model(model)
    with simulated_target(model, capacity, seed=fill_seed) as h:
        rec = run(WorkloadSpec(target=h, **fields), engine)
    assert (rec.latency, rec.throughput_mb_s, rec.data_checksum, rec.extra) \
        == (latency, throughput, checksum, extra)


@pytest.mark.parametrize("name", GOLDEN)
def test_simulated_record_is_pinned(name, native_loop):
    check_record(name)


def check_scattered():
    with simulated_target(preset_model("hdd"), GiB, seed=7) as h:
        w = WorkloadSpec(target=h, block_size=262144, request_budget=200,
                         seed=6)
        got = read_scattered(w, EngineConfig(kind="aio", queue_size=5))
    assert got == LatencyStats(count=200, min_us=37404, max_us=72562,
                               mean_us=53625.01, p99_us=67367, p999_us=72562)


def test_scattered_makespans_are_pinned(native_loop):
    check_scattered()


#: per-window scan time (us) of the hdd whole scan, outermost window first
SCAN_WINDOW_US = [
    67306, 67731, 68161, 68596, 69037, 69484, 69936, 70395, 70860, 71330,
    71808, 72292, 72780, 73280, 73776, 74288, 74810, 75334, 75865, 76406,
    76954, 77509, 78073, 78644, 79225, 79814, 80411, 81019, 81633, 82260,
    82896, 83539, 84195, 84860, 85536, 86223, 86920, 87630, 88352, 89085,
    89830, 90584, 91357, 92143, 92939, 93752, 94577, 95419, 96273, 97144,
    98032, 98934, 99855, 100793, 101748, 102720, 103714, 104720, 105755,
    106808, 107880, 108975, 110094, 111232]


def check_whole_scan():
    # per-block latencies are integer us, as in every run record
    with simulated_target(preset_model("hdd"), GiB, seed=7) as h:
        tl = whole_scan(h, block=1 << 20)
    assert (tl.window_bytes, tl.total_bytes) == (16 << 20, GiB)
    assert tl.window_elapsed_s == [us / 1e6 for us in SCAN_WINDOW_US]
    assert (tl.window_mb_s[0], tl.window_mb_s[-1], tl.total_s) \
        == (249.26776216087717, 150.83084004602992, 5.483531)


def test_whole_scan_timeline_is_pinned(native_loop):
    check_whole_scan()


@pytest.mark.parametrize("pin", [*GOLDEN, "scattered", "whole-scan"])
def test_pins_hold_on_the_python_loop(pin, python_loop):
    # the scheduler in Python, the fallback without cc, replays every pin
    {"scattered": check_scattered,
     "whole-scan": check_whole_scan}.get(pin, lambda: check_record(pin))()


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("pattern", ["random", "sequential"])
def test_offset_stream_matches_reference(pattern, threads):
    block = 4096
    with simulated_target(preset_model("ull"), 1 << 26, seed=1) as h:
        nblocks = h.capacity // block
        w = WorkloadSpec(target=h, pattern=pattern, block_size=block,
                         threads=threads, request_budget=1, seed=12345)
        n = 3 * engines._OFFSET_CHUNK + 17
        for worker in range(threads):
            got = list(itertools.islice(offset_stream(w, worker), n))
            if pattern == "random":
                rng = SplitMix64(worker_seed(w.seed, worker))
                want = [(rng.next_u64() % nblocks) * block for _ in range(n)]
            else:
                first = (nblocks // threads) * worker
                want = [((first + i) % nblocks) * block for i in range(n)]
            assert got == want
            assert all(type(x) is int for x in got)


def test_aggregate_accepts_logs_and_samples():
    durations = [7, 0, 123456789, 42, 42, 9, 1000] * 300
    as_samples = aggregate_latencies(
        [LatencySample(duration_us=d, nbytes=4096) for d in durations])
    log = array("q", durations)
    assert aggregate_latencies(log) == as_samples
    assert aggregate_latencies(np.array(durations, dtype=np.int64)) == as_samples
    assert list(log) == durations  # the caller's log is not sorted in place


@pytest.mark.parametrize("empty", [array("q"), np.array([], dtype=np.int64), []])
def test_aggregate_empty_log_raises(empty):
    with pytest.raises(EmptySampleSet):
        aggregate_latencies(empty)


def test_aggregate_rejects_negative_durations():
    with pytest.raises(ValueError):
        aggregate_latencies(array("q", [5, -1]))
