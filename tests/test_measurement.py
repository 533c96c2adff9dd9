"""Latency aggregation, throughput, and CPU accounting."""

import math
import os
import random
import time
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readbench import uring_native
from readbench.errors import ClockError, EmptySampleSet, InvalidInterval
from readbench.measurement import (LatencyCounts, LatencySample,
                                   aggregate_latencies, compute_throughput,
                                   measure_cpu, snapshot_cpu)


def samples(durations):
    return [LatencySample(duration_us=d, nbytes=4096) for d in durations]


def oracle_stats(durations):
    """Independent sort-and-index nearest-rank oracle."""
    s = sorted(durations)
    n = len(s)

    def pct(q):
        return s[max(1, math.ceil(q * n)) - 1]

    return (n, s[0], s[-1], sum(s) / n, pct(0.99), pct(0.999))


def test_constant_distribution():
    st_ = aggregate_latencies(samples([12000] * 1000))
    assert (st_.min_us, st_.max_us, st_.mean_us, st_.p99_us, st_.p999_us) == (
        12000, 12000, 12000.0, 12000, 12000)


def test_range_1_to_1000():
    st_ = aggregate_latencies(samples(range(1, 1001)))
    assert st_.p99_us == 990
    assert st_.p999_us == 999
    assert st_.min_us == 1 and st_.max_us == 1000


def test_matches_oracle_randomized():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randrange(1, 5000)
        durs = [rng.randrange(0, 10**7) for _ in range(n)]
        got = aggregate_latencies(samples(durs))
        n_, lo, hi, mean, p99, p999 = oracle_stats(durs)
        assert (got.count, got.min_us, got.max_us) == (n_, lo, hi)
        assert got.mean_us == pytest.approx(mean)
        assert (got.p99_us, got.p999_us) == (p99, p999)


@given(st.lists(st.integers(min_value=0, max_value=10**8), min_size=1,
                max_size=500))
@settings(max_examples=200, deadline=None)
def test_invariants_and_permutation(durs):
    a = aggregate_latencies(samples(durs))
    assert a.min_us <= a.mean_us <= a.max_us
    assert a.min_us <= a.p99_us <= a.p999_us <= a.max_us
    shuffled = list(durs)
    random.Random(7).shuffle(shuffled)
    assert aggregate_latencies(samples(shuffled)) == a


def test_sorted_log_is_read_where_it_lies():
    # a sorted log costs no copy; any other is copied, and left as it was
    n = 1_000_000
    shuffled = np.random.default_rng(5).integers(0, 10**7, n)
    kept = shuffled.copy()
    want = aggregate_latencies(shuffled)
    assert np.array_equal(shuffled, kept)
    unsorted = array("q", shuffled.tobytes())
    assert aggregate_latencies(unsorted) == want
    assert np.array_equal(unsorted, kept)
    in_order = np.sort(shuffled)
    for log in (in_order, array("q", in_order.tobytes())):
        tracemalloc.start()
        try:
            got = aggregate_latencies(log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2 * n, f"{peak / n:.2f} B per sample"


#: durations on both sides of the dense table's end, and far above it
DURATIONS = st.one_of(st.sampled_from([0, 65535, 65536, 10**6 + 1]),
                      st.integers(0, 70_000), st.integers(10**6, 10**12))


@given(st.lists(DURATIONS, min_size=1, max_size=400), st.data())
@settings(max_examples=200, deadline=None)
def test_counts_give_the_sorted_logs_stats(durs, data):
    # folded in any chunking, as array('q') or ndarray, by either of two
    # workers whose counts are then merged
    cuts = sorted(data.draw(st.lists(st.integers(0, len(durs)), max_size=8)))
    workers = [LatencyCounts(), LatencyCounts()]
    for i, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, len(durs)])):
        chunk = durs[lo:hi]
        data.draw(st.sampled_from(workers)).add(
            array("q", chunk) if i % 2 else np.array(chunk, dtype=np.int64))
    one = LatencyCounts()
    one.add(np.array(durs, dtype=np.int64))
    workers[0].merge(workers[1])
    want = aggregate_latencies(np.sort(np.array(durs, dtype=np.int64)))
    for counts in (one, workers[0]):
        assert len(counts) == len(durs)
        assert aggregate_latencies(counts) == want


def test_counts_refuse_what_a_log_refuses():
    counts = LatencyCounts()
    with pytest.raises(EmptySampleSet):
        aggregate_latencies(counts)
    counts.add(array("q"))
    with pytest.raises(EmptySampleSet):
        aggregate_latencies(counts)
    for chunk in (array("q", [5, -1]), np.array([-(2 ** 63), 70_000])):
        with pytest.raises(ValueError, match="^duration must be >= 0$"):
            counts.add(chunk)
    assert len(counts) == 0  # a refused chunk counts none of its durations


def test_empty_raises():
    with pytest.raises(EmptySampleSet):
        aggregate_latencies([])


def test_sample_validation():
    with pytest.raises(ValueError):
        LatencySample(duration_us=-1, nbytes=1)
    with pytest.raises(ValueError):
        LatencySample(duration_us=1, nbytes=0)


class TestThroughput:
    def test_basic(self):
        assert compute_throughput(10**6, 1.0) == 1.0

    def test_full_drive_scan(self):
        # 10 TB in 15 hours is ~185 MB/s
        assert compute_throughput(10 * 10**12, 54000) == pytest.approx(185.185, rel=1e-3)

    def test_linearity(self):
        base = compute_throughput(12345678, 3.5)
        assert compute_throughput(2 * 12345678, 3.5) == pytest.approx(2 * base)
        assert compute_throughput(12345678, 7.0) == pytest.approx(base / 2)

    def test_invalid_interval(self):
        with pytest.raises(InvalidInterval):
            compute_throughput(1, 0.0)
        with pytest.raises(InvalidInterval):
            compute_throughput(1, -1.0)


class TestCpu:
    def test_process_only(self):
        u = measure_cpu(0.0, 0.5, 1.0)
        assert u.percent_of_core == pytest.approx(50.0)

    def test_clock_regression(self):
        with pytest.raises(ClockError):
            measure_cpu(1.0, 0.5, 1.0)

    def test_real_process_table(self):
        snap = snapshot_cpu()
        assert isinstance(snap, float) and snap >= 0.0

    def test_process_clock_counts_the_ring_poll_thread(self, tmp_path):
        ok, why = uring_native.probe(kernel_poll=True)
        if not ok:
            pytest.skip(why)
        path = tmp_path / "small.dat"
        path.write_bytes(bytes(8192))
        fd = os.open(path, os.O_RDONLY)
        buf = memoryview(bytearray(4096))
        try:
            q = uring_native.UringQueue(fd, 1, [buf], kernel_poll=True)
            try:
                q.submit_reads(np.array([0]), np.array([0]))
                assert q.wait(1, 5.0).tolist() == [[0, 4096]]
                # this thread sleeps; the poll thread keeps spinning until
                # its idle time runs out
                before = snapshot_cpu()
                time.sleep(0.3)
                spent = snapshot_cpu() - before
            finally:
                q.close()
        finally:
            os.close(fd)
        assert spent >= 0.1
