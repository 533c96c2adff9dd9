"""Latency aggregation, throughput, and CPU accounting."""

import math
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readbench import uring_native
from readbench.errors import ClockError, EmptySampleSet, InvalidInterval
from readbench.measurement import (LatencySample, aggregate_latencies,
                                   compute_throughput, measure_cpu,
                                   snapshot_cpu)


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
            q = uring_native.UringQueue(fd, 1, kernel_poll=True)
            try:
                q.submit_reads([(0, 0, buf)])
                assert q.wait(1, 5.0) == [(0, 4096)]
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
