"""Sweep plans, whole-target scans, and best-record selection."""

import random

import pytest

from readbench.devicesim import DeviceModel, preset_model
from readbench.engines import EngineConfig, RunRecord, WorkloadSpec
from readbench.errors import NoSuchPreset
from readbench.measurement import CpuUsage, LatencyStats
from readbench.report import ResultStore
from readbench.sweep import (BLOCK_GRID, QUEUE_GRID, THREAD_GRID,
                             ExperimentPlan, PlanError, batch_grid,
                             paper_best_configs, run_plan, select_best,
                             whole_scan)
from readbench.target import open_target, prepare_target, simulated_target


def flat_model(latency_us=100.0, parallelism=8, **over):
    base = dict(kind="solid-state", base_latency_us=latency_us,
                per_byte_us=0.0, parallelism=parallelism,
                jitter_kind="none", jitter_scale_us=0.0,
                spike_probability=0.0, spike_duration_us=0.0,
                bandwidth_limit_bps=0.0, rng_seed=1)
    base.update(over)
    return DeviceModel(**base)


def fake_record(tput, p999, cpu=10.0, queue=1, label="P", started="t0"):
    return RunRecord(
        workload={"block_size": 4096}, engine=EngineConfig(
            kind="aio" if queue > 1 else "sync",
            queue_size=queue),
        throughput_mb_s=tput,
        latency=LatencyStats(count=10, min_us=1, max_us=p999, mean_us=5.0,
                             p99_us=p999, p999_us=p999),
        cpu=CpuUsage(0.1, 1.0, cpu), label=label, started_at=started)


class TestGrids:
    def test_block_grid(self):
        assert BLOCK_GRID[0] == 4096
        assert BLOCK_GRID[-1] == 32 << 20
        assert all(b == a * 2 for a, b in zip(BLOCK_GRID, BLOCK_GRID[1:]))

    def test_thread_and_queue_grids(self):
        assert THREAD_GRID[0] == 1 and THREAD_GRID[-1] == 64
        assert QUEUE_GRID == [1, 2, 4, 8, 16, 32, 64, 128, 256]

    def test_batch_grid_bounded_by_queue(self):
        assert batch_grid(16) == [1, 2, 4, 8, 16]
        assert batch_grid(1) == [1]


class TestPlans:
    def plan(self, handle, **over):
        kw = dict(name="q", axis="queue_size", values=[1, 4, 16],
                  base_workload=WorkloadSpec(target=handle, block_size=4096,
                                             request_budget=100, seed=2),
                  base_engine=EngineConfig(kind="aio", queue_size=1))
        kw.update(over)
        return ExperimentPlan(**kw)

    def test_validation(self):
        with simulated_target(flat_model(), 1 << 24, seed=1) as h:
            with pytest.raises(ValueError):
                self.plan(h, axis="voltage")
            with pytest.raises(ValueError):
                self.plan(h, values=[4, 2, 1])
            with pytest.raises(ValueError):
                self.plan(h, values=[])
            with pytest.raises(ValueError):
                self.plan(h, repeat=0)

    def test_queue_axis_runs_and_tags(self, tmp_path):
        with simulated_target(flat_model(parallelism=32), 1 << 24, seed=1) as h:
            store = ResultStore(str(tmp_path / "runs.jsonl"))
            out = run_plan(self.plan(h), store=store)
            assert [r.extra["axis_value"] for r in out] == [1, 4, 16]
            assert all(isinstance(r, RunRecord) for r in out)
            # deeper queues earn more throughput on a parallel device
            assert out[2].throughput_mb_s > out[0].throughput_mb_s
            back, _ = store.read()
            assert len(back) == 3

    def test_thread_axis_upgrades_to_pool(self):
        with simulated_target(flat_model(), 1 << 24, seed=1) as h:
            plan = self.plan(h, axis="threads", values=[1, 2],
                             base_engine=EngineConfig(kind="sync"))
            out = run_plan(plan)
            assert [r.label for r in out] == ["P", "PT2"]

    def test_errors_recorded_in_place(self):
        with simulated_target(flat_model(), 1 << 24, seed=1) as h:
            # block_size values beyond the valid range error but don't stop
            plan = self.plan(h, axis="block_size",
                             values=[4096, 1 << 27])
            out = run_plan(plan)
            assert isinstance(out[0], RunRecord)
            assert isinstance(out[1], PlanError)
            assert out[1].axis_value == 1 << 27

    def test_repeat(self):
        with simulated_target(flat_model(), 1 << 24, seed=1) as h:
            out = run_plan(self.plan(h, values=[4], repeat=3))
            assert len(out) == 3


class TestWholeScan:
    def test_flat_device_constant_windows(self):
        with simulated_target(flat_model(latency_us=50.0, parallelism=1),
                              1 << 24, seed=1) as h:
            tl = whole_scan(h, block=1 << 20, window_bytes=1 << 22)
            assert tl.total_bytes == 1 << 24
            assert len(tl.window_mb_s) == 4
            first = tl.window_mb_s[0]
            assert all(w == pytest.approx(first) for w in tl.window_mb_s)

    def test_hdd_rate_declines_outer_to_inner(self):
        with simulated_target(preset_model("hdd"), 1 << 26, seed=1) as h:
            tl = whole_scan(h, block=1 << 20)
            assert tl.window_mb_s[0] > tl.window_mb_s[-1]
            assert all(b <= a * 1.001 for a, b in
                       zip(tl.window_mb_s, tl.window_mb_s[1:]))

    def test_real_file_windows(self, tmp_path):
        path = str(tmp_path / "scan.dat")
        prepare_target(path, size=4 << 20, seed=2).close()
        with open_target(path, seed=2, direct=False) as h:
            tl = whole_scan(h, block=1 << 16, window_bytes=1 << 20)
        assert len(tl.window_mb_s) == 4
        assert tl.total_bytes == 4 << 20
        assert all(mb > 0 for mb in tl.window_mb_s)

    def test_block_must_divide_capacity(self):
        with simulated_target(flat_model(), (1 << 24) + 4096, seed=1) as h:
            with pytest.raises(ValueError):
                whole_scan(h, block=1 << 20)


class TestBestTables:
    def test_kinds(self):
        for kind in ("aio", "uring", "uring+poll"):
            table = paper_best_configs(kind)
            assert table.engine_kind == kind
            assert [r.storage for r in table.rows] == \
                ["optane", "nvme", "ssd", "hdd"]
            for row in table.rows:
                assert row.batch_size <= row.queue_size

    def test_unknown_kind(self):
        with pytest.raises(NoSuchPreset):
            paper_best_configs("mmap")


class TestSelectBest:
    def oracle(self, records, budget):
        ok = [r for r in records if budget is None
              or r.latency.p999_us <= budget]
        if not ok:
            return min(r.latency.p999_us for r in records)
        best = max(r.throughput_mb_s for r in ok)
        return best

    def test_budget_filters(self):
        recs = [fake_record(100.0, p999=50),
                fake_record(900.0, p999=5000, queue=64, label="A64B1")]
        assert select_best(recs, latency_budget_us=100).throughput_mb_s == 100.0
        assert select_best(recs).throughput_mb_s == 900.0

    def test_fallback_min_latency(self):
        recs = [fake_record(100.0, p999=500), fake_record(50.0, p999=300)]
        assert select_best(recs, latency_budget_us=10).latency.p999_us == 300

    def test_tiebreak_lower_cpu(self):
        recs = [fake_record(100.0, p999=50, cpu=90.0, label="B"),
                fake_record(100.0, p999=50, cpu=10.0, label="A")]
        assert select_best(recs).cpu.percent_of_core == 10.0

    def test_permutation_invariant_randomized(self):
        rng = random.Random(1)
        for trial in range(50):
            recs = [fake_record(rng.choice((10.0, 50.0, 100.0)),
                                p999=rng.choice((40, 400, 4000)),
                                cpu=rng.choice((5.0, 50.0)),
                                queue=rng.choice((1, 16)),
                                label=f"L{rng.randrange(4)}",
                                started=f"t{rng.randrange(3)}")
                    for _ in range(rng.randrange(1, 12))]
            budget = rng.choice((None, 100, 10000))
            picks = set()
            for _ in range(5):
                rng.shuffle(recs)
                got = select_best(recs, latency_budget_us=budget)
                picks.add(got.as_dict().__repr__())
                # agreement with the brute-force filter/argmax oracle
                if budget is None or any(r.latency.p999_us <= budget
                                         for r in recs):
                    assert got.throughput_mb_s == self.oracle(recs, budget)
                else:
                    assert got.latency.p999_us == self.oracle(recs, budget)
            assert len(picks) == 1

    def test_empty(self):
        with pytest.raises(ValueError):
            select_best([])
