"""Simulated-device model behavior."""

import dataclasses

import pytest

from readbench.devicesim import (DeviceModel, SimState, advance, load_model,
                                 preset_model, preset_names, save_model,
                                 submit)
from readbench.errors import Backpressure, NoSuchPreset
from readbench.rng import SplitMix64


def flat_model(latency_us=100.0, parallelism=4, **over):
    base = dict(kind="solid-state", base_latency_us=latency_us,
                per_byte_us=0.0, parallelism=parallelism,
                jitter_kind="none", jitter_scale_us=0.0,
                spike_probability=0.0, spike_duration_us=0.0,
                bandwidth_limit_bps=0.0, rng_seed=1)
    base.update(over)
    return DeviceModel(**base)


def run_closed_loop(model, depth, nreq, length=4096, capacity=1 << 30):
    """Closed-loop driver: keep `depth` requests outstanding."""
    state = SimState(model=model, capacity=capacity)
    offs = SplitMix64(12345)
    nblocks = capacity // length
    issued = 0
    done = []

    def issue():
        nonlocal issued
        off = (offs.next_u64() % nblocks) * length
        submit(state, off, length, state.clock)
        issued += 1

    for _ in range(min(depth, nreq)):
        issue()
    while len(done) < nreq:
        done.extend(advance(state))
        while issued < nreq and len(done) + depth > issued:
            issue()
    return state, done


class TestPresets:
    def test_names(self):
        assert set(preset_names()) >= {"hdd", "sata-ssd", "nvme-ssd", "ull"}

    def test_unknown(self):
        with pytest.raises(NoSuchPreset):
            preset_model("floppy")

    def test_aliases(self):
        assert preset_model("nvme") == preset_model("nvme-ssd")

    def test_roundtrip_file(self, tmp_path):
        for name in preset_names():
            p = tmp_path / f"{name}.model"
            m = preset_model(name)
            save_model(m, str(p))
            assert load_model(str(p)) == m

    def test_model_file_refuses_unknown_key(self, tmp_path):
        p = tmp_path / "dev.model"
        p.write_text("schema = 1\nkind = custom\nlatency_us = 9\n")
        with pytest.raises(ValueError, match="unknown key 'latency_us'"):
            load_model(str(p))


def service_time(state, offset, length):
    """Service time of one request submitted alone at the clock."""
    submit(state, offset, length, state.clock)
    [(completion, _, _, submitted)] = advance(state)
    return completion - submitted


class TestServiceTime:
    def test_flat_model_constant(self):
        m = flat_model(latency_us=77.0)
        s = SimState(model=m, capacity=1 << 30)
        for off in (0, 4096, 1 << 20):
            assert service_time(s, off, 4096) == pytest.approx(77.0)

    def test_per_byte_component(self):
        m = dataclasses.replace(flat_model(latency_us=10.0),
                                per_byte_us=0.01)
        s = SimState(model=m, capacity=1 << 30)
        assert service_time(s, 0, 1000) == pytest.approx(10.0 + 10.0)
        assert service_time(s, 0, 2000) == pytest.approx(10.0 + 20.0)

    def test_hdd_sequential_is_transfer_only(self):
        m = preset_model("hdd")
        cap = 1 << 30
        s = SimState(model=m, capacity=cap)
        s.last_end = 4096
        s.head_position = 4096
        t = service_time(s, 4096, 262144)
        # no seek, no rotation: pure transfer at the position-local rate
        assert t < 2000.0

    def test_hdd_random_includes_seek_and_rotation(self):
        m = preset_model("hdd")
        cap = 1 << 30
        s = SimState(model=m, capacity=cap)
        s.last_end = 0
        s.head_position = 0
        t = service_time(s, cap // 2, 262144)
        assert t >= m.seek_min_us

    def test_hdd_seek_proportional_to_distance(self):
        m = preset_model("hdd")
        cap = 1 << 30
        samples = {frac: [] for frac in (0.1, 0.9)}
        for frac in samples:
            for seed in range(200):
                s = SimState(model=dataclasses.replace(m, rng_seed=seed),
                             capacity=cap)
                s.head_position = 0
                s.last_end = 1  # force the random path
                samples[frac].append(
                    service_time(s, int(frac * cap) // 4096 * 4096, 4096))
        assert (sum(samples[0.9]) / 200) > (sum(samples[0.1]) / 200)

    def test_polled_jitter_uniform_and_capped(self):
        # without the shared channel, whose transfer slot does not change a
        # lone request's service time but can move its last bit
        m = dataclasses.replace(preset_model("ull"), bandwidth_limit_bps=0.0)
        reg, pol = [], []
        for seed in range(3000):
            seeded = dataclasses.replace(m, rng_seed=seed)
            s = SimState(model=seeded, capacity=1 << 30)
            reg.append(service_time(s, 0, 4096))
            s2 = SimState(model=seeded, capacity=1 << 30, polled=True)
            pol.append(service_time(s2, 0, 4096))
        mean_r = sum(reg) / len(reg)
        mean_p = sum(pol) / len(pol)
        assert mean_p == pytest.approx(mean_r, rel=0.05)
        assert max(pol) <= max(reg) / 2 + 1e-9


class TestQueueing:
    def test_fifo_single_slot(self):
        m = flat_model(latency_us=100.0, parallelism=1)
        state, done = run_closed_loop(m, depth=4, nreq=10)
        times = sorted(t for t, *_ in done)
        assert times == [pytest.approx(100.0 * (i + 1)) for i in range(10)]

    def test_parallel_slots(self):
        m = flat_model(latency_us=100.0, parallelism=8)
        state, done = run_closed_loop(m, depth=8, nreq=8)
        assert all(t == pytest.approx(100.0) for t, *_ in done)

    def test_littles_law_grid(self):
        latency = 200.0
        for parallelism in (1, 4, 16):
            for depth in (1, 8, 64):
                m = flat_model(latency_us=latency, parallelism=parallelism)
                nreq = 2000
                state, done = run_closed_loop(m, depth, nreq)
                elapsed = max(t for t, *_ in done)
                effective = min(depth, parallelism)
                expect = nreq * latency / effective
                assert elapsed == pytest.approx(expect, rel=0.10)

    def test_bandwidth_channel_serializes_transfers(self):
        # two simultaneous 1 MB reads over a 100 MB/s channel: transfers
        # cannot overlap, so the second finishes a full transfer later.
        m = flat_model(latency_us=0.0, parallelism=2,
                       bandwidth_limit_bps=100e6)
        m = dataclasses.replace(m, per_byte_us=0.01)
        state = SimState(model=m, capacity=1 << 30)
        for i in range(2):
            submit(state, i * (1 << 20), 1 << 20, 0.0)
        done = advance(state) + advance(state)  # one completion each
        assert not state.in_flight and not state.pending
        times = sorted(t for t, *_ in done)
        tb = (1 << 20) * 0.01
        assert times[0] == pytest.approx(tb, rel=0.01)
        assert times[1] == pytest.approx(2 * tb, rel=0.01)

    def test_backpressure(self):
        m = flat_model()
        state = SimState(model=m, capacity=1 << 30)
        state.pending_bound = 4
        for i in range(m.parallelism + 4):
            submit(state, 0, 4096, 0.0)
        with pytest.raises(Backpressure):
            submit(state, 0, 4096, 0.0)

    @pytest.mark.parametrize("kind", ["solid-state", "hdd"])
    def test_backpressure_counts_only_requests_beyond_free_slots(self, kind):
        # requests that free slots will take do not count toward the bound,
        # whether they start at submit (disk) or at the next advance
        over = dict(kind=kind, outer_rate_bps=1e8, inner_rate_bps=1e8)
        m = flat_model(parallelism=3, **over)
        state = SimState(model=m, capacity=1 << 30)
        state.pending_bound = 2

        def fill_up(n):
            for _ in range(n):
                submit(state, 0, 4096, state.clock)
            with pytest.raises(Backpressure):
                submit(state, 0, 4096, state.clock)

        fill_up(m.parallelism + state.pending_bound)
        # each completion frees a slot for exactly one more request
        fill_up(len(advance(state)))

    def test_degraded_window(self):
        m = flat_model(latency_us=100.0, parallelism=1,
                       degraded_until_us=1000.0, degraded_factor=10.0)
        state, done = run_closed_loop(m, depth=1, nreq=20)
        durs = [t - submitted for t, _, _, submitted in done]
        assert durs[0] == pytest.approx(1000.0)  # degraded
        assert durs[-1] == pytest.approx(100.0)  # steady state

    def test_spikes_appear_at_configured_rate(self):
        m = flat_model(latency_us=100.0, parallelism=1,
                       spike_probability=0.01, spike_duration_us=48000.0)
        state, done = run_closed_loop(m, depth=1, nreq=5000)
        durs = [t - submitted for t, _, _, submitted in done]
        spikes = sum(1 for d in durs if d > 40000)
        assert 20 <= spikes <= 90  # ~50 expected


class TestDeterminism:
    def test_replay_identical(self):
        m = preset_model("sata-ssd")
        _, a = run_closed_loop(m, depth=16, nreq=500)
        _, b = run_closed_loop(m, depth=16, nreq=500)
        assert [t for t, *_ in a] == [t for t, *_ in b]

    def test_seed_changes_outcome(self):
        m = preset_model("sata-ssd")
        m2 = dataclasses.replace(m, rng_seed=999)
        _, a = run_closed_loop(m, depth=16, nreq=500)
        _, b = run_closed_loop(m2, depth=16, nreq=500)
        assert [t for t, *_ in a] != [t for t, *_ in b]


class TestModelValidation:
    def test_bad_parallelism(self):
        with pytest.raises(ValueError):
            flat_model(parallelism=0)

    def test_bad_jitter_kind(self):
        with pytest.raises(ValueError):
            flat_model(jitter_kind="gaussian")


class TestAdvanceToReady:
    def test_stops_after_the_event_that_fills_a_tag(self):
        # four slots, one time per wave of four: an event is popped whole
        state = SimState(model=flat_model(parallelism=4), capacity=1 << 30)
        for i in range(12):
            submit(state, 0, 4096, 0.0, tag=i % 2)
        ready = [0, 0]
        assert len(advance(state, ready, 2)) == 4
        assert (ready, state.clock) == ([2, 2], 100.0)
        ready = [0, 0]
        assert len(advance(state, ready, 3)) == 8
        assert (ready, state.clock) == ([4, 4], 300.0)
        assert advance(state, ready, 1) == []

    @pytest.mark.parametrize("name", ["hdd", "sata-ssd"])
    def test_pops_what_single_advances_pop(self, name):
        def loaded():
            state = SimState(model=preset_model(name), capacity=1 << 30)
            for i in range(60):
                submit(state, (i * 7919 % 1000) * 4096, 4096, 0.0, tag=i % 3)
            return state

        state, reference = loaded(), loaded()
        for need in (4, 1, 10**6):  # the last one runs to an empty device
            ready = [0, 0, 0]
            got = advance(state, ready, need)
            want, counts = [], [0, 0, 0]
            while ((reference.pending or reference.in_flight)
                   and max(counts) < need):
                for entry in advance(reference):
                    want.append(entry)
                    counts[entry[2]] += 1
            assert (got, ready, state.clock) == (want, counts, reference.clock)
        assert not state.in_flight and not state.pending
