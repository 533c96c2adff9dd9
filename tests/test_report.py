"""Label codec, result persistence, tables, and scatter output."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readbench.engines import EngineConfig, RunRecord
from readbench.errors import LabelParseError
from readbench.measurement import CpuUsage, LatencyStats
from readbench.report import (Label, ResultStore, encode_label, latency_table,
                              parse_label, scatter_points_csv, scatter_summary)


def make_record(label="P", block=4096, tput=100.0, p999=500, cpu=10.0,
                started="2026-08-26T00:00:00+00:00", queue=1, kind="sync"):
    return RunRecord(
        workload={"block_size": block, "pattern": "random", "threads": 1,
                  "seed": 0, "request_budget": 100},
        engine=EngineConfig(kind=kind, queue_size=queue),
        throughput_mb_s=tput,
        latency=LatencyStats(count=100, min_us=10, max_us=p999 + 100,
                             mean_us=50.0, p99_us=p999 - 10, p999_us=p999),
        cpu=CpuUsage(process_cpu=0.1, wall=1.0, percent_of_core=cpu),
        label=label, started_at=started)


#: a record as stored before CPU was read from the process clock: its cpu
#: object also held the CPU of poll threads found by name
_OLDER_LINE = (
    '{"cpu": {"external_cpu": 0.02, "percent_of_core": 150.0, '
    '"process_cpu": 0.01, "wall": 0.02}, "data_checksum": "", "engine": '
    '{"batch_size": 1, "fixed_buffers": false, "fixed_files": false, '
    '"kernel_poll": false, "kind": "aio", "queue_size": 4}, "label": "A4B1", '
    '"latency": {"count": 20, "max_us": 123, "mean_us": 97.35, "min_us": 91, '
    '"p999_us": 123, "p99_us": 123}, "max_inflight": 4, "notes": '
    '"simulated", "schema_version": 1, "short_harvests": 0, "started_at": '
    '"2026-10-18T02:38:09.781335+00:00", "throughput_mb_s": '
    '159.26570405149337, "workload": {"block_size": 4096, "duration_s": '
    'null, "pattern": "random", "request_budget": 20, "seed": 3, "target": '
    '{"capacity": 16777216, "fill_seed": 1, "kind": "simulated", "model": '
    '"nvme-ssd"}, "threads": 1, "verify": false, "warmup_s": 0.0}}')


KNOWN_LABELS = {
    "P": EngineConfig(kind="sync"),
    "A16B1": EngineConfig(kind="aio", queue_size=16),
    "A64B16": EngineConfig(kind="aio", queue_size=64, batch_size=16),
    "U1B1F": EngineConfig(kind="uring", queue_size=1, fixed_files=True),
    "U32B1": EngineConfig(kind="uring", queue_size=32),
    "U64B1MF": EngineConfig(kind="uring", queue_size=64, fixed_buffers=True,
                            fixed_files=True),
}


class TestLabels:
    def test_known_encodings(self):
        for text, engine in KNOWN_LABELS.items():
            assert encode_label(engine, threads=1).text == text

    def test_known_parses(self):
        for text, engine in KNOWN_LABELS.items():
            got_engine, threads = parse_label(text)
            assert got_engine == engine
            assert threads == 1

    def test_thread_suffix(self):
        assert encode_label(EngineConfig(kind="pool"), threads=8).text == "PT8"
        assert parse_label("PT8") == (EngineConfig(kind="pool"), 8)
        assert parse_label("A16B1T3") == \
            (EngineConfig(kind="aio", queue_size=16), 3)

    def test_flag_order_tolerated(self):
        canon = parse_label("U64B1MF")
        assert parse_label("U64B1FM") == canon

    def test_polled_shares_sync_text(self):
        lab = encode_label(EngineConfig(kind="polled"), threads=1)
        assert lab.text == "P"
        assert "poll" in lab.note

    def test_parse_errors_carry_position(self):
        for bad in ("", "X4", "A16", "AB1", "U4B2Z", "PT1", "A16B1T",
                    "U0B1", "P2"):
            with pytest.raises(LabelParseError) as ei:
                parse_label(bad)
            assert ei.value.position >= 0

    def test_roundtrip_randomized(self):
        rng = random.Random(0)
        for _ in range(500):
            kind = rng.choice(("sync", "polled", "pool", "aio", "uring"))
            if kind in ("sync", "polled"):
                threads = 1
            elif kind == "pool":
                threads = rng.choice((2, 5, 64))
            else:
                threads = rng.choice((1, 2, 5, 64))
            if kind in ("aio", "uring"):
                q = 2 ** rng.randrange(0, 9)
                b = rng.choice([x for x in (1, 2, 4, 8) if x <= q])
                e = EngineConfig(
                    kind=kind, queue_size=q, batch_size=b,
                    fixed_files=kind == "uring" and rng.random() < 0.5,
                    fixed_buffers=kind == "uring" and rng.random() < 0.5)
            else:
                e = EngineConfig(kind=kind)
            lab = encode_label(e, threads)
            got, t = parse_label(lab.text)
            assert t == threads
            if kind == "polled":
                assert got.kind == "sync"  # polled is a note, not a flag
            else:
                assert got == e


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path / "runs.jsonl"))
        recs = [make_record(label="P"), make_record(label="A16B1",
                                                    kind="aio", queue=16)]
        store.write(recs)
        back, skipped = store.read()
        assert skipped == 0
        assert [r.as_dict() for r in back] == [r.as_dict() for r in recs]

    def test_schema_version_present(self, tmp_path):
        store = ResultStore(str(tmp_path / "runs.jsonl"))
        store.append(make_record())
        line = (tmp_path / "runs.jsonl").read_text().splitlines()[0]
        assert json.loads(line)["schema_version"] == 1

    def test_older_cpu_format_reads(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(_OLDER_LINE + "\n")
        store = ResultStore(str(path))
        (back,), skipped = store.read()
        assert skipped == 0
        assert back.cpu == CpuUsage(process_cpu=0.01, wall=0.02,
                                    percent_of_core=150.0)
        store.append(back)
        line = path.read_text().splitlines()[-1]
        assert set(json.loads(line)["cpu"]) == {"process_cpu", "wall",
                                                "percent_of_core"}

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = ResultStore(str(path))
        store.append(make_record())
        with open(path, "a") as f:
            f.write("{not json\n")
        store.append(make_record(label="PT2", kind="pool"))
        back, skipped = store.read()
        assert skipped == 1
        assert len(back) == 2

    @pytest.mark.parametrize("engine", [{"kind": "nvme"}, {"queue_size": 0},
                                        None])
    def test_invalid_lines_skipped(self, tmp_path, engine):
        path = tmp_path / "runs.jsonl"
        store = ResultStore(str(path))
        store.append(make_record())
        bad = make_record().as_dict()
        if engine is None:
            bad = 5  # valid JSON, but not an object
        else:
            bad["engine"].update(engine)
        with open(path, "a") as f:
            f.write(json.dumps(bad) + "\n")
        store.append(make_record(label="PT2", kind="pool"))
        back, skipped = store.read()
        assert skipped == 1
        assert [r.label for r in back] == ["P", "PT2"]

    def test_unknown_fields_preserved(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = ResultStore(str(path))
        rec = make_record()
        d = json.loads(json.dumps(rec.as_dict()))
        d["future_field"] = {"x": 1}
        d["schema_version"] = 1
        with open(path, "w") as f:
            f.write(json.dumps(d, sort_keys=True) + "\n")
        back, _ = store.read()
        assert back[0].extra.get("future_field") == {"x": 1}


class TestTablesAndPlots:
    def records(self):
        return [
            make_record(label="P", block=4096, tput=30.0, p999=200),
            make_record(label="A16B1", kind="aio", queue=16, block=4096,
                        tput=300.0, p999=900),
            make_record(label="A16B1", kind="aio", queue=16, block=65536,
                        tput=900.0, p999=2000),
        ]

    def test_latency_table_sorted_csv(self):
        out = latency_table(self.records())
        lines = out.strip().splitlines()
        assert lines[0].startswith("block_size,label,count,min_us")
        assert [l.split(",")[:2] for l in lines[1:]] == [
            ["4096", "A16B1"], ["4096", "P"], ["65536", "A16B1"]]

    def test_points_csv_flags_best(self):
        out = scatter_points_csv(self.records())
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        best = {(r[1], r[0]): r[-1] for r in rows}
        assert best[("4096", "A16B1")] == "1"
        assert best[("4096", "P")] == "0"

    def test_svg_deterministic_and_permutation_invariant(self):
        recs = self.records()
        a = scatter_summary(recs)
        b = scatter_summary(list(reversed(recs)))
        assert a == b
        assert a.startswith("<svg") or a.startswith("<?xml")
        assert "</svg>" in a

    def test_svg_empty_input(self):
        with pytest.raises(Exception):
            scatter_summary([])


@given(st.integers(min_value=1, max_value=512),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=200, deadline=None)
def test_label_roundtrip_property(q, threads):
    b = min(q, 4)
    e = EngineConfig(kind="uring", queue_size=q, batch_size=b,
                     fixed_files=True)
    lab = encode_label(e, threads)
    got, t = parse_label(lab.text)
    assert (got, t) == (e, threads)
