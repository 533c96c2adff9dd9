"""End-to-end command-line exercises."""

import json

import pytest

from readbench import sweep, uring_native
from readbench.cli import main
from readbench.errors import IoError
from readbench.rng import mix64


def run_cli(*argv):
    return main(list(argv))


class TestPrepareVerify:
    def test_prepare_then_verify(self, tmp_path, capsys):
        path = str(tmp_path / "t.dat")
        assert run_cli("prepare", "--path", path, "--size", str(1 << 20),
                       "--seed", "0x11") == 0
        assert run_cli("verify", "--path", path, "--seed", "0x11") == 0

    def test_verify_detects_corruption(self, tmp_path):
        path = str(tmp_path / "t.dat")
        run_cli("prepare", "--path", path, "--size", str(1 << 20))
        with open(path, "r+b") as f:
            f.seek(12345)
            f.write(b"\xff\xff")
        assert run_cli("verify", "--path", path) == 1

    def test_verify_names_old_pattern(self, tmp_path, capsys):
        # a page filled as earlier versions did, mix64(seed ^ o) per word
        path = tmp_path / "old.dat"
        path.write_bytes(b"".join(mix64(0x11 ^ o).to_bytes(8, "little")
                                  for o in range(0, 4096, 8)))
        for argv in (["verify"], ["run", "--buffered", "--requests", "2",
                                  "--verify"]):
            capsys.readouterr()
            assert run_cli(*argv, "--path", str(path), "--seed", "0x11") == 1
            assert capsys.readouterr().err == (
                "error: data at byte offset 8 has the old fill pattern; "
                "prepare the file again\n")

    def test_verify_missing_file(self, tmp_path):
        assert run_cli("verify", "--path", str(tmp_path / "nope")) == 1


class TestRun:
    def test_simulated_run_writes_store(self, tmp_path, capsys):
        out = str(tmp_path / "runs.jsonl")
        rc = run_cli("run", "--model", "nvme", "--capacity", str(1 << 24),
                     "--engine", "aio", "--queue", "16", "--requests", "200",
                     "--out", out)
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "A16B1" in stdout
        lines = open(out).read().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["label"] == "A16B1"
        assert rec["latency"]["count"] == 200

    def test_model_file(self, tmp_path):
        model = tmp_path / "dev.model"
        model.write_text("kind=solid-state\nbase_latency_us=25\n"
                         "parallelism=4\njitter_kind=none\n")
        rc = run_cli("run", "--model", str(model), "--capacity",
                     str(1 << 24), "--requests", "50")
        assert rc == 0

    def test_real_file_run(self, tmp_path):
        path = str(tmp_path / "t.dat")
        run_cli("prepare", "--path", path, "--size", str(1 << 20))
        rc = run_cli("run", "--path", path, "--buffered", "--requests", "100",
                     "--verify")
        assert rc == 0

    def test_target_arg_conflict(self):
        # neither or both of --path / --model is a usage error
        for command in (["run"], ["sweep", "--plan", "queue-sweep"]):
            for target in ([], ["--path", "t.dat", "--model", "nvme"]):
                with pytest.raises(SystemExit) as ei:
                    run_cli(*command, *target, "--requests", "10")
                assert ei.value.code == 2

    def test_unknown_model_exit_code(self):
        assert run_cli("run", "--model", "tape", "--requests", "10") == 2

    def test_bad_engine_params(self):
        rc = run_cli("run", "--model", "nvme", "--engine", "sync",
                     "--queue", "8", "--requests", "10")
        assert rc == 1


class TestSweepReport:
    def test_named_plan_then_report(self, tmp_path, capsys):
        out = str(tmp_path / "runs.jsonl")
        rc = run_cli("sweep", "--model", "nvme", "--capacity", str(1 << 24),
                     "--plan", "queue-sweep", "--engine", "aio",
                     "--requests", "100", "--out", out)
        assert rc == 0
        capsys.readouterr()

        svg = str(tmp_path / "plot.svg")
        table = str(tmp_path / "lat.csv")
        rc = run_cli("report", "--in", out, "--scatter", svg,
                     "--table", table)
        assert rc == 0
        err = capsys.readouterr().err
        assert "scheduler" in err.lower() or "nomerges" in err.lower()
        assert open(svg).read().startswith("<svg")
        assert open(svg + ".csv").readline().startswith("label,")
        assert open(table).readline().startswith("block_size,")

    def test_plan_file(self, tmp_path):
        plan = tmp_path / "p.plan"
        plan.write_text("name=tiny\naxis=block_size\nvalues=4096,8192\n")
        out = str(tmp_path / "runs.jsonl")
        rc = run_cli("sweep", "--model", "ull", "--capacity", str(1 << 24),
                     "--plan", str(plan), "--requests", "50", "--out", out)
        assert rc == 0
        assert len(open(out).read().splitlines()) == 2

    @pytest.mark.parametrize("text,missing", [("axis = threads\n", "values"),
                                              ("values = 1,2\n", "axis")],
                             ids=["no-values", "no-axis"])
    def test_plan_file_missing_key(self, tmp_path, capsys, text, missing):
        plan = tmp_path / "p.plan"
        plan.write_text(text)
        assert run_cli("sweep", "--model", "ull", "--plan", str(plan),
                       "--requests", "10") == 1
        assert f"has no '{missing}' key" in capsys.readouterr().err

    def test_plan_file_keeps_flags_and_repeat(self, tmp_path):
        plan = tmp_path / "p.plan"
        plan.write_text("axis = batch_size\nvalues = 1,2\n")
        out = str(tmp_path / "runs.jsonl")
        assert run_cli("sweep", "--model", "ull", "--capacity", str(1 << 24),
                       "--plan", str(plan), "--engine", "uring", "--queue",
                       "4", "--fixed-files", "--repeat", "2", "--requests",
                       "50", "--out", out) == 0
        labels = [json.loads(line)["label"]
                  for line in open(out).read().splitlines()]
        assert labels == ["U4B1F", "U4B1F", "U4B2F", "U4B2F"]

    @pytest.mark.parametrize("key,flag,mode", [
        ("requests = 30", ["--duration", "5"], (None, 30, 0.0)),
        ("duration = 0.01", ["--requests", "100000"], (0.01, None, 5.0))],
        ids=["requests", "duration"])
    def test_plan_file_mode_replaces_flag(self, tmp_path, key, flag, mode):
        # the default warm-up follows the mode the file sets
        plan = tmp_path / "p.plan"
        plan.write_text(f"axis = block_size\nvalues = 4096\n{key}\n")
        out = str(tmp_path / "runs.jsonl")
        assert run_cli("sweep", "--model", "ull", "--capacity", str(1 << 24),
                       "--plan", str(plan), *flag, "--out", out) == 0
        [rec] = [json.loads(line) for line in open(out)]
        wl = rec["workload"]
        assert (wl["duration_s"], wl["request_budget"], wl["warmup_s"]) == mode
        count = rec["latency"]["count"]
        assert count == 30 if wl["request_budget"] else count > 0

    @pytest.mark.parametrize("value,flags,label", [
        ("yes", [], "U4B1F"), ("no", ["--fixed-files"], "U4B1"),
        ("True", [], "U4B1F"), ("NO", ["--fixed-files"], "U4B1")])
    def test_plan_file_fixed_files_overrides_flag(self, tmp_path, value,
                                                  flags, label):
        plan = tmp_path / "p.plan"
        plan.write_text(f"axis = batch_size\nvalues = 1\n"
                        f"fixed_files = {value}\n")
        out = str(tmp_path / "runs.jsonl")
        assert run_cli("sweep", "--model", "ull", "--capacity", str(1 << 24),
                       "--plan", str(plan), "--engine", "uring", "--queue",
                       "4", *flags, "--requests", "20", "--out", out) == 0
        [rec] = [json.loads(line) for line in open(out)]
        assert rec["label"] == label
        assert rec["engine"]["fixed_files"] == label.endswith("F")

    @pytest.mark.parametrize("line", ["fixed_files = on", "block = 4k",
                                      "values = 1,,4", "parallelism = 2.5",
                                      "pattern = zigzag"])
    def test_refused_value_names_file_key_and_value(self, tmp_path, capsys,
                                                    line):
        key, value = line.split(" = ")
        path = tmp_path / "settings"
        if key == "parallelism":  # a model file
            path.write_text(f"kind = custom\n{line}\n")
            argv = ["run", "--model", str(path)]
        else:
            path.write_text(f"axis = threads\nvalues = 1\n{line}\n")
            argv = ["sweep", "--model", "ull", "--plan", str(path)]
        assert run_cli(*argv, "--requests", "10") == 1
        err = capsys.readouterr().err
        assert f"{str(path)!r}: {key} = {value!r}: " in err

    def test_invalid_model_names_file_and_key(self, tmp_path, capsys):
        # the value parses, and the model refuses it
        path = tmp_path / "dev.model"
        path.write_text("kind = custom\nparallelism = 0\n")
        assert run_cli("run", "--model", str(path), "--requests", "10") == 1
        err = capsys.readouterr().err
        assert f"{str(path)!r}: parallelism must be >= 1" in err

    def test_whole_scan_prints_windows(self, capsys):
        capacity = 1 << 22
        assert run_cli("sweep", "--model", "ull", "--capacity", str(capacity),
                       "--plan", "whole-scan") == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "window_start_bytes,mb_s"
        window = capacity // 64  # the default window
        starts = [int(row.split(",")[0]) for row in rows]
        assert starts == [i * window for i in range(64)]
        assert all(float(row.split(",")[1]) > 0 for row in rows)

    def test_plan_file_unknown_key(self, tmp_path, capsys):
        plan = tmp_path / "p.plan"
        plan.write_text("axis = batch_size\nvalues = 1,2\nfixed_file = 1\n")
        assert run_cli("sweep", "--model", "ull", "--plan", str(plan),
                       "--engine", "uring", "--queue", "4",
                       "--requests", "10") == 1
        assert "unknown key 'fixed_file'" in capsys.readouterr().err

    def test_paper_best_keeps_ring_flags(self, tmp_path):
        out = str(tmp_path / "runs.jsonl")
        assert run_cli("sweep", "--model", "nvme", "--capacity",
                       str(1 << 24), "--plan", "paper-best", "--engine",
                       "uring", "--fixed-files", "--fixed-buffers",
                       "--requests", "50", "--out", out) == 0
        labels = [json.loads(line)["label"]
                  for line in open(out).read().splitlines()]
        assert labels == ["U16B2MFT3"]

    def test_paper_best_repeats_and_tags(self, tmp_path):
        out = str(tmp_path / "runs.jsonl")
        assert run_cli("sweep", "--model", "nvme", "--capacity",
                       str(1 << 24), "--plan", "paper-best", "--engine",
                       "uring", "--fixed-files", "--fixed-buffers",
                       "--repeat", "2", "--requests", "50", "--out", out) == 0
        recs = [json.loads(line) for line in open(out).read().splitlines()]
        assert [r["label"] for r in recs] == ["U16B2MFT3"] * 2
        for r in recs:
            assert (r["plan"], r["axis"], r["axis_value"]) == \
                ("paper-best", "threads", 3)

    @pytest.mark.parametrize("model,labels", [
        ("hdd", ["A16B16"]), ("sata-ssd", ["A16B2"]), ("nvme-ssd", ["A16B1T3"]),
        ("ull", ["A16B4T2"]),
        ("custom", ["A16B4T2", "A16B1T3", "A16B2", "A16B16"])])
    def test_paper_best_rows_of_device_class(self, tmp_path, model, labels):
        if model == "custom":
            path = tmp_path / "dev.model"
            path.write_text("kind = custom\nbase_latency_us = 25\n"
                            "parallelism = 4\n")
            model = str(path)
        out = str(tmp_path / "runs.jsonl")
        assert run_cli("sweep", "--model", model, "--capacity", str(1 << 24),
                       "--plan", "paper-best", "--engine", "aio",
                       "--requests", "20", "--out", out) == 0
        assert [json.loads(line)["label"]
                for line in open(out).read().splitlines()] == labels

    def test_paper_best_row_error_recorded_in_place(self, tmp_path, capsys,
                                                    monkeypatch):
        real_run = sweep.run

        def failing_run(wl, eng):
            if eng.batch_size == 16:
                raise IoError("injected")
            return real_run(wl, eng)

        monkeypatch.setattr(sweep, "run", failing_run)
        out = str(tmp_path / "runs.jsonl")
        path = tmp_path / "dev.model"
        path.write_text("kind = custom\nbase_latency_us = 25\n")
        assert run_cli("sweep", "--model", str(path), "--capacity",
                       str(1 << 24), "--plan", "paper-best", "--engine",
                       "aio", "--requests", "20", "--out", out) == 0
        assert "error at threads=1: IoError: injected" in \
            capsys.readouterr().err
        assert [json.loads(line)["label"]
                for line in open(out).read().splitlines()] == \
            ["A16B4T2", "A16B1T3", "A16B2"]

    def test_paper_best_real_file_runs_every_row(self, tmp_path):
        path = str(tmp_path / "t.dat")
        run_cli("prepare", "--path", path, "--size", str(1 << 20))
        out = str(tmp_path / "runs.jsonl")
        assert run_cli("sweep", "--path", path, "--buffered", "--plan",
                       "paper-best", "--engine", "uring", "--allow-fallback",
                       "--requests", "60", "--out", out) == 0
        assert [json.loads(line)["label"]
                for line in open(out).read().splitlines()] == \
            ["U4B2T3", "U16B2T3", "U32B8", "U1B1"]

    @pytest.mark.parametrize("plan", ["queue-sweep", "file", "paper-best"])
    def test_unsupported_engine_exits_3(self, tmp_path, capsys, monkeypatch,
                                        plan):
        monkeypatch.setattr(uring_native.platform, "machine",
                            lambda: "aarch64")
        path = str(tmp_path / "t.dat")
        run_cli("prepare", "--path", path, "--size", str(1 << 20))
        if plan == "file":
            plan = str(tmp_path / "p.plan")
            open(plan, "w").write("axis = queue_size\nvalues = 1,2\n")
        capsys.readouterr()
        assert run_cli("sweep", "--path", path, "--buffered", "--plan", plan,
                       "--engine", "uring", "--requests", "20") == 3
        err = capsys.readouterr().err
        assert err.count("aarch64") == 1 and "error at" not in err

    def test_unknown_plan(self):
        assert run_cli("sweep", "--model", "nvme", "--plan", "bogus",
                       "--requests", "10") == 2


def test_list_engines(capsys):
    assert run_cli("list-engines") == 0
    info = json.loads(capsys.readouterr().out)
    assert set(info) == {"sync", "polled", "pool", "aio", "uring", "loop"}
    assert set(info["loop"]) == {"native", "detail"}
