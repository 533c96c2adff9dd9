"""End-to-end command-line exercises."""

import json

import pytest

from readbench.cli import main


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
        with pytest.raises(SystemExit):
            run_cli("run", "--requests", "10")

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

    def test_unknown_plan(self):
        assert run_cli("sweep", "--model", "nvme", "--plan", "bogus",
                       "--requests", "10") == 2


def test_list_engines(capsys):
    assert run_cli("list-engines") == 0
    info = json.loads(capsys.readouterr().out)
    assert set(info) == {"sync", "polled", "pool", "aio", "uring"}
