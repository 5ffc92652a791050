"""End-to-end command-line behaviour: exit codes, reports, reproducibility."""
import hashlib
import json
import os
import stat
import subprocess
import sys

import pytest

import selmerfan
from selmerfan.cli import RunConfig, main, parse_synthetic, run
from selmerfan.errors import ConfigError


@pytest.fixture()
def curve_file(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("label,A,B\nfix,1,1\nj0,0,1\n")
    return str(path)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    monkeypatch.setenv("SELMERFAN_CACHE_DIR", cache)
    return cache


class TestParseSynthetic:
    def test_single_block(self):
        assert parse_synthetic("3x1s") == [(1, "split")] * 3

    def test_mixed(self):
        stream = parse_synthetic("2x1s+1x2s+2x0i")
        assert stream == [(1, "split"), (1, "split"), (2, "split"), (0, "inert"), (0, "inert")]

    def test_garbage(self):
        for bad in ["", "3x5s", "x1s", "3x1q", "3x1s++"]:
            with pytest.raises(ConfigError):
                parse_synthetic(bad)


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["stationary", "--parity", "even"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("s,mass")
        assert "0.319502" in out

    def test_config_error_is_2(self, capsys):
        assert main(["simulate", "--trials", "0", "--seed", "1", "--synthetic", "3x1s"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_seed_is_2(self, capsys):
        assert main(["simulate", "--trials", "10", "--synthetic", "3x1s"]) == 2

    def test_data_error_is_3(self, capsys, cache_dir):
        rc = main(
            ["classify", "--curve-file", "/no/such.csv", "--label", "x", "--max-prime", "200"]
        )
        assert rc == 3
        assert "data error" in capsys.readouterr().err

    def test_unknown_label_is_2(self, capsys, curve_file, cache_dir):
        rc = main(
            ["classify", "--curve-file", curve_file, "--label", "nope", "--max-prime", "200"]
        )
        assert rc == 2

    def test_argparse_rejects_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestStationaryCommand:
    def test_csv_shape(self, capsys):
        main(["stationary", "--parity", "odd"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "s,mass"
        first_s, first_mass = lines[1].split(",")
        assert first_s == "1"
        assert float(first_mass) == pytest.approx(0.3195022883, abs=1e-9)

    def test_report_out_structure(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        main(["stationary", "--out", out])
        report = json.load(open(out))
        assert report["meta"]["command"] == "stationary"
        assert report["meta"]["version"]
        assert report["payload"]["distribution"]["0"] == pytest.approx(0.319502288319)


class TestReportDeterminism:
    def run_to(self, path, argv):
        assert main(argv + ["--out", path]) == 0
        return json.load(open(path))

    def test_same_config_same_payload(self, tmp_path, capsys):
        a = self.run_to(
            str(tmp_path / "a.json"),
            ["simulate", "--trials", "4000", "--seed", "5", "--synthetic", "12x1s"],
        )
        b = self.run_to(
            str(tmp_path / "b.json"),
            ["simulate", "--trials", "4000", "--seed", "5", "--synthetic", "12x1s"],
        )
        assert json.dumps(a["payload"], sort_keys=True) == json.dumps(b["payload"], sort_keys=True)

    def test_jobs_do_not_change_payload(self, tmp_path, capsys, curve_file, cache_dir):
        a = self.run_to(
            str(tmp_path / "a.json"),
            ["densities", "--curve-file", curve_file, "--label", "fix",
             "--max-prime", "1000", "--jobs", "1"],
        )
        # clear the cache so the second run recomputes with more workers
        for name in os.listdir(cache_dir):
            os.unlink(os.path.join(cache_dir, name))
        b = self.run_to(
            str(tmp_path / "b.json"),
            ["densities", "--curve-file", curve_file, "--label", "fix",
             "--max-prime", "1000", "--jobs", "4"],
        )
        assert json.dumps(a["payload"], sort_keys=True) == json.dumps(b["payload"], sort_keys=True)

    def test_warm_cache_reuses_bytes(self, tmp_path, capsys, curve_file, cache_dir):
        self.run_to(
            str(tmp_path / "a.json"),
            ["classify", "--curve-file", curve_file, "--label", "fix", "--max-prime", "500"],
        )
        cache_file = os.path.join(cache_dir, "fix.jsonl")
        before = open(cache_file, "rb").read()
        b = self.run_to(
            str(tmp_path / "b.json"),
            ["classify", "--curve-file", curve_file, "--label", "fix", "--max-prime", "500"],
        )
        assert open(cache_file, "rb").read() == before
        assert b["payload"]["fresh"] == 0
        assert b["payload"]["reused"] == b["payload"]["records"]
        assert b["meta"]["cache_checksum"]

    def test_cache_for_another_curve_is_3(self, tmp_path, capsys, curve_file, cache_dir):
        argv = ["--label", "fix", "--max-prime", "200"]
        assert main(["classify", "--curve-file", curve_file] + argv) == 0
        other = tmp_path / "other.csv"
        other.write_text("fix,2,3\n")
        capsys.readouterr()
        assert main(["densities", "--curve-file", str(other)] + argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "data error" in captured.err

    def test_torn_last_cache_line_is_replaced(self, tmp_path, capsys, curve_file, cache_dir):
        argv = ["classify", "--curve-file", curve_file, "--label", "fix", "--max-prime", "300"]
        cache_file = os.path.join(cache_dir, "fix.jsonl")
        assert main(argv) == 0
        clean = hashlib.sha256(open(cache_file, "rb").read()).hexdigest()
        os.truncate(cache_file, os.path.getsize(cache_file) - 20)
        assert main(argv) == 0
        assert hashlib.sha256(open(cache_file, "rb").read()).hexdigest() == clean

    def test_atomic_out_leaves_no_temp_files(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        out = str(out_dir / "r.json")
        main(["tailbound", "--s", "6", "--out", out])
        assert sorted(os.listdir(out_dir)) == ["r.json"]

    def test_out_to_fifo_writes_in_place(self, tmp_path, capsys):
        fifo = str(tmp_path / "report.fifo")
        os.mkfifo(fifo)
        # hold the read end open first, or opening the FIFO to write blocks
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["tailbound", "--s", "6", "--out", fifo]) == 0
            data = os.read(fd, 1 << 16)
        finally:
            os.close(fd)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert json.loads(data)["meta"]["command"] == "tailbound"


class TestRunApi:
    def test_run_returns_report(self):
        report = run(RunConfig(subcommand="tailbound", s=8))
        assert report.payload["exact"] < report.payload["bound"]
        assert report.meta["config"]["s"] == 8

    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError):
            run(RunConfig(subcommand="nope"))

    def test_floats_are_trimmed_to_12_digits(self):
        report = run(RunConfig(subcommand="stationary", parity="even"))
        for mass in report.payload["distribution"].values():
            assert float(f"{mass:.12g}") == mass


class TestFanCommand:
    def test_fan_with_cubics_and_trials(self, tmp_path, capsys, curve_file, cache_dir):
        cubics = str(tmp_path / "cubics.csv")
        out = str(tmp_path / "fan.json")
        rc = main(
            ["fan", "--curve-file", curve_file, "--label", "fix", "--m", "2", "--w", "2",
             "--X", "40", "--growth", "pow:1", "--emit-cubics", cubics,
             "--trials", "3000", "--seed", "11", "--out", out]
        )
        assert rc == 0
        report = json.load(open(out))
        assert report["payload"]["count"] > 0
        assert report["payload"]["tv_to_evolve"] < 0.2
        lines = open(cubics).read().splitlines()
        assert lines[0] == "d,polynomial"
        assert len(lines) == report["payload"]["count"] + 1
        first = report["payload"]["elements"][0]
        assert first["lift_count"] == 36
        assert first["cubic_poly"].startswith("x^3 - ")

    def test_empty_fan_is_2(self, capsys, curve_file, cache_dir):
        rc = main(
            ["fan", "--curve-file", curve_file, "--label", "fix", "--m", "2", "--w", "2",
             "--X", "40", "--growth", "log", "--trials", "100", "--seed", "1"]
        )
        assert rc == 2
        assert "empty fan" in capsys.readouterr().err


class TestLagrangianCommand:
    def test_counts(self, capsys):
        assert main(["lagrangians", "--dim", "4", "--blocks", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 8
        assert payload["coordinatewise_count"] == 4

    def test_gram_file(self, tmp_path, capsys):
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps([[0, 1], [1, 0]]))
        assert main(["lagrangians", "--dim", "2", "--gram", str(gram)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2

    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("enumerate_subspaces called")

        monkeypatch.setattr("selmerfan.f3geom.enumerate_subspaces", refuse)

    def test_odd_block_dimension_is_2(self, capsys, no_enumeration):
        assert main(["lagrangians", "--dim", "6", "--blocks", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err

    def test_dim_above_cap_is_2(self, capsys, no_enumeration):
        assert main(["lagrangians", "--dim", "8"]) == 2
        assert "capped at 6" in capsys.readouterr().err

    def test_bad_gram_file_is_3(self, tmp_path, capsys):
        gram = tmp_path / "gram.json"
        gram.write_text("not json")
        assert main(["lagrangians", "--dim", "2", "--gram", str(gram)]) == 3


class TestClosedStdout:
    def test_closed_pipe_is_1_without_traceback(self):
        # a child process, so that pointing fd 1 at devnull cannot touch the
        # test's own capture; the read end is closed before the child starts,
        # so its first write fails for certain
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(selmerfan.__file__)))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "selmerfan", "gl2f3-report"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr


class TestGroupReportCommand:
    def test_payload(self, capsys):
        assert main(["gl2f3-report"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["group_order"] == 48
        assert len(payload["conjugacy_classes"]) == 8
        assert payload["sl2_no_index2_normal"] is True
        nonsquare = {(row["order"], row["fixed_dim"]): row["count"]
                     for row in payload["det_coset_stats"]["2"]}
        assert nonsquare == {(2, 1): 12, (8, 0): 12}
        assert payload["fixed_dim_densities"]["1"]["0"] == "5/8"
