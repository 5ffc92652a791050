"""End-to-end command-line behaviour: exit codes, reports, reproducibility."""
import argparse
import hashlib
import json
import os
import stat
import subprocess
import sys

import pytest

import selmerfan
from selmerfan.cli import main, parse_args, parse_synthetic, run
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

    def test_longest_curve_stream_is_accepted(self):
        assert len(parse_synthetic("78000x1s+498x0i")) == 78_498

    def test_longer_than_any_curve_stream_is_refused(self):
        # too long in total, in one token, and in more digits than int() will parse
        for spec in ["78000x1s+499x0i", "1000000000x1s", "9" * 5000 + "x1s"]:
            with pytest.raises(ConfigError, match="78498"):
                parse_synthetic(spec)


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["stationary", "--parity", "even"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("s,mass")
        assert "0.319502" in out

    def test_config_error_is_2(self, capsys):
        assert main(["simulate", "--trials", "0", "--seed", "1", "--synthetic", "3x1s"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_oversized_synthetic_stream_is_2(self, capsys):
        assert main(["simulate", "--trials", "1", "--seed", "1", "--synthetic", "78499x1s"]) == 2
        assert "exceeds 78498 primes" in capsys.readouterr().err

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

    @pytest.fixture
    def no_point_counts(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("ap called")

        monkeypatch.setattr("selmerfan.curves.ap", refuse)

    def test_classify_past_prime_cap_is_2_before_any_work(
        self, capsys, curve_file, cache_dir, no_point_counts
    ):
        rc = main(
            ["classify", "--curve-file", curve_file, "--label", "fix", "--max-prime", "1000003"]
        )
        assert rc == 2
        assert "exceeds the supported bound" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(cache_dir, "fix.jsonl"))

    def test_fan_past_prime_cap_is_2_before_any_work(
        self, capsys, curve_file, cache_dir, no_point_counts
    ):
        # the second norm bound is 1001^2, just past the cap of 10^6
        rc = main(
            ["fan", "--curve-file", curve_file, "--label", "fix", "--m", "2", "--w", "1",
             "--X", "1001", "--growth", "pow:1"]
        )
        assert rc == 2
        assert "exceeds the supported bound" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(cache_dir, "fix.jsonl"))

    def test_fan_trials_without_seed_is_2_before_any_work(
        self, tmp_path, capsys, curve_file, cache_dir, no_point_counts
    ):
        cubics = str(tmp_path / "cubics.csv")
        rc = main(
            ["fan", "--curve-file", curve_file, "--label", "fix", "--m", "2", "--w", "2",
             "--X", "40", "--growth", "pow:1", "--emit-cubics", cubics, "--trials", "100"]
        )
        assert rc == 2
        assert "--seed" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(cache_dir, "fix.jsonl"))
        assert not os.path.exists(cubics)

    def test_non_positive_trials_is_2_before_any_work(
        self, tmp_path, capsys, curve_file, cache_dir, no_point_counts
    ):
        cubics = str(tmp_path / "cubics.csv")
        curve = ["--curve-file", curve_file, "--label", "fix", "--seed", "1"]
        for argv in (
            ["simulate", *curve, "--max-prime", "20000", "--trials", "0"],
            ["fan", *curve, "--m", "2", "--w", "2", "--X", "40", "--growth", "pow:1",
             "--emit-cubics", cubics, "--trials", "-3"],
        ):
            assert main(argv) == 2, argv
            assert "--trials must be positive" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(cache_dir, "fix.jsonl"))
        assert not os.path.exists(cubics)

    def test_negative_seed_is_2_before_any_work(
        self, tmp_path, capsys, curve_file, cache_dir, no_point_counts
    ):
        cubics = str(tmp_path / "cubics.csv")
        curve = ["--curve-file", curve_file, "--label", "fix", "--seed", "-3"]
        for argv in (
            ["simulate", "--trials", "3", "--synthetic", "2x1s", "--seed", "-1"],
            ["simulate", *curve, "--max-prime", "20000", "--trials", "3"],
            ["fan", *curve, "--m", "2", "--w", "2", "--X", "40", "--growth", "pow:1",
             "--emit-cubics", cubics, "--trials", "10"],
        ):
            assert main(argv) == 2, argv
            assert "--seed must be non-negative" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(cache_dir, "fix.jsonl"))
        assert not os.path.exists(cubics)

    def test_synthetic_with_curve_flags_is_2_before_any_work(
        self, capsys, monkeypatch, curve_file, cache_dir, no_point_counts
    ):
        def refuse(*args):
            raise RuntimeError("uniforms drawn")

        monkeypatch.setattr("selmerfan.chain._Substreams.draw", refuse)
        synthetic = ["simulate", "--synthetic", "3x1s", "--trials", "10", "--seed", "1"]
        for flags, name in ((["--curve-file", curve_file], "--curve-file"),
                            (["--label", "nosuch"], "--label"),
                            (["--max-prime", "7"], "--max-prime"),
                            (["--curve-file", curve_file, "--label", "nosuch", "--max-prime", "7"],
                             "--curve-file")):
            assert main([*synthetic, *flags]) == 2, flags
            assert f"--synthetic takes no {name}" in capsys.readouterr().err
        assert not os.path.exists(cache_dir)

    def test_trials_past_one_spawn_word_is_2_before_any_draw(self, capsys, monkeypatch):
        def refuse(*args):
            raise RuntimeError("uniforms drawn")

        monkeypatch.setattr("selmerfan.chain._Substreams.draw", refuse)
        argv = ["simulate", "--trials", "4294967297", "--seed", "1", "--synthetic", "3x1s"]
        assert main(argv) == 2
        assert "at most 2^32" in capsys.readouterr().err

    def test_trials_past_one_spawn_word_is_2_before_any_cache_work(
        self, tmp_path, capsys, curve_file, cache_dir, no_point_counts
    ):
        cubics = str(tmp_path / "cubics.csv")
        curve = ["--curve-file", curve_file, "--label", "fix", "--seed", "1"]
        for argv in (
            ["simulate", *curve, "--max-prime", "20000", "--trials", "4294967297"],
            ["fan", *curve, "--m", "2", "--w", "2", "--X", "40", "--growth", "pow:1",
             "--emit-cubics", cubics, "--trials", "4294967297"],
        ):
            assert main(argv) == 2, argv
            assert "--trials must be at most 2^32" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(cache_dir, "fix.jsonl"))
        assert not os.path.exists(cubics)

    @pytest.mark.parametrize(
        "bound", [["--X", "inf", "--growth", "pow:1"], ["--X", "nan", "--growth", "pow:1"],
                  ["--X", "40", "--growth", "pow:nan"]],
        ids=["X-inf", "X-nan", "pow-nan"],
    )
    def test_non_finite_fan_bound_is_2_before_any_work(
        self, bound, capsys, curve_file, cache_dir, no_point_counts
    ):
        rc = main(["fan", "--curve-file", curve_file, "--label", "fix", "--m", "1", "--w", "1",
                   *bound])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(cache_dir, "fix.jsonl"))

    @pytest.mark.parametrize("s, code", [(64, 0), (65, 2), (76, 2)])
    def test_tailbound_past_s_max_is_2(self, s, code, capsys):
        assert main(["tailbound", "--s", str(s)]) == code

    def test_densities_below_100_is_2_before_any_work(
        self, capsys, curve_file, cache_dir, no_point_counts
    ):
        rc = main(
            ["densities", "--curve-file", curve_file, "--label", "fix", "--max-prime", "99"]
        )
        assert rc == 2
        assert "max_prime >= 100" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(cache_dir, "fix.jsonl"))

    def test_classify_without_max_prime_is_2_before_any_work(self, capsys, curve_file, cache_dir):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--curve-file", curve_file, "--label", "fix"])
        assert exc.value.code == 2
        assert "--max-prime" in capsys.readouterr().err
        assert not os.path.exists(cache_dir)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_1_is_2_before_any_work(self, capsys, curve_file, cache_dir, jobs):
        rc = main(["classify", "--curve-file", curve_file, "--label", "fix",
                   "--max-prime", "1000", "--jobs", jobs])
        assert rc == 2
        assert f"--jobs must be positive, got {jobs}" in capsys.readouterr().err
        assert not os.path.exists(cache_dir)

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

    def test_label_outside_the_cache_dir_is_3_and_writes_nothing(self, tmp_path, capsys, cache_dir):
        curves = tmp_path / "escape.csv"
        curves.write_text("../escaped,1,1\n")
        argv = ["--curve-file", str(curves), "--label", "../escaped", "--max-prime", "200"]
        assert main(["classify"] + argv) == 3
        assert "not a plain file name" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["escape.csv"]

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

    def test_new_out_file_gets_the_umask_mode(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        old = os.umask(0o022)
        try:
            assert main(["tailbound", "--s", "6", "--out", out]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o644

    def test_existing_out_file_keeps_its_mode(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        out.write_text("old\n")
        out.chmod(0o600)
        old = os.umask(0o022)
        try:
            assert main(["tailbound", "--s", "6", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o600
        assert out.read_text() != "old\n"

    # the stream crosses every jump table: split and inert class 1, class 2
    # and the class-0 no-op; recorded before the jumps were read off a table
    def test_simulate_stdout_is_pinned(self, capsys):
        argv = ["simulate", "--trials", "4000", "--seed", "5", "--rho", "0.6",
                "--synthetic", "6x1s+2x2s+3x0i+2x1i"]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "2523dd1fd0c67d1c8b4b0662b95b40093950f14332f9d7ba51fa702e86368951"

    # width 4401 walks 3000 trials in four chunks of up to 953 rows; recorded from the one-matrix walk
    def test_multi_chunk_simulate_stdout_is_pinned(self, capsys):
        argv = ["simulate", "--trials", "3000", "--seed", "5",
                "--synthetic", "2100x1s+40x2s+30x0i+30x1i"]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "0aad1d6ca15c9bf1598106e1a85cc2e3187f9336960f44e1c5935fa50e7ae6c7"

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


class TestUnreadableInputs:
    """An input that cannot be read is a data error (exit 3) that names the path."""

    def check(self, argv, path, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(path) in err
        assert "Traceback" not in err

    def test_curve_file_that_is_a_directory(self, tmp_path, capsys, cache_dir):
        argv = ["classify", "--curve-file", str(tmp_path), "--label", "fix", "--max-prime", "200"]
        self.check(argv, tmp_path, capsys)

    def test_curve_file_that_is_not_utf8(self, tmp_path, capsys, cache_dir):
        curves = tmp_path / "curves.csv"
        curves.write_bytes(b"label,A,B\nfix,1,1\nbad\xff,0,1\n")
        argv = ["classify", "--curve-file", str(curves), "--label", "fix", "--max-prime", "200"]
        self.check(argv, curves, capsys)

    def test_gram_file_that_is_a_directory(self, tmp_path, capsys):
        self.check(["lagrangians", "--dim", "2", "--gram", str(tmp_path)], tmp_path, capsys)

    @pytest.mark.parametrize("command", [
        ["densities", "--max-prime", "200"],
        ["fan", "--m", "2", "--w", "2", "--X", "40", "--growth", "pow:1"],
    ], ids=["densities", "fan"])
    def test_cache_with_a_non_ascii_byte(self, command, capsys, curve_file, cache_dir):
        assert main(["classify", "--curve-file", curve_file, "--label", "fix",
                     "--max-prime", "200"]) == 0
        cache_file = os.path.join(cache_dir, "fix.jsonl")
        with open(cache_file, "ab") as fh:
            fh.write(b"\xff")
        argv = [command[0], "--curve-file", curve_file, "--label", "fix", *command[1:]]
        self.check(argv, cache_file, capsys)

    @pytest.mark.parametrize("name", ["fix.jsonl", "fix.curve"], ids=["cache", "stamp"])
    def test_cache_file_that_is_a_directory(self, name, capsys, curve_file, cache_dir):
        path = os.path.join(cache_dir, name)
        os.makedirs(path)
        argv = ["classify", "--curve-file", curve_file, "--label", "fix", "--max-prime", "200"]
        self.check(argv, path, capsys)


class TestUnwritableOutputs:
    """An output path that cannot be written is a configuration error (exit 2) naming it."""

    def check(self, argv, path, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(path) in err
        assert "Traceback" not in err

    def test_out_that_is_a_directory(self, tmp_path, capsys):
        self.check(["tailbound", "--s", "6", "--out", str(tmp_path)], tmp_path, capsys)
        assert os.listdir(tmp_path) == []

    def test_out_under_a_regular_file(self, tmp_path, capsys):
        parent = tmp_path / "file"
        parent.write_text("kept\n")
        out = parent / "r.json"
        self.check(["tailbound", "--s", "6", "--out", str(out)], out, capsys)
        assert parent.read_text() == "kept\n"

    def test_cubics_to_a_directory(self, tmp_path, capsys, curve_file, cache_dir):
        target = tmp_path / "cubics"
        target.mkdir()
        argv = ["fan", "--curve-file", curve_file, "--label", "fix", "--m", "2", "--w", "1",
                "--X", "14", "--growth", "pow:1", "--emit-cubics", str(target)]
        self.check(argv, target, capsys)
        assert os.listdir(target) == []

    def test_out_that_is_a_directory_is_2_before_any_work(
        self, tmp_path, capsys, curve_file, cache_dir, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise RuntimeError("classified")

        monkeypatch.setattr("selmerfan.store.classify_primes", refuse)
        out = tmp_path / "reports"
        out.mkdir()
        argv = ["classify", "--curve-file", curve_file, "--label", "fix",
                "--max-prime", "1000000", "--out", str(out)]
        self.check(argv, out, capsys)
        assert not os.path.exists(cache_dir)

    def test_out_that_is_a_directory_leaves_the_cubics_file(
        self, tmp_path, capsys, curve_file, cache_dir
    ):
        out = tmp_path / "reports"
        out.mkdir()
        cubics = tmp_path / "cub.csv"
        cubics.write_bytes(b"d,polynomial\n-23,x^3 - x - 1\n")
        argv = ["fan", "--curve-file", curve_file, "--label", "fix", "--m", "2", "--w", "1",
                "--X", "14", "--growth", "pow:1", "--emit-cubics", str(cubics), "--out", str(out)]
        self.check(argv, out, capsys)
        assert cubics.read_bytes() == b"d,polynomial\n-23,x^3 - x - 1\n"
        assert os.listdir(out) == [] and not os.path.exists(cache_dir)

    def test_cache_dir_that_is_a_regular_file(self, tmp_path, capsys, curve_file, monkeypatch):
        cache = tmp_path / "cache"
        cache.write_text("kept\n")
        monkeypatch.setenv("SELMERFAN_CACHE_DIR", str(cache))
        argv = ["classify", "--curve-file", curve_file, "--label", "fix", "--max-prime", "200"]
        self.check(argv, cache, capsys)
        assert cache.read_text() == "kept\n"


class TestRunApi:
    def test_run_returns_report(self):
        report = run(parse_args(["tailbound", "--s", "8"]))
        assert report.payload["exact"] < report.payload["bound"]
        assert report.meta["config"]["s"] == 8

    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError):
            run(argparse.Namespace(subcommand="nope"))

    def test_floats_are_trimmed_to_12_digits(self):
        report = run(parse_args(["stationary", "--parity", "even"]))
        for mass in report.payload["distribution"].values():
            assert float(f"{mass:.12g}") == mass

    @pytest.mark.parametrize(
        "argv",
        [["stationary"], ["evolve", "--w", "3"], ["tailbound", "--s", "4"],
         ["lagrangians", "--dim", "2"], ["gl2f3-report"]],
        ids=lambda argv: argv[0],
    )
    def test_label_less_subcommands_run(self, argv):
        report = run(parse_args(argv))
        assert report.meta["command"] == argv[0]
        assert report.meta["cache_checksum"] is None

    def test_meta_lists_only_the_subcommands_flags(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        assert main(["evolve", "--w", "3", "--out", out]) == 0
        config = json.load(open(out))["meta"]["config"]
        assert config["w"] == 3 and config["rho"] == 1.0
        assert "blocks" not in config
        assert main(["stationary", "--out", out]) == 0
        config = json.load(open(out))["meta"]["config"]
        assert config["parity"] == "even"
        assert "rho" not in config and "blocks" not in config


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

    def fan_argv(self, curve_file, *args):
        return ["fan", "--curve-file", curve_file, "--label", "fix", "--m", "2", *args]

    def test_law_alone_renders_no_element(self, capsys, curve_file, cache_dir, monkeypatch):
        def refuse(self):
            raise RuntimeError("element rendered")

        monkeypatch.setattr("selmerfan.fans.FanElement.cubic_poly", property(refuse))
        argv = self.fan_argv(curve_file, "--w", "2", "--X", "40", "--growth", "pow:1",
                             "--trials", "300", "--seed", "1")
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("s,mass\n")

    @pytest.mark.parametrize(
        "flags",
        [["--m", "2", "--w", "2", "--X", "40", "--growth", "pow:1", "--trials", "300"],
         ["--m", "2", "--w", "1", "--X", "14", "--growth", "pow:1", "--trials", "300"],
         ["--m", "4", "--w", "2", "--X", "1", "--growth", "affine:0,30", "--trials", "40"]],
        ids=["draws-ranks", "every-rank", "rejection"],
    )
    def test_law_alone_never_lists_the_fan(
        self, flags, capsys, curve_file, cache_dir, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise RuntimeError("fan listed")

        monkeypatch.setattr("selmerfan.cli.enumerate_fan", refuse)
        argv = ["fan", "--curve-file", curve_file, "--label", "fix", *flags, "--seed", "1"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("s,mass\n")
        payload = run(parse_args(argv)).payload
        assert payload["count"] > 0 and "elements" not in payload

    def test_law_alone_is_capped_by_count(self, capsys, curve_file, cache_dir, monkeypatch):
        argv = self.fan_argv(curve_file, "--w", "2", "--X", "40", "--growth", "pow:1",
                             "--trials", "300", "--seed", "1")
        count = run(parse_args(argv)).payload["count"]
        monkeypatch.setattr("selmerfan.fans.MAX_FAN_ELEMENTS", count - 1)
        assert main(argv) == 2
        assert f"MAX_FAN_ELEMENTS = {count - 1}" in capsys.readouterr().err
        monkeypatch.setattr("selmerfan.fans.MAX_FAN_ELEMENTS", count)
        assert main(argv) == 0

    # recorded from element rows built field by field, so these pin the JSON
    # form `_render` gives a fan element
    def test_element_rows_are_pinned(self, capsys, curve_file, cache_dir):
        assert main(self.fan_argv(curve_file, "--w", "1", "--X", "14", "--growth", "pow:1")) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "bb7eb81d015aa6efb3378b4b234177bf2f060daa1e173914457f57a82a34ea96"

    def test_law_report_is_pinned(self, tmp_path, capsys, curve_file, cache_dir):
        out = str(tmp_path / "fan.json")
        argv = self.fan_argv(curve_file, "--w", "2", "--X", "40", "--growth", "pow:1",
                             "--trials", "3000", "--seed", "11", "--out", out)
        assert main(argv) == 0
        payload = json.load(open(out))["payload"]
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        assert digest == "b48b9f80a9241484318ef6629bc28a693f6a208abb7e288a8e27cc11fd35350d"

    # recorded while every element replayed through its own simulate_chain call; the
    # elements span 8 (m = 2) and 96 (m = 4) streams of prime kinds, with two allocations each
    @pytest.mark.parametrize(
        "flags, digest",
        [(["--m", "2", "--w", "1", "--X", "14", "--growth", "pow:1", "--trials", "1000",
           "--seed", "3", "--rho", "0.5"],
          "a3d9d2d6c642a036c2adafd88c2290543d385042e5388a37830d88dea758c24b"),
         (["--m", "4", "--w", "2", "--X", "3", "--growth", "affine:0,30", "--trials", "2000",
           "--seed", "5"],
          "4d18f2a84489bab28f9f2717e1e551568d1fa06c8edc2cda6b1ac903d8b3b4d3")],
        ids=["m2-w1", "m4-w2"],
    )
    def test_law_stdout_is_pinned(self, flags, digest, capsys, curve_file, cache_dir):
        assert main(["fan", "--curve-file", curve_file, "--label", "fix", *flags]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_empty_fan_is_2(self, capsys, curve_file, cache_dir):
        rc = main(
            ["fan", "--curve-file", curve_file, "--label", "fix", "--m", "2", "--w", "2",
             "--X", "40", "--growth", "log", "--trials", "100", "--seed", "1"]
        )
        assert rc == 2
        assert "empty fan" in capsys.readouterr().err

    # a fan the sampler refuses, as a DataError (m >= 4) or a ConfigError (m <= 3)
    @pytest.mark.parametrize("flags,code", [(["--m", "4", "--X", "5"], 3),
                                            (["--m", "2", "--X", "3"], 2)],
                             ids=["large", "small"])
    def test_refused_fan_leaves_the_cubics_file(
        self, flags, code, tmp_path, capsys, curve_file, cache_dir
    ):
        cubics = tmp_path / "cub.csv"
        cubics.write_bytes(b"d,polynomial\n-23,x^3 - x - 1\n")
        argv = ["fan", "--curve-file", curve_file, "--label", "fix", *flags, "--w", "2",
                "--growth", "pow:1", "--trials", "4", "--seed", "7", "--emit-cubics", str(cubics)]
        assert main(argv) == code
        assert "empty fan" in capsys.readouterr().err
        assert cubics.read_bytes() == b"d,polynomial\n-23,x^3 - x - 1\n"

    def test_empty_fan_without_trials_writes_the_bare_header(
        self, tmp_path, capsys, curve_file, cache_dir
    ):
        cubics = tmp_path / "cub.csv"
        cubics.write_bytes(b"d,polynomial\n-23,x^3 - x - 1\n")
        argv = ["fan", "--curve-file", curve_file, "--label", "fix", "--m", "2", "--w", "2",
                "--X", "3", "--growth", "pow:1", "--emit-cubics", str(cubics)]
        assert main(argv) == 0
        assert cubics.read_bytes() == b"d,polynomial\n"

    @pytest.fixture
    def no_proposals(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("Philox called")

        monkeypatch.setattr("numpy.random.Philox", refuse)

    def test_empty_large_fan_is_3_without_proposals(
        self, capsys, curve_file, cache_dir, no_proposals
    ):
        rc = main(
            ["fan", "--curve-file", curve_file, "--label", "fix", "--m", "4", "--w", "2",
             "--X", "5", "--growth", "pow:1", "--trials", "4", "--seed", "1"]
        )
        assert rc == 3
        assert "empty fan" in capsys.readouterr().err

    def test_large_fan_over_too_few_primes_is_2(
        self, capsys, curve_file, cache_dir, no_proposals
    ):
        # every bound is 12, and 5, 7 and 11 are the only support primes below it
        rc = main(
            ["fan", "--curve-file", curve_file, "--label", "fix", "--m", "4", "--w", "2",
             "--X", "1", "--growth", "affine:0,12", "--trials", "4", "--seed", "1"]
        )
        assert rc == 2
        assert "empty fan" in capsys.readouterr().err


class TestEvolveCommand:
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--w", "20000"], "7adf2fced324d695b1ed91d67b0aa53c18487b55cc079a1ec55dd575825815da"),
            (["--w", "20001", "--rho", "0.3"],
             "06ae50d48d106596e9a9c3562ee336e269caa732d871bbdc667f8db21fceb559"),
        ],
        ids=["w-20000", "w-20001-rho-0.3"],
    )
    def test_payload_is_pinned(self, argv, digest, tmp_path, capsys):
        # recorded while every step built and validated its own Distribution
        out = str(tmp_path / "evolve.json")
        assert main(["evolve", *argv, "--out", out]) == 0
        payload = json.load(open(out))["payload"]
        assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == digest


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

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--dim", "6"], "b869fc328e7518dbe8bc1ad9355508a56c552a52a2e841235aa722ddfabe47d7"),
            (["--dim", "6", "--blocks", "3"],
             "6b4077055d88c774207b3a51d60a927b99671bba8a40772b08a0c9845282c598"),
        ],
        ids=["dim-6", "dim-6-blocks-3"],
    )
    def test_stdout_is_pinned(self, argv, digest, capsys):
        # recorded while lagrangians still filtered all 33,880 subspaces
        assert main(["lagrangians", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.fixture
    def no_build(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("lagrangians called")

        # cli binds the name at import; coordinatewise builds call it in f3geom
        monkeypatch.setattr("selmerfan.cli.lagrangians", refuse)
        monkeypatch.setattr("selmerfan.f3geom.lagrangians", refuse)

    def test_odd_block_dimension_is_2(self, capsys, no_build):
        assert main(["lagrangians", "--dim", "6", "--blocks", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err

    def test_dim_above_cap_is_2(self, capsys, no_build):
        assert main(["lagrangians", "--dim", "8"]) == 2
        assert "capped at 6" in capsys.readouterr().err

    def test_bad_gram_file_is_3(self, tmp_path, capsys):
        gram = tmp_path / "gram.json"
        # int() would read each of the last three as the hyperbolic plane
        for text in ("not json", "[[0, 1.5], [1.5, 0]]", "[[0, true], [true, 0]]", '["01", "10"]'):
            gram.write_text(text)
            assert main(["lagrangians", "--dim", "2", "--gram", str(gram)]) == 3, text


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


def test_import_leaves_numpy_random_unloaded():
    # only sampling needs numpy.random; the other commands should not pay its import
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(selmerfan.__file__)))
    code = "import sys, selmerfan.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestClassOutputsArePinned:
    """sha256 of stdout, recorded while every GL2(F3) table was still counted
    over the 48 matrices, so drift in a table or a class read shows here."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["gl2f3-report"],
             "cbc56ee24754f22ee0678131437b844aee54f7aa0a07717b4da1bfcfd3b6f70b"),
            (["densities", "--label", "fix", "--max-prime", "5000"],
             "fe284537fef048b45a34a0889978193efb88c1f483c2a1be087f1576eefecdc5"),
            (["frobclass", "--label", "fix", "--p", "10111"],
             "9357d32a6283b02cab0b6728589c532a511d74b82eba10f15f88992874b7fc1b"),
            (["frobclass", "--label", "fix", "--p", "10141"],
             "db0373dfc6293b720706fe2c944ad642119570d5a1780a9c7b5b5abd8e07b721"),
            (["frobclass", "--label", "cm", "--p", "10009"],
             "7c3e476b4f3c9d4a584397a344b1e80ce40b4fc9bdf019caaa6400b3dc0da764"),
        ],
        ids=["gl2f3-report", "densities-fix", "frobclass-minus-I", "frobclass-unipotent",
             "frobclass-I"],
    )
    def test_stdout(self, argv, digest, tmp_path, capsys, cache_dir):
        if argv[0] != "gl2f3-report":
            curves = tmp_path / "curves.csv"
            curves.write_text("label,A,B\nfix,1,1\ncm,0,-432\n")
            argv = [argv[0], "--curve-file", str(curves), *argv[1:]]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
