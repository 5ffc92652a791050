"""One benchmark run process: set up a workload, then time its operations.

Started by run.py as a fresh interpreter per set-up sample. It imports
selmerfan from the checkout's `src/`, writes the curve file, prefills the
cache when the workload needs it, prints `ready` and waits on stdin. On
`quit` it exits; on `run SECONDS TRACE` it times passes over the
workload's operations, calling `selmerfan.cli.main(argv)` for each one in
turn with no think time, checks every output, and prints one JSON result
line.

A pass is one walk over the operation list. Passes repeat while the next
one is expected to end within SECONDS (at least one runs). With TRACE=1
untraced and traced passes alternate instead (`classify --jobs 1` in
both) and the result carries per-layer metrics from the traced ones.
"""
from __future__ import annotations

import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import gate
import tracing
from workloads import PREFILL, WORKLOADS, argv_for, curves_csv

ROOT = Path(__file__).resolve().parent.parent


def _wall(ops: list[dict]) -> float:
    return sum(op["wall_s"] for op in ops)


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


class Run:
    """One workload in one process: work directory, imported CLI, goldens."""

    def __init__(self, workload: str, seed: int, workdir: Path, goldens: dict | None = None) -> None:
        self.workload, self.seed = workload, seed
        self.csv = workdir / "curves.csv"
        self.cache_dir = workdir / "cache"
        self.goldens = gate.load_goldens() if goldens is None else goldens
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        self.csv.write_text(curves_csv(), encoding="utf-8")
        os.environ["SELMERFAN_CACHE_DIR"] = str(self.cache_dir)
        sys.path.insert(0, str(ROOT / "src"))
        import selmerfan.cli
        import selmerfan.f3geom  # noqa: F401  (cli imports it lazily)
        import selmerfan.gl2f3  # noqa: F401
        from selmerfan.chain import MASS_TOL

        if not Path(selmerfan.cli.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"selmerfan imported from {selmerfan.cli.__file__}, not {ROOT}/src")
        self.main, self.mass_tol = selmerfan.cli.main, MASS_TOL
        # in-process memo tables; each CLI call in real use starts without them
        self.memos = [v for name, m in sys.modules.items() if name.startswith("selmerfan.")
                      for v in vars(m).values() if hasattr(v, "cache_clear")]
        self.setup_ops = [self.run_op(PREFILL[workload])] if workload in PREFILL else []

    def run_op(self, op, serial: bool = False, recorder=None) -> dict:
        argv = argv_for(op, str(self.csv), self.seed, serial)
        out, err = io.StringIO(), io.StringIO()
        if recorder:
            recorder.op = op.id
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.main(argv)
        except Exception:  # an uncaught exception is a failed operation, not a crashed run
            code = None
            err.write(traceback.format_exc())
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        stdout = out.getvalue()
        problem = gate.check(op, self.workload, code, stdout, self.seed, self.cache_dir,
                             self.goldens, self.mass_tol)
        return {
            "id": op.id, "exit": code, "wall_s": wall, "cpu_s": cpu,
            "sha256": gate.payload_sha256(stdout, str(self.cache_dir)),
            "stdout_bytes": len(stdout.encode()), "problem": problem,
            "known_defect": op.known_defect, "stderr": err.getvalue()[-2000:],
        }

    def run_pass(self, serial: bool = False, recorder=None) -> list[dict]:
        for memo in self.memos:
            memo.cache_clear()
        if self.workload not in PREFILL:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        return [self.run_op(op, serial, recorder) for op in WORKLOADS[self.workload]]

    def timed(self, seconds: float) -> list[list[dict]]:
        passes: list[list[dict]] = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass())
            if time.perf_counter() - start + _wall(passes[-1]) > seconds:
                return passes

    def traced(self, seconds: float) -> tuple[list[list[dict]], dict]:
        """Alternate untraced and traced passes while the next pair fits.

        Per-layer metrics come from the last traced pass; the overhead
        compares the median traced pass with the median untraced one.
        """
        serial = self.workload == "classify-cold"
        plain: list[list[dict]] = []
        traced: list[list[dict]] = []
        start = time.perf_counter()
        while True:
            plain.append(self.run_pass(serial))
            recorder = tracing.Recorder()
            recorder.install()
            try:
                traced.append(self.run_pass(serial, recorder))
            finally:
                recorder.uninstall()
            pair = _wall(plain[-1]) + _wall(traced[-1])
            if time.perf_counter() - start + pair > seconds:
                break
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        recorder.write_jsonl(out_dir / f"trace-{self.workload}-seed{self.seed}.jsonl")
        metrics = tracing.layer_metrics(recorder.spans, sum(op["stdout_bytes"] for op in traced[-1]))
        overhead = statistics.median(map(_wall, traced)) / statistics.median(map(_wall, plain))
        metrics["trace.overhead_frac"] = (overhead - 1.0, "ratio")
        return plain + traced, metrics

def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    run = Run(workload, seed, workdir)
    print("ready", flush=True)
    command = sys.stdin.readline().split()
    if command[:1] != ["run"]:
        return 0
    seconds, trace = float(command[1]), command[2] == "1"
    metrics = {}
    if trace:
        passes, metrics = run.traced(seconds)
    else:
        passes = run.timed(seconds)
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "setup_ops": run.setup_ops,
        "passes": passes,
        "peak_rss_mb": max(me, kids) / 1024.0,
        "layer_metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
