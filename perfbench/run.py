"""selmerfan benchmark: time one workload end to end and check its outputs.

    python3 perfbench/run.py --workload classify-cold --seed 7 --seconds 20 --trace 0

Run from the root of a checkout. Each set-up sample is a fresh worker
process (interpreter start, imports, curve file, cache prefill), timed
from spawn until it reports ready; the last one goes on to the timed
passes, so `peak_rss_mb` and `setup_s` belong to this run alone. This is
a closed loop: one client, one operation at a time, no think time; the
benchmark adds no threads, and only `classify --jobs 2` starts workers.

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer ones from a traced pass. The last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. The exit
code is 0 when every output matches its golden (a recorded known defect
still counts in `failed`), 1 when one does not, 2 when the checkout has
no program to measure.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    pass


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise WorkerError("worker exited or timed out before answering")
    return line


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[list[float], dict]:
    """Set up SETUP_SAMPLES times (once when tracing); run the last one."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup_s: list[float] = []
    samples = 1 if trace else SETUP_SAMPLES
    for k in range(samples):
        workdir = WORK / f"{workload}-{k}"
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(workdir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            if _read_line(proc, deadline).strip() != "ready":
                raise WorkerError("worker did not report ready")
            setup_s.append(time.perf_counter() - t0)
            if k < samples - 1:
                proc.stdin.write("quit\n")
                proc.stdin.flush()
            else:
                proc.stdin.write(f"run {seconds} {int(trace)}\n")
                proc.stdin.flush()
                result = json.loads(_read_line(proc, deadline))
            proc.stdin.close()
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            _stop(proc)
            shutil.rmtree(workdir, ignore_errors=True)
    return setup_s, result


def _summary(name: str, values: list[float], unit: str) -> str:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return (f"{name:<12} median {q2:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  "
                f"(n={len(values)})")
    return f"{name:<12} {values[0]:.4f} {unit}  (n=1)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "selmerfan" / "cli.py").is_file():
        print(f"no selmerfan sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    try:
        setup_s, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, json.JSONDecodeError, subprocess.TimeoutExpired) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    ops = result["setup_ops"] + [op for p in result["passes"] for op in p]
    failed = [op for op in ops if op["problem"]]
    correct = all(op["known_defect"] for op in failed)
    for op in failed:
        tag = "known defect" if op["known_defect"] else "FAILED"
        print(f"{tag}: {op['id']}: {op['problem']}\n{op['stderr']}", file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["layer_metrics"].items()}
        for name, m in metrics.items():
            print(f"{name:<44} {m['value']:.6g} {m['unit']}")
    else:
        walls = [sum(op["wall_s"] for op in p) for p in result["passes"]]
        cpus = [sum(op["cpu_s"] for op in p) for p in result["passes"]]
        print(f"workload {args.workload}, seed {args.seed}: {len(walls)} timed passes "
              f"of {len(result['passes'][0])} operations, {len(setup_s)} set-ups")
        for name, values, unit in (("wall_s", walls, "s"), ("cpu_s", cpus, "s"),
                                   ("setup_s", setup_s, "s")):
            print(_summary(name, values, unit))
        print(f"{'peak_rss_mb':<12} {result['peak_rss_mb']:.1f} MB")
        print("pass wall_s: " + " ".join(f"{w:.3f}" for w in walls))
        for i, op in enumerate(result["passes"][0]):
            times = [p[i]["wall_s"] for p in result["passes"]]
            print(f"  op {op['id']:<20} median wall {statistics.median(times):.4f} s")
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        }
    print(f"{'ops_failed_frac':<12} {len(failed) / len(ops):.4f} ({len(failed)} of {len(ops)})")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
