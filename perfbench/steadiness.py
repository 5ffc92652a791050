"""Run the benchmark repeatedly and report the spread of each metric.

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 30 --label set-a

Runs `run.py` once per (workload, seed), one run at a time, and prints
each run's metrics with their units and its ops_failed_frac; it stops at
the first run whose outputs fail the gate. Then it prints for every
end-to-end metric its median, quartiles (`statistics.quantiles(n=4)`) and
the quartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. With --label it also stores the raw values in
perfbench/evidence/<label>.json. With two labels given to --compare it
prints each set's medians and the change of the second against the first.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EVIDENCE = HERE / "evidence"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _print_table(values: dict[str, dict[str, list[float]]], bounds: dict[str, float]) -> None:
    print(f"{'workload':<14} {'metric':<12} {'n':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'iqr/med':>8} {'bound':>6}")
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            print(f"{workload:<14} {name:<12} {len(vals):>3} {med:>10.4f} {q1:>10.4f} "
                  f"{q3:>10.4f} {(q3 - q1) / med:>8.4f} {bounds.get(name, 0):>6}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--label")
    parser.add_argument("--compare", nargs=2, metavar="LABEL")
    args = parser.parse_args()
    bounds = _bounds()

    if args.compare:
        first, second = (json.loads((EVIDENCE / f"{label}.json").read_text())["values"]
                         for label in args.compare)
        print(f"{'workload':<14} {'metric':<12} {'median A':>10} {'median B':>10} "
              f"{'B/A-1':>8} {'bound':>6}")
        for workload, metrics in first.items():
            for name, vals in metrics.items():
                a, b = statistics.median(vals), statistics.median(second[workload][name])
                print(f"{workload:<14} {name:<12} {a:>10.4f} {b:>10.4f} {b / a - 1:>8.4f} "
                      f"{bounds[name]:>6}")
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    values: dict[str, dict[str, list[float]]] = {}
    for workload in workloads:
        values[workload] = {}
        for seed in _seeds(args.seeds):
            result = _run(workload, seed, seconds)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4f} {v['unit']}" for k, v in result["metrics"].items())
                + f", ops_failed_frac={result['failed'] / result['attempted']:.4f}", flush=True)
    _print_table(values, bounds)
    if args.label:
        EVIDENCE.mkdir(exist_ok=True)
        record = {"seconds": seconds, "seeds": args.seeds, "values": values}
        (EVIDENCE / f"{args.label}.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
