"""Record the benchmark's goldens, or check the 1e5 fixture cache once.

    python3 perfbench/goldens.py record      # rewrite goldens.json at DEFAULT_SEED
    python3 perfbench/goldens.py check-1e5   # classify fix to 1e5, compare sha256

`record` runs every workload's operations once, in this process, and
stores the sha256 of each exit-0 payload and of each classify-cold cache
file. Operations expected to fail print nothing, so they store no hash;
an operation whose exit code differs from its expectation is reported
and left out, unless it is a recorded known defect. Record only from a
commit whose outputs are known good: the goldens are the reference every
later run is held to.

`check-1e5` classifies the fixture curve `fix,1,1` to 1e5 with `--jobs 2`
(about 15 s on 2 cores) and compares the cache file with the canonical
sha256. It is too slow for every run, so run it once per change to the
classification code.
"""
from __future__ import annotations

import io
import json
import shutil
import sys
from contextlib import redirect_stdout

import gate
from worker import ROOT, Run
from workloads import DEFAULT_SEED, PREFILL, WORKLOADS, Op, argv_for

WORK = ROOT / ".perfbench-work"
CACHE_1E5 = {
    "label": "fix",
    "max_prime": 100000,
    "sha256": "ec773b46cf3e8066e7d8bc4bc4a1e1390c5b2f435653ec4127210429a4119df8",
}


def record() -> int:
    payloads: dict[str, dict[str, str]] = {}
    caches: dict[str, str] = {}
    blank = {"payload_sha256": {}, "cache_sha256": {}}
    bad = 0
    for workload, ops in WORKLOADS.items():
        run = Run(workload, DEFAULT_SEED, WORK / f"record-{workload}", goldens=blank)
        payloads[workload] = {}
        setup = [PREFILL[workload]] if workload in PREFILL else []
        for op, result in zip(setup + list(ops), run.setup_ops + run.run_pass()):
            if result["exit"] != op.exit and not op.known_defect:
                print(f"{workload}/{op.id}: exit {result['exit']}, expected {op.exit}\n"
                      f"{result['stderr']}", file=sys.stderr)
                bad += 1
            elif op.exit == 0:
                payloads[workload][op.id] = result["sha256"]
        if workload == "classify-cold":
            for op in ops:
                if op.cache:
                    caches[op.cache] = gate.file_sha256(run.cache_dir / f"{op.cache}.jsonl")
    shutil.rmtree(WORK, ignore_errors=True)
    goldens = {"default_seed": DEFAULT_SEED, "payload_sha256": payloads,
               "cache_sha256": caches, "cache_1e5": CACHE_1E5}
    gate.GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {gate.GOLDENS} ({bad} operations left out)")
    return 1 if bad else 0


def check_1e5() -> int:
    run = Run("classify-cold", DEFAULT_SEED, WORK / "check-1e5", goldens={})
    label, max_prime = CACHE_1E5["label"], CACHE_1E5["max_prime"]
    op = Op("classify-1e5", ("classify", "--curve-file", "{csv}", "--label", label,
                             "--max-prime", str(max_prime), "--jobs", "2"))
    with redirect_stdout(io.StringIO()):
        code = run.main(argv_for(op, str(run.csv), DEFAULT_SEED))
    got = gate.file_sha256(run.cache_dir / f"{label}.jsonl")
    shutil.rmtree(WORK, ignore_errors=True)
    ok = code == 0 and got == CACHE_1E5["sha256"]
    print(f"{label} to {max_prime}: exit {code}, sha256 {got}: {'ok' if ok else 'MISMATCH'}")
    return 0 if ok else 1


if __name__ == "__main__":
    commands = {"record": record, "check-1e5": check_1e5}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(commands)}}}")
    sys.exit(commands[sys.argv[1]]())
