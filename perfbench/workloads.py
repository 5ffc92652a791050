"""The benchmark's workloads: fixed lists of `selmerfan` CLI operations.

Each operation is one argv for `selmerfan.cli.main`. Per run, "{csv}" is
replaced by the curve file the run writes into its work directory, and
`--seed` with the benchmark's own seed is appended to every operation. `exit` is the exit code the operation must return.
`seeded` marks operations whose payload depends on the seed: their payload
sha256 is checked only at DEFAULT_SEED, and on every seed their printed law
must be a distribution of even dimensions (the walk starts at 0 and keeps
its parity). `cache` names the curve whose cache file must hash to its
golden after the operation. `known_defect` marks an operation that fails
at the commit that introduced the benchmark; it still counts as a failed
operation, but it does not make the run incorrect.
"""
from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 7
MAX_PRIME = "50000"

# label -> (A, B) for y^2 = x^3 + Ax + B
CURVES = {"fix": (1, 1), "tw": (2, 3), "cm": (0, -432)}


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple[str, ...]
    exit: int = 0
    seeded: bool = False
    cache: str | None = None
    known_defect: str | None = None


def _classify(label: str) -> Op:
    argv = ("classify", "--curve-file", "{csv}", "--label", label,
            "--max-prime", MAX_PRIME, "--jobs", "2")
    return Op(f"classify-{label}", argv, cache=label)


def _densities(label: str) -> Op:
    argv = ("densities", "--curve-file", "{csv}", "--label", label, "--max-prime", MAX_PRIME)
    return Op(f"densities-{label}", argv, cache=label)


def _fan(op_id: str, *args: str, exit: int = 0) -> Op:
    argv = ("fan", "--curve-file", "{csv}", "--label", "fix") + args
    return Op(op_id, argv, exit=exit, seeded=exit == 0, cache="fix")


def _frobclass(label: str, p: int) -> Op:
    return Op(f"frobclass-{label}-{p}",
              ("frobclass", "--curve-file", "{csv}", "--label", label, "--p", str(p)))


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "classify-cold": (
        *(_classify(label) for label in CURVES),
        *(_densities(label) for label in CURVES),
    ),
    "walk-warm": (
        Op("simulate-synthetic",
           ("simulate", "--trials", "100000", "--synthetic", "40x1s+5x2s+3x0i"), seeded=True),
        Op("simulate-curve",
           ("simulate", "--trials", "4000", "--curve-file", "{csv}", "--label", "fix",
            "--max-prime", MAX_PRIME),
           seeded=True, cache="fix"),
        _fan("fan-m2", "--m", "2", "--w", "2", "--X", "40", "--growth", "pow:1",
             "--trials", "30000"),
        _fan("fan-m4", "--m", "4", "--w", "2", "--X", "3", "--growth", "affine:0,30",
             "--trials", "20000"),
        # the fan is empty, so rejection sampling gives up with a data error
        _fan("fan-m4-empty", "--m", "4", "--w", "2", "--X", "5", "--growth", "pow:1",
             "--trials", "4", exit=3),
    ),
    "exact-oracles": (
        Op("lagrangians-6-3", ("lagrangians", "--dim", "6", "--blocks", "3")),
        Op("lagrangians-6", ("lagrangians", "--dim", "6")),
        Op("gl2f3-report", ("gl2f3-report",)),
        Op("evolve-20000", ("evolve", "--w", "20000")),
        Op("stationary-even", ("stationary", "--parity", "even")),
        Op("stationary-odd", ("stationary", "--parity", "odd")),
        Op("tailbound-10", ("tailbound", "--s", "10")),
        *(_frobclass(label, p) for label in ("fix", "cm") for p in (999953, 999983)),
        Op("lagrangians-6-2", ("lagrangians", "--dim", "6", "--blocks", "2"), exit=2,
           known_defect="block dim 3 is odd and coordinatewise_lagrangians raises a bare "
                        "ValueError, which escapes cli.main as a traceback"),
    ),
}

# walk-warm reads a cache that its set-up classified; the other two start empty
PREFILL = {"walk-warm": _classify("fix")}


def curves_csv() -> str:
    return "label,A,B\n" + "".join(f"{k},{a},{b}\n" for k, (a, b) in CURVES.items())


def argv_for(op: Op, csv_path: str, seed: int, serial: bool = False) -> list[str]:
    """The concrete argv; `serial` turns `--jobs 2` into `--jobs 1`."""
    argv = [a.replace("{csv}", csv_path) for a in op.argv]
    if serial and "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    return argv + ["--seed", str(seed)]
