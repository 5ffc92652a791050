"""Output gate: exit codes, payload sha256, cache sha256 and law invariants.

Without `--out` the CLI prints only the report payload (the `meta` block
with its timestamp is never printed), so the sha256 of stdout is the
sha256 of the payload. The one run-dependent string in a payload is the
`cache_file` path that `classify` echoes; it is normalised first.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import DEFAULT_SEED, Op

GOLDENS = Path(__file__).resolve().parent / "goldens.json"
CACHE_TOKEN = "$CACHE_DIR"


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def payload_sha256(stdout: str, cache_dir: str) -> str:
    return hashlib.sha256(stdout.replace(cache_dir, CACHE_TOKEN).encode()).hexdigest()


def file_sha256(path: Path) -> str | None:
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def law_problem(stdout: str, mass_tol: float) -> str | None:
    """Why a printed `s,mass` law is not a distribution on even dimensions.

    The CLI prints each mass to 12 significant digits, so the printed
    masses may miss a total of 1 by up to half a unit in the 12th digit of
    each, on top of the library's own MASS_TOL.
    """
    lines = stdout.splitlines()
    if not lines or lines[0] != "s,mass" or len(lines) < 2:
        return "payload is not an s,mass table"
    total = slack = 0.0
    for line in lines[1:]:
        s_text, m_text = line.split(",")
        s, mass = int(s_text), float(m_text)
        if s % 2:
            return f"odd dimension {s} from an even start: parity not preserved"
        if not 0.0 < mass <= 1.0:
            return f"mass {mass} at s={s} outside (0, 1]"
        total += mass
        slack += 0.5 * 10.0 ** (math.floor(math.log10(mass)) - 11)
    if abs(total - 1.0) > mass_tol + slack:
        return f"masses sum to {total!r}, not 1 within {mass_tol} + {slack:.1e}"
    return None


def check(op: Op, workload: str, code, stdout: str, seed: int, cache_dir: Path,
          goldens: dict, mass_tol: float) -> str | None:
    """Why the operation's outcome is wrong, or None when it passes."""
    if code != op.exit:
        return f"exit {code}, expected {op.exit}"
    if op.exit != 0:
        return f"error operation printed {len(stdout)} characters" if stdout else None
    if not op.seeded or seed == DEFAULT_SEED:
        want = goldens["payload_sha256"].get(workload, {}).get(op.id)
        if payload_sha256(stdout, str(cache_dir)) != want:
            return "payload sha256 differs from its golden"
    if op.seeded:
        problem = law_problem(stdout, mass_tol)
        if problem:
            return problem
    if op.cache:
        got = file_sha256(cache_dir / f"{op.cache}.jsonl")
        if got != goldens["cache_sha256"].get(op.cache):
            return f"cache {op.cache}.jsonl sha256 {got} differs from its golden"
    return None
