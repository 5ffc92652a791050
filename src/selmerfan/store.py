"""Curve CSV ingestion and the append-only JSON-lines classification cache.

Cache layout: one file per curve label, one canonical JSON object per line,
keyed by (label, p). Lines are never rewritten; re-runs reuse existing
entries verbatim and append only what is missing. A final fragment with no
newline is a torn append: readers skip it and the next append replaces it.
Appends hold an exclusive `flock` on the file while they read and extend
it, so overlapping runs neither duplicate records nor cut each other's lines.
A stamp `<label>.curve` next to `<label>.jsonl` holds the curve's `A,B`,
so a cache built for another curve under the same label is refused.
"""
from __future__ import annotations

import fcntl
import hashlib
import io
import json
import os
from dataclasses import fields

from .curves import CurveQ, PrimeClassRecord, classify_primes, good_primes
from .errors import ConfigError, DataError

_RECORD_FIELDS = tuple(f.name for f in fields(PrimeClassRecord))
# the options of the canonical line; one encoder serves every record
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def read_curves_csv(path: str) -> list[CurveQ]:
    """Parse a `label,A,B` file; comments with # and blank lines allowed."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read curve file {path}: {e}") from e
    curves: list[CurveQ] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if lineno == 1 and line.lower().replace(" ", "") == "label,a,b":
            continue
        parts = [t.strip() for t in line.split(",")]
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected label,A,B")
        label, a_text, b_text = parts
        if not label:
            raise DataError(f"{path}:{lineno}: empty label")
        if label in (".", "..") or any(ch in label for ch in ("/", os.sep, "\0")):
            # the label names the cache files, which must stay in the cache directory
            raise DataError(f"{path}:{lineno}: label {label!r} is not a plain file name")
        if label in seen:
            raise DataError(f"{path}:{lineno}: duplicate label {label!r}")
        try:
            curve = CurveQ(int(a_text), int(b_text), label)
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: {e}") from e
        seen.add(label)
        curves.append(curve)
    return curves


def record_to_line(record: PrimeClassRecord) -> str:
    """Canonical one-line JSON form; stable across runs and platforms."""
    return _ENCODER.encode(vars(record)) + "\n"


def line_to_record(line: str) -> PrimeClassRecord:
    try:
        obj = json.loads(line)
        return PrimeClassRecord(**{k: obj[k] for k in _RECORD_FIELDS})
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        raise DataError(f"malformed cache line: {e}") from e


def cache_path(cache_dir: str, label: str) -> str:
    return os.path.join(cache_dir, f"{label}.jsonl")


def _records_in(lines) -> dict[tuple[str, int], PrimeClassRecord]:
    """Records of the complete lines, keyed by (label, p); stops at a torn one."""
    out: dict[tuple[str, int], PrimeClassRecord] = {}
    for line in lines:
        if not line.endswith("\n"):
            break
        if not line.strip():
            continue
        rec = line_to_record(line)
        out[(rec.label, rec.p)] = rec
    return out


def load_records(path: str) -> dict[tuple[str, int], PrimeClassRecord]:
    """All cached records keyed by (label, p); missing file is empty."""
    if not os.path.exists(path):
        return {}
    try:
        with open(path, encoding="ascii") as fh:
            return _records_in(fh)
    except UnicodeDecodeError as e:
        raise DataError(f"cache {path} has a non-ASCII byte; canonical lines are ASCII") from e
    except OSError as e:
        raise DataError(f"cannot read cache {path}: {e}") from e


def append_records(path: str, records: list[PrimeClassRecord]) -> int:
    """Append records whose (label, p) keys are not yet present.

    The file is read and extended under one exclusive lock, so the keys
    checked are those of the bytes the append follows.
    """
    if not records:
        return 0
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "ab+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        fh.seek(0)
        data = fh.read()
        try:
            existing = _records_in(io.StringIO(data.decode("ascii"), newline=None))
        except UnicodeDecodeError as e:
            raise DataError(f"cache {path} has a non-ASCII byte; canonical lines are ASCII") from e
        fresh = [r for r in records if (r.label, r.p) not in existing]
        if fresh:
            if not data.endswith(b"\n"):  # drop the fragment of a torn append
                fh.truncate(data.rfind(b"\n") + 1)
            fh.write("".join(record_to_line(rec) for rec in fresh).encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())
    return len(fresh)


def cache_checksum(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_curve_stamp(curve: CurveQ, path: str) -> None:
    """Refuse a cache stamped with another curve; stamp an unstamped one."""
    stamp_path = os.path.splitext(path)[0] + ".curve"
    stamp = f"{curve.A},{curve.B}\n"
    if os.path.exists(stamp_path):
        try:
            with open(stamp_path, encoding="utf-8") as fh:
                found = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise DataError(f"cannot read cache stamp {stamp_path}: {e}") from e
        if found != stamp:
            raise DataError(f"cache {path} is for curve {found.strip()}, not {stamp.strip()}")
        return
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    except (FileExistsError, NotADirectoryError) as e:
        raise ConfigError(f"cache directory {os.path.dirname(path)} is not a directory") from e
    with open(stamp_path, "w", encoding="utf-8") as fh:
        fh.write(stamp)


def ensure_classified(
    curve: CurveQ,
    max_prime: int,
    path: str,
    jobs: int = 1,
) -> tuple[dict[int, PrimeClassRecord], int]:
    """Classification records up to max_prime, reusing and extending the cache.

    Returns the by-prime record map and the number of freshly computed
    entries (0 on a warm cache). Raises DataError if the cache is stamped
    with another curve.
    """
    needed = good_primes(curve, max_prime)
    _check_curve_stamp(curve, path)
    label = curve.label or ""
    cached = load_records(path)
    have = {p: rec for (lab, p), rec in cached.items() if lab == label}
    missing = [p for p in needed if p not in have]
    fresh = classify_primes(curve, missing, jobs=jobs)
    append_records(path, fresh)
    for rec in fresh:
        have[rec.p] = rec
    return {p: have[p] for p in needed}, len(fresh)
