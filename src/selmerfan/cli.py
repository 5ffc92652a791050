"""Command-line front door: parsing, dispatch, persistence, report emission.

Every subcommand produces a Report: a meta block (version, echoed config,
timestamp, cache checksum) plus a deterministic payload. With --out the
full report lands as JSON via a temp-file rename; without it the payload
goes to stdout, as CSV when the command is tabular. Exit codes: 0 success,
1 stdout closed early, 2 configuration, 3 data, 4 internal consistency.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

from . import __version__
from .chain import (
    Distribution,
    RhoE,
    evolve,
    simulate_chain,
    stationary,
    tail_bound,
    tail_constant,
    tail_exact,
)
from .curves import CurveQ, density_report, frobenius_class
from .errors import ConfigError, ConsistencyError, DataError
from .fans import GrowthFn, enumerate_fan, fan_distribution, lift_count, ln_sequence, parse_growth
from .store import cache_checksum, cache_path, ensure_classified, read_curves_csv

CACHE_ENV = "SELMERFAN_CACHE_DIR"
DEFAULT_CACHE_DIR = ".selmerfan-cache"


@dataclass
class RunConfig:
    subcommand: str
    curve_file: str | None = None
    label: str | None = None
    max_prime: int | None = None
    p: int | None = None
    m: int | None = None
    w: int | None = None
    X: float | None = None
    growth: str | None = None
    emit_cubics: str | None = None
    synthetic: str | None = None
    trials: int | None = None
    rho: float = 1.0
    parity: str | None = None
    s: int | None = None
    dim: int | None = None
    blocks: int = 1
    gram: str | None = None
    seed: int | None = None
    jobs: int = 1
    out: str | None = None
    cache_dir: str = field(default_factory=lambda: os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR))


@dataclass
class Report:
    meta: dict
    payload: dict

    def to_json(self) -> str:
        return json.dumps({"meta": self.meta, "payload": self.payload}, sort_keys=True, indent=2)


def _fmt12(value):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _fmt12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt12(v) for v in value]
    return value


def _distribution_payload(dist: Distribution) -> dict:
    table = {str(s): dist.pmf(s) for s in dist.support()}
    csv = "s,mass\n" + "".join(f"{s},{dist.pmf(s):.12g}\n" for s in dist.support())
    return {"distribution": table, "csv": csv, "truncation_error": dist.truncation_error}


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ConfigError(f"{config.subcommand} requires --{name.replace('_', '-')}")


def _load_curve(config: RunConfig) -> CurveQ:
    _require(config, "curve_file", "label")
    for curve in read_curves_csv(config.curve_file):
        if curve.label == config.label:
            return curve
    raise ConfigError(f"label {config.label!r} not found in {config.curve_file}")


def _curve_cache(config: RunConfig, curve: CurveQ, max_prime: int):
    path = cache_path(config.cache_dir, curve.label or "unlabeled")
    records, fresh = ensure_classified(curve, max_prime, path, jobs=config.jobs)
    return path, records, fresh


_SYNTH_TOKEN = re.compile(r"^(\d+)x([012])([si])$")


def parse_synthetic(spec: str) -> list[tuple[int, str]]:
    """Parse streams like '40x1s' or '40x1s+5x2s+3x0i'."""
    stream: list[tuple[int, str]] = []
    for token in spec.split("+"):
        m = _SYNTH_TOKEN.match(token.strip())
        if not m:
            raise ConfigError(
                f"bad synthetic token {token!r}; expected COUNTxCLASS[s|i] like 40x1s"
            )
        count, cls, kind = int(m.group(1)), int(m.group(2)), m.group(3)
        stream.extend([(cls, "split" if kind == "s" else "inert")] * count)
    if not stream:
        raise ConfigError("synthetic stream is empty")
    return stream


def _run_stationary(config: RunConfig) -> dict:
    parity = config.parity or "even"
    return {"parity": parity, **_distribution_payload(stationary(parity))}


def _run_evolve(config: RunConfig) -> dict:
    _require(config, "w")
    initial = RhoE(config.rho).initial_distribution()
    final = evolve(initial, config.w)
    return {"rho": config.rho, "w": config.w, **_distribution_payload(final)}


def _run_simulate(config: RunConfig) -> dict:
    _require(config, "trials", "seed")
    initial = RhoE(config.rho).initial_distribution()
    if config.synthetic:
        stream = parse_synthetic(config.synthetic)
        source = {"synthetic": config.synthetic}
    else:
        _require(config, "max_prime")
        curve = _load_curve(config)
        path, records, _ = _curve_cache(config, curve, config.max_prime)
        stream = [records[p] for p in sorted(records) if records[p].in_DB_support]
        source = {"label": curve.label, "max_prime": config.max_prime, "stream_length": len(stream)}
    emp = simulate_chain(initial, stream, config.trials, config.seed)
    return {
        "rho": config.rho,
        "trials": config.trials,
        "seed": config.seed,
        "source": source,
        **_distribution_payload(emp),
    }


def _run_tailbound(config: RunConfig) -> dict:
    _require(config, "s")
    parity = config.parity or ("even" if config.s % 2 == 0 else "odd")
    return {
        "s": config.s,
        "parity": parity,
        "constant": tail_constant(),
        "bound": tail_bound(config.s),
        "exact": tail_exact(parity, config.s),
    }


def _run_classify(config: RunConfig) -> dict:
    _require(config, "max_prime")
    curve = _load_curve(config)
    path, records, fresh = _curve_cache(config, curve, config.max_prime)
    return {
        "label": curve.label,
        "max_prime": config.max_prime,
        "records": len(records),
        "fresh": fresh,
        "reused": len(records) - fresh,
        "cache_file": path,
    }


def _run_densities(config: RunConfig) -> dict:
    _require(config, "max_prime")
    curve = _load_curve(config)
    _, records, _ = _curve_cache(config, curve, config.max_prime)
    return density_report(curve, config.max_prime, records=list(records.values()))


def _run_frobclass(config: RunConfig) -> dict:
    _require(config, "p")
    curve = _load_curve(config)
    cls = frobenius_class(curve, config.p)
    return {
        "label": curve.label,
        "p": config.p,
        "class": {
            "representative": list(cls.representative),
            "size": cls.size,
            "order": cls.order,
            "det": cls.det,
            "trace": cls.trace,
            "fixed_dim": cls.fixed_dim,
        },
    }


def _run_fan(config: RunConfig) -> dict:
    _require(config, "m", "w", "X", "growth")
    curve = _load_curve(config)
    growth = parse_growth(config.growth)
    bounds = ln_sequence(growth, config.X, config.m)
    top = math.ceil(bounds[-1]) - 1
    _, records, _ = _curve_cache(config, curve, top)
    elements = enumerate_fan(curve, config.m, config.w, config.X, growth, records)
    payload = {
        "label": curve.label,
        "m": config.m,
        "w": config.w,
        "X": config.X,
        "growth": growth.spec_string(),
        "bounds": bounds,
        "count": len(elements),
        "elements": [
            {
                "primes": list(e.primes),
                "w": e.w,
                "d_value": e.d_value,
                "cubic_poly": e.cubic_poly,
                "lift_count": lift_count(e),
            }
            for e in elements
        ],
    }
    if config.emit_cubics:
        csv = "d,polynomial\n" + "".join(f"{e.d_value},{e.cubic_poly}\n" for e in elements)
        _atomic_write(config.emit_cubics, csv)
        payload["cubics_file"] = config.emit_cubics
    if config.trials is not None:
        _require(config, "seed")
        emp = fan_distribution(
            curve,
            config.m,
            config.w,
            config.X,
            growth,
            config.rho,
            config.trials,
            config.seed,
            records=records,
        )
        reference = evolve(RhoE(config.rho).initial_distribution(), config.w)
        payload.update(_distribution_payload(emp))
        payload["tv_to_evolve"] = emp.tv_distance(reference)
    return payload


def _parse_gram(path: str) -> tuple[tuple[int, ...], ...]:
    try:
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)
        return tuple(tuple(int(x) for x in row) for row in rows)
    except FileNotFoundError as e:
        raise DataError(f"gram file not found: {path}") from e
    except (json.JSONDecodeError, TypeError, ValueError) as e:
        raise DataError(f"bad gram file {path}: {e}") from e


def _run_lagrangians(config: RunConfig) -> dict:
    from .f3geom import QuadSpace, coordinatewise_lagrangians, hyperbolic_space, lagrangians

    _require(config, "dim")
    if config.gram:
        space = QuadSpace(config.dim, _parse_gram(config.gram), config.blocks)
    else:
        space = hyperbolic_space(config.dim, config.blocks)
    payload = {"dim": config.dim, "blocks": config.blocks, "gram": [list(row) for row in space.gram]}
    if config.blocks > 1:
        # first, so that a bad block split fails before the full enumeration
        coord = coordinatewise_lagrangians(space)
        payload["coordinatewise_count"] = len(coord)
        payload["coordinatewise"] = [[list(v) for v in sub.basis] for sub in coord]
    lags = lagrangians(space)
    payload["count"] = len(lags)
    payload["lagrangians"] = [[list(v) for v in sub.basis] for sub in lags]
    return payload


def _run_gl2f3_report(config: RunConfig) -> dict:
    from .gl2f3 import (
        conjugacy_classes,
        det_coset_stats,
        enumerate_group,
        fixed_dim_density,
        sl2_no_index2_normal,
    )

    coset_rows = {}
    for d in (1, 2):
        coset_rows[str(d)] = [
            {"order": order, "fixed_dim": fdim, "count": count}
            for (order, fdim), count in sorted(det_coset_stats(d).items())
        ]
    densities = {
        str(d): {str(i): str(fixed_dim_density(d, i)) for i in (0, 1, 2)} for d in (1, 2)
    }
    return {
        "group_order": len(enumerate_group()),
        "conjugacy_classes": [
            {
                "representative": list(c.representative),
                "size": c.size,
                "order": c.order,
                "det": c.det,
                "trace": c.trace,
                "fixed_dim": c.fixed_dim,
            }
            for c in conjugacy_classes()
        ],
        "det_coset_stats": coset_rows,
        "fixed_dim_densities": densities,
        "sl2_no_index2_normal": sl2_no_index2_normal(),
    }


_RUNNERS = {
    "stationary": _run_stationary,
    "evolve": _run_evolve,
    "simulate": _run_simulate,
    "tailbound": _run_tailbound,
    "classify": _run_classify,
    "densities": _run_densities,
    "frobclass": _run_frobclass,
    "fan": _run_fan,
    "lagrangians": _run_lagrangians,
    "gl2f3-report": _run_gl2f3_report,
}


def run(config: RunConfig) -> Report:
    """Dispatch a validated config and wrap the result in a Report."""
    runner = _RUNNERS.get(config.subcommand)
    if runner is None:
        raise ConfigError(f"unknown subcommand {config.subcommand!r}")
    payload = _fmt12(runner(config))
    checksum = None
    if config.label:
        checksum = cache_checksum(cache_path(config.cache_dir, config.label))
    meta = {
        "version": __version__,
        "command": config.subcommand,
        "config": {k: v for k, v in asdict(config).items() if v is not None},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "cache_checksum": checksum,
    }
    return Report(meta=meta, payload=payload)


def _atomic_write(path: str, text: str) -> None:
    """Write through a temp file and rename, so readers never see a partial file.

    An existing target that is not a regular file, such as a FIFO or a
    device, is written in place: renaming over it would replace the node.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    target_dir = os.path.dirname(os.path.abspath(path))
    os.makedirs(target_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target_dir, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def emit(report: Report, config: RunConfig) -> None:
    if config.out:
        _atomic_write(config.out, report.to_json() + "\n")
        print(f"report written to {config.out}")
    elif isinstance(report.payload, dict) and "csv" in report.payload:
        sys.stdout.write(report.payload["csv"])
    else:
        print(json.dumps(report.payload, sort_keys=True, indent=2))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed (required when sampling)")
    common.add_argument("--jobs", type=int, default=1, help="worker processes")
    common.add_argument("--out", default=None, help="write the full JSON report here atomically")

    parser = argparse.ArgumentParser(
        prog="selmerfan",
        description="Selmer-rank distributions over fans of S3-cubic fields",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("stationary", parents=[common], help="stationary law of one parity class")
    p.add_argument("--parity", choices=["even", "odd"], default="even")

    p = sub.add_parser("evolve", parents=[common], help="apply the rank-walk operator w times")
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--rho", type=float, default=1.0, help="initial even mass")

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo walk over a prime stream")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--synthetic", help="stream spec like 40x1s+5x2s")
    p.add_argument("--curve-file")
    p.add_argument("--label")
    p.add_argument("--max-prime", type=int, dest="max_prime")

    p = sub.add_parser("tailbound", parents=[common], help="closed-form vs exact stationary tail")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--parity", choices=["even", "odd"])

    p = sub.add_parser("classify", parents=[common], help="classify primes into the cache")
    p.add_argument("--curve-file", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--max-prime", type=int, required=True, dest="max_prime")

    p = sub.add_parser("densities", parents=[common], help="empirical vs predicted class densities")
    p.add_argument("--curve-file", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--max-prime", type=int, required=True, dest="max_prime")

    p = sub.add_parser("frobclass", parents=[common], help="Frobenius conjugacy class at p")
    p.add_argument("--curve-file", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("fan", parents=[common], help="enumerate a fan and emit cubics")
    p.add_argument("--curve-file", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--growth", required=True, help="log | pow:alpha | affine:a,b")
    p.add_argument("--emit-cubics", dest="emit_cubics")
    p.add_argument("--trials", type=int, help="also sample the fan distribution")
    p.add_argument("--rho", type=float, default=1.0)

    p = sub.add_parser("lagrangians", parents=[common], help="enumerate Lagrangian subspaces")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--gram", help="JSON file with the Gram matrix rows")

    sub.add_parser("gl2f3-report", parents=[common], help="group facts used by classification")

    return parser


def parse_args(argv=None) -> RunConfig:
    ns = build_parser().parse_args(argv)
    fields = {f for f in RunConfig.__dataclass_fields__}
    values = {k: v for k, v in vars(ns).items() if k in fields and v is not None}
    return RunConfig(**values)


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
        report = run(config)
        emit(report, config)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader closed stdout; point fd 1 at devnull so the flush at
        # interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except ConsistencyError as e:
        print(f"internal consistency error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
