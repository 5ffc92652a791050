"""Command-line front door: parsing, dispatch, persistence, report emission.

The parser declares every option once, and the namespace it returns is the
run config: `parse_args` adds only the cache directory, taken from the
environment. Every subcommand produces a Report: a meta block (version,
the subcommand's own flags, timestamp, checksum of the cache it read) plus a
deterministic payload. Payloads carry library objects (conjugacy classes,
subspaces, fan elements) as they are; `_render` gives each its float-free
JSON form when the report is written. With --out the full report lands
as JSON via a temp-file rename; without it the payload goes to stdout, as
CSV when the command is tabular. Exit codes: 0 success, 1 stdout closed
early, 2 configuration, 3 data, 4 internal consistency. Fans are imported
only where a fan is built or rendered, and the Monte Carlo walk only where
one is sampled, so only `simulate` and `fan` load numpy.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

from . import __version__
from .chain import (
    MAX_TRIALS,
    Distribution,
    RhoE,
    evolve,
    simulate_chain,
    stationary,
    tail_bound,
    tail_constant,
    tail_exact,
)
from .curves import (
    MAX_PRIME,
    MAX_STREAM,
    CurveQ,
    check_density_bound,
    density_report,
    frobenius_class,
)
from .errors import ConfigError, ConsistencyError, DataError
from .f3geom import QuadSpace, Subspace, coordinatewise_lagrangians, hyperbolic_space, lagrangians
from .gl2f3 import (
    ConjClass,
    conjugacy_classes,
    det_coset_stats,
    enumerate_group,
    fixed_dim_density,
    sl2_no_index2_normal,
)
from .store import cache_checksum, cache_path, ensure_classified, read_curves_csv

CACHE_ENV = "SELMERFAN_CACHE_DIR"
DEFAULT_CACHE_DIR = ".selmerfan-cache"


@dataclass
class Report:
    meta: dict
    payload: dict

    def to_json(self) -> str:
        return json.dumps(
            {"meta": self.meta, "payload": self.payload}, sort_keys=True, indent=2, default=_render
        )


def _render(obj):
    """JSON form of a library object in a payload: ints and strings only."""
    if isinstance(obj, ConjClass):
        return asdict(obj)
    if isinstance(obj, Subspace):
        return obj.basis
    from .fans import FanElement, lift_count

    if isinstance(obj, FanElement):
        return {
            "primes": obj.primes,
            "w": obj.w,
            "d_value": obj.d_value,
            "cubic_poly": obj.cubic_poly,
            "lift_count": lift_count(obj),
        }
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


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


def _require(config: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ConfigError(f"{config.subcommand} requires --{name.replace('_', '-')}")


def _require_seed(config: argparse.Namespace) -> None:
    _require(config, "seed")
    if config.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {config.seed}")


def _load_curve(config: argparse.Namespace) -> CurveQ:
    for curve in read_curves_csv(config.curve_file):
        if curve.label == config.label:
            return curve
    raise ConfigError(f"label {config.label!r} not found in {config.curve_file}")


def _curve_cache(config: argparse.Namespace, curve: CurveQ, max_prime: int):
    # the one cache a command reads; `run` pops config.cache_file for meta.cache_checksum
    config.cache_file = path = cache_path(config.cache_dir, curve.label or "unlabeled")
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
        digits, cls, kind = m.group(1).lstrip("0") or "0", int(m.group(2)), m.group(3)
        # lengths first: int() refuses a string of more than 4300 digits
        if len(digits) > len(str(MAX_STREAM)) or len(stream) + int(digits) > MAX_STREAM:
            raise ConfigError(
                f"synthetic stream exceeds {MAX_STREAM} primes, the most up to {MAX_PRIME}"
            )
        stream.extend([(cls, "split" if kind == "s" else "inert")] * int(digits))
    if not stream:
        raise ConfigError("synthetic stream is empty")
    return stream


def _run_stationary(config: argparse.Namespace) -> dict:
    return {"parity": config.parity, **_distribution_payload(stationary(config.parity))}


def _run_evolve(config: argparse.Namespace) -> dict:
    initial = RhoE(config.rho).initial_distribution()
    final = evolve(initial, config.w)
    return {"rho": config.rho, "w": config.w, **_distribution_payload(final)}


def _run_simulate(config: argparse.Namespace) -> dict:
    _require_seed(config)
    initial = RhoE(config.rho).initial_distribution()
    if config.synthetic is not None:
        for name in ("curve_file", "label", "max_prime"):
            if getattr(config, name) is not None:
                raise ConfigError(f"--synthetic takes no --{name.replace('_', '-')}")
        stream = parse_synthetic(config.synthetic)
        source = {"synthetic": config.synthetic}
    else:
        _require(config, "max_prime", "curve_file", "label")
        curve = _load_curve(config)
        _, records, _ = _curve_cache(config, curve, config.max_prime)
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


def _run_tailbound(config: argparse.Namespace) -> dict:
    parity = config.parity or ("even" if config.s % 2 == 0 else "odd")
    return {
        "s": config.s,
        "parity": parity,
        "constant": tail_constant(),
        "bound": tail_bound(config.s),
        "exact": tail_exact(parity, config.s),
    }


def _run_classify(config: argparse.Namespace) -> dict:
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


def _run_densities(config: argparse.Namespace) -> dict:
    check_density_bound(config.max_prime)
    curve = _load_curve(config)
    _, records, _ = _curve_cache(config, curve, config.max_prime)
    return density_report(curve, config.max_prime, records=list(records.values()))


def _run_frobclass(config: argparse.Namespace) -> dict:
    curve = _load_curve(config)
    return {"label": curve.label, "p": config.p, "class": frobenius_class(curve, config.p)}


def _run_fan(config: argparse.Namespace) -> dict:
    from .fans import FanIndex, enumerate_fan, fan_distribution, ln_sequence, parse_growth

    if config.m > MAX_STREAM:
        # an element has m distinct primes, and no more than MAX_STREAM lie up to MAX_PRIME
        raise ConfigError(f"--m must be at most {MAX_STREAM}, the primes up to {MAX_PRIME}")
    if config.trials is not None:
        _require_seed(config)
        initial = RhoE(config.rho).initial_distribution()
    curve = _load_curve(config)
    growth = parse_growth(config.growth)
    bounds = ln_sequence(growth, config.X, config.m)
    _, records, _ = _curve_cache(config, curve, FanIndex.prime_bound(bounds, config.w))
    index = FanIndex(curve, bounds, config.w, records)
    payload = {
        "label": curve.label,
        "m": config.m,
        "w": config.w,
        "X": config.X,
        "growth": growth.spec_string(),
        "bounds": bounds,
        "count": index.count,
    }
    # list the fan only when the output shows it: a report, the cubics, or the bare fan
    if config.out or config.emit_cubics or config.trials is None:
        payload["elements"] = elements = enumerate_fan(index)
    if config.trials is not None:
        emp = fan_distribution(index, initial, config.trials, config.seed)
        payload.update(_distribution_payload(emp))
        payload["tv_to_evolve"] = emp.tv_distance(evolve(initial, config.w))
    # after sampling, so that a fan the sampler refuses leaves the file as it was
    if config.emit_cubics:
        csv = "d,polynomial\n" + "".join(f"{e.d_value},{e.cubic_poly}\n" for e in elements)
        _atomic_write(config.emit_cubics, csv)
        payload["cubics_file"] = config.emit_cubics
    return payload


def _parse_gram(path: str) -> tuple[tuple[int, ...], ...]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            rows = json.load(fh)
    except OSError as e:
        raise DataError(f"cannot read gram file {path}: {e.strerror}") from e
    except ValueError as e:
        raise DataError(f"bad gram file {path}: {e}") from e
    # JSON integers only: bool is an int subclass, and int() would read 1.5 as 1
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in rows
    ):
        raise DataError(f"bad gram file {path}: rows must be lists of JSON integers")
    return tuple(map(tuple, rows))


def _run_lagrangians(config: argparse.Namespace) -> dict:
    if config.gram:
        space = QuadSpace(config.dim, _parse_gram(config.gram), config.blocks)
    else:
        space = hyperbolic_space(config.dim, config.blocks)
    payload = {"dim": config.dim, "blocks": config.blocks, "gram": space.gram}
    if config.blocks > 1:
        # first, so that a bad block split fails before the full build
        coord = coordinatewise_lagrangians(space)
        payload["coordinatewise_count"] = len(coord)
        payload["coordinatewise"] = coord
    lags = lagrangians(space)
    payload["count"] = len(lags)
    payload["lagrangians"] = lags
    return payload


def _run_gl2f3_report(config: argparse.Namespace) -> dict:
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
        "conjugacy_classes": conjugacy_classes(),
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


def run(config: argparse.Namespace) -> Report:
    """Dispatch a config from `parse_args` and wrap the result in a Report."""
    runner = _RUNNERS.get(config.subcommand)
    if runner is None:
        raise ConfigError(f"unknown subcommand {config.subcommand!r}")
    payload = _fmt12(runner(config))
    cache_file = vars(config).pop("cache_file", None)
    meta = {
        "version": __version__,
        "command": config.subcommand,
        "config": {k: v for k, v in vars(config).items() if v is not None},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "cache_checksum": cache_checksum(cache_file) if cache_file else None,
    }
    return Report(meta=meta, payload=payload)


def _atomic_write(path: str, text: str) -> None:
    """Write through a temp file and rename, so readers never see a partial file.

    An existing target that is not a regular file, such as a FIFO or a
    device, is written in place: renaming over it would replace the node.
    A failed write, as to a read-only directory, is a ConfigError naming it.
    """
    try:
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
            # mkstemp creates 0600: keep an existing file's mode, else the umask's
            umask = os.umask(0)
            os.umask(umask)
            mode = os.stat(path).st_mode & 0o7777 if os.path.isfile(path) else 0o666 & ~umask
            os.chmod(tmp, mode)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from e


def emit(report: Report, config: argparse.Namespace) -> None:
    if config.out:
        _atomic_write(config.out, report.to_json() + "\n")
        print(f"report written to {config.out}")
    elif isinstance(report.payload, dict) and "csv" in report.payload:
        sys.stdout.write(report.payload["csv"])
    else:
        print(json.dumps(report.payload, sort_keys=True, indent=2, default=_render))


class _Positive(argparse.Action):
    """Store a count of at least 1; raise ConfigError (exit 2) before any run starts."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 1:
            raise ConfigError(f"{option_string} must be positive, got {value}")
        setattr(namespace, self.dest, value)


class _Trials(_Positive):
    """Store a trial count, 1..MAX_TRIALS."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value > MAX_TRIALS:
            raise ConfigError(
                f"{option_string} must be at most 2^32, one 32-bit spawn word each, got {value}"
            )
        super().__call__(parser, namespace, value, option_string)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, help="RNG seed (required when sampling)")
    common.add_argument("--out", help="write the full JSON report here atomically")
    # the subcommands that may classify primes, in worker processes
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument("--jobs", type=int, default=1, action=_Positive, help="worker processes")
    # the subcommands that read one curve of a curve file, and those that
    # also classify it up to a bound
    curve = argparse.ArgumentParser(add_help=False, parents=[common])
    curve.add_argument("--curve-file", required=True)
    curve.add_argument("--label", required=True)
    bounded = argparse.ArgumentParser(add_help=False, parents=[curve, pool])
    bounded.add_argument("--max-prime", type=int, required=True)

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

    p = sub.add_parser("simulate", parents=[common, pool], help="Monte Carlo walk over a prime stream")
    p.add_argument("--trials", type=int, required=True, action=_Trials)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--synthetic", help="stream spec like 40x1s+5x2s")
    p.add_argument("--curve-file")
    p.add_argument("--label")
    p.add_argument("--max-prime", type=int)

    p = sub.add_parser("tailbound", parents=[common], help="closed-form vs exact stationary tail")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--parity", choices=["even", "odd"])

    sub.add_parser("classify", parents=[bounded], help="classify primes into the cache")
    sub.add_parser("densities", parents=[bounded], help="empirical vs predicted class densities")

    p = sub.add_parser("frobclass", parents=[curve], help="Frobenius conjugacy class at p")
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("fan", parents=[curve, pool], help="enumerate a fan and emit cubics")
    p.add_argument("--m", type=int, required=True, action=_Positive)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--growth", required=True, help="log | pow:alpha | affine:a,b")
    p.add_argument("--emit-cubics")
    p.add_argument("--trials", type=int, action=_Trials, help="also sample the fan distribution")
    p.add_argument("--rho", type=float, default=1.0)

    p = sub.add_parser("lagrangians", parents=[common], help="enumerate Lagrangian subspaces")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--gram", help="JSON file with the Gram matrix rows")

    sub.add_parser("gl2f3-report", parents=[common], help="group facts used by classification")

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The run config: the parsed flags plus the cache directory.

    An output path that is a directory or lies under something that is not
    one is refused here, before any work.
    """
    config = build_parser().parse_args(argv)
    for path in filter(None, (config.out, getattr(config, "emit_cubics", None))):
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
        parent = os.path.dirname(os.path.abspath(path))
        while not os.path.isdir(parent):
            if os.path.lexists(parent):
                raise ConfigError(f"cannot write {path}: its parent is not a directory")
            parent = os.path.dirname(parent)
    config.cache_dir = os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR)
    return config


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
