"""Span recorder for the traced run, kept outside the program.

Each public function named in TARGETS is wrapped once, and the wrapper
replaces the original in every `selmerfan` module namespace that binds it
(`cli` imports most entry points by name, `store` imports `good_primes`,
`fans` imports `simulate_chain`). A span is [name, op, parent, start_ns,
end_ns, child_ns, counts]; spans stay in memory until the run writes them
out as JSON lines. A span's self time is its duration minus the time its
direct child spans cover; calls are single-threaded, so children nest.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time


def _sim_counts(bound, result):
    trials, steps = bound["trials"], len(bound["prime_stream"])
    return {"trial_steps": trials * steps, "uniform_bytes_computed": trials * (1 + 2 * steps) * 8}


# (module, function, counter hook over the bound arguments and the result)
TARGETS = (
    ("curves", "ap", None),
    ("curves", "dim3_fp", None),
    ("curves", "dim3_fp2", None),
    ("curves", "classify_prime", None),
    ("curves", "good_primes", None),
    ("curves", "frobenius_class", None),
    ("store", "load_records", lambda b, r: {"records": len(r)}),
    ("store", "append_records", lambda b, r: {"appended": r}),
    ("store", "ensure_classified", lambda b, r: {"fresh": r[1], "reused": len(r[0]) - r[1]}),
    ("store", "cache_checksum", None),
    ("store", "read_curves_csv", None),
    ("chain", "simulate_chain", _sim_counts),
    ("chain", "evolve", None),
    ("chain", "ml_step", None),
    ("chain", "stationary", None),
    ("fans", "enumerate_fan", lambda b, r: {"elements": len(r)}),
    ("fans", "fan_distribution", None),
    ("f3geom", "enumerate_subspaces", lambda b, r: {"subspaces": len(r)}),
    ("f3geom", "is_totally_isotropic", None),
    ("f3geom", "lagrangians", lambda b, r: {"found": len(r)}),
    ("f3geom", "coordinatewise_lagrangians", lambda b, r: {"found": len(r)}),
    ("gl2f3", "conjugacy_partition", None),
    ("gl2f3", "sl2_subgroups", None),
    ("gl2f3", "match_class", None),
    ("cli", "run", None),
    ("cli", "emit", None),
)

NAME, OP, PARENT, START, END, CHILD, COUNTS = range(7)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = ""
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        signature = inspect.signature(fn) if count else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else -1, time.perf_counter_ns(), 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
                if span[PARENT] >= 0:
                    spans[span[PARENT]][CHILD] += span[END] - span[START]
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[COUNTS] = count(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("selmerfan.")]
        for module_name, fn_name, count in TARGETS:
            original = getattr(importlib.import_module(f"selmerfan.{module_name}"), fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write_jsonl(self, path) -> None:
        keys = ("name", "op", "parent", "start_ns", "end_ns", "child_ns", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")


def _quantile_us(durations_ns: list[int], q: int) -> float:
    if not durations_ns:
        return 0.0
    if len(durations_ns) == 1:
        return durations_ns[0] / 1e3
    return statistics.quantiles(durations_ns, n=100, method="inclusive")[q - 1] / 1e3


def layer_metrics(spans: list[list], emitted_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, `<module>.<function>.<stat>` -> (value, unit)."""
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    counts: dict[str, int] = {}
    ap_ns: list[int] = []
    enumerated_under: dict[int, int] = {}
    simulated_under: dict[int, int] = {}
    for span in spans:
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + span[END] - span[START] - span[CHILD]
        for key, value in (span[COUNTS] or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if name == "curves.ap":
            ap_ns.append(span[END] - span[START])
        parent = span[PARENT]
        if name == "f3geom.enumerate_subspaces" and span[COUNTS]:
            enumerated_under[parent] = enumerated_under.get(parent, 0) + span[COUNTS]["subspaces"]
        elif name == "chain.simulate_chain":
            simulated_under[parent] = simulated_under.get(parent, 0) + 1

    def attempts(name: str) -> tuple[int, int]:
        found = enumerated = 0
        for i, span in enumerate(spans):
            if span[NAME] == name and span[COUNTS]:
                found += span[COUNTS]["found"]
                enumerated += enumerated_under.get(i, 0)
        return found, enumerated

    def ratio(found: int, enumerated: int) -> float:
        return found / enumerated if enumerated else 0.0

    lag_found, lag_enum = attempts("f3geom.lagrangians")
    coord_found, coord_enum = attempts("f3geom.coordinatewise_lagrangians")
    fan_simulated = sum(
        n for i, n in simulated_under.items()
        if i >= 0 and spans[i][NAME] == "fans.fan_distribution"
    )

    def c(name):
        return calls.get(name, 0), "count"

    def s(name):
        return self_ns.get(name, 0) / 1e9, "s"

    def n(key):
        return counts.get(key, 0), "count"

    return {
        "curves.ap.calls": c("curves.ap"),
        "curves.ap.self_s": s("curves.ap"),
        "curves.ap.p50_us": (_quantile_us(ap_ns, 50), "us"),
        "curves.ap.p99_us": (_quantile_us(ap_ns, 99), "us"),
        "curves.dim3_fp.self_s": s("curves.dim3_fp"),
        "curves.dim3_fp2.self_s": s("curves.dim3_fp2"),
        "curves.classify_prime.calls": c("curves.classify_prime"),
        "curves.classify_prime.self_s": s("curves.classify_prime"),
        "curves.good_primes.self_s": s("curves.good_primes"),
        "curves.frobenius_class.self_s": s("curves.frobenius_class"),
        "store.load_records.calls": c("store.load_records"),
        "store.load_records.self_s": s("store.load_records"),
        "store.load_records.records": n("store.load_records.records"),
        "store.append_records.self_s": s("store.append_records"),
        "store.append_records.appended": n("store.append_records.appended"),
        "store.ensure_classified.fresh": n("store.ensure_classified.fresh"),
        "store.ensure_classified.reused": n("store.ensure_classified.reused"),
        "store.cache_checksum.self_s": s("store.cache_checksum"),
        "store.read_curves_csv.self_s": s("store.read_curves_csv"),
        "chain.simulate_chain.calls": c("chain.simulate_chain"),
        "chain.simulate_chain.self_s": s("chain.simulate_chain"),
        "chain.simulate_chain.trial_steps": n("chain.simulate_chain.trial_steps"),
        "chain.simulate_chain.uniform_bytes_computed": (
            counts.get("chain.simulate_chain.uniform_bytes_computed", 0), "B"),
        "chain.evolve.self_s": s("chain.evolve"),
        "chain.ml_step.calls": c("chain.ml_step"),
        "chain.stationary.self_s": s("chain.stationary"),
        "fans.enumerate_fan.self_s": s("fans.enumerate_fan"),
        "fans.enumerate_fan.elements": n("fans.enumerate_fan.elements"),
        "fans.fan_distribution.self_s": s("fans.fan_distribution"),
        "fans.fan_distribution.elements_simulated": (fan_simulated, "count"),
        "f3geom.enumerate_subspaces.self_s": s("f3geom.enumerate_subspaces"),
        "f3geom.enumerate_subspaces.subspaces": n("f3geom.enumerate_subspaces.subspaces"),
        "f3geom.is_totally_isotropic.calls": c("f3geom.is_totally_isotropic"),
        "f3geom.is_totally_isotropic.self_s": s("f3geom.is_totally_isotropic"),
        "f3geom.lagrangians.found": (lag_found, "count"),
        "f3geom.lagrangians.yield": (ratio(lag_found, lag_enum), "ratio"),
        "f3geom.coordinatewise_lagrangians.self_s": s("f3geom.coordinatewise_lagrangians"),
        "f3geom.coordinatewise_lagrangians.yield": (ratio(coord_found, coord_enum), "ratio"),
        "gl2f3.conjugacy_partition.self_s": s("gl2f3.conjugacy_partition"),
        "gl2f3.sl2_subgroups.self_s": s("gl2f3.sl2_subgroups"),
        "gl2f3.match_class.calls": c("gl2f3.match_class"),
        "cli.run.self_s": s("cli.run"),
        "cli.emit.self_s": s("cli.emit"),
        "cli.emit.bytes": (emitted_bytes, "B"),
    }
