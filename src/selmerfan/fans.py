"""Fans of prime tuples and the S3-cubic fields they generate.

A fan collects sorted tuples of distinct support primes (local torsion
dimension not full) under positional norm bounds L_1 <= L_2 <= ... built
from a nondecreasing growth function, filtered to a fixed total weight
w = sum of the local dimensions. Each tuple yields a pure-cubic
representative x^3 - prod(q_j) and 6^m character lifts; replaying the
tuple's classified primes through the rank walk gives the fan's empirical
Selmer-dimension law.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .chain import Distribution, simulate_chain
from .curves import CurveQ, PrimeClassRecord, good_primes
from .errors import ConfigError, DataError

# the most elements enumerate_fan lists; 10^6 five-prime elements peak near 210 MB
MAX_FAN_ELEMENTS = 10**6


@dataclass(frozen=True)
class GrowthFn:
    """Named nondecreasing function [1, inf) -> [1, inf)."""

    kind: str
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ConfigError(f"growth parameters must be finite, got {self.a}, {self.b}")
        if self.kind == "log":
            return
        if self.kind == "pow":
            if self.a < 0:
                raise ConfigError("power growth needs a non-negative exponent")
            return
        if self.kind == "affine":
            if self.a < 0:
                raise ConfigError("affine growth needs a non-negative slope")
            if self.a + self.b < 1:
                raise ConfigError("affine growth must map 1 to at least 1")
            return
        raise ConfigError(f"unknown growth kind {self.kind!r}")

    def __call__(self, y: float) -> float:
        if y < 1:
            raise ConfigError(f"growth functions are defined on [1, inf), got {y}")
        if self.kind == "log":
            return max(1.0, math.log(y))
        if self.kind == "pow":
            return y**self.a
        return self.a * y + self.b

    def spec_string(self) -> str:
        if self.kind == "log":
            return "log"
        if self.kind == "pow":
            return f"pow:{self.a:g}"
        return f"affine:{self.a:g},{self.b:g}"


def parse_growth(text: str) -> GrowthFn:
    """Parse 'log', 'pow:alpha' or 'affine:a,b'."""
    name, _, args = text.partition(":")
    try:
        if name == "log":
            if args:
                raise ValueError("log takes no parameters")
            return GrowthFn("log")
        if name == "pow":
            return GrowthFn("pow", float(args))
        if name == "affine":
            a, b = (float(t) for t in args.split(","))
            return GrowthFn("affine", a, b)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"bad growth spec {text!r}: {e}") from e
    raise ConfigError(f"unknown growth function {name!r}")


class RangeOverflowError(ConfigError):
    """A norm-bound recursion left the double-precision range."""


def ln_sequence(L: GrowthFn, Y: float, n: int) -> list[float]:
    """Positional norm bounds L_1..L_n at parameter Y.

    L_1 = L(Y) and each later bound is the larger of L at the product of
    all earlier bounds and Y times the previous bound.
    """
    if not Y >= 1:
        raise ConfigError(f"Y must be at least 1, got {Y}")
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    out: list[float] = []
    prod = 1.0
    for k in range(n):
        try:
            nxt = max(L(prod), Y * out[-1]) if out else L(Y)
        except OverflowError:
            nxt = math.inf
        if not math.isfinite(nxt):
            raise RangeOverflowError(f"norm bound overflows at index {k + 1}")
        out.append(nxt)
        prod *= nxt
        if not math.isfinite(prod) and k < n - 1:
            raise RangeOverflowError(f"norm-bound product overflows at index {k + 1}")
    return out


@dataclass(frozen=True)
class FanElement:
    """One admissible prime tuple with its weight and cubic representative."""

    primes: tuple[int, ...]
    w: int

    def __post_init__(self) -> None:
        if list(self.primes) != sorted(set(self.primes)):
            raise ConfigError("primes must be strictly increasing")

    @property
    def m(self) -> int:
        return len(self.primes)

    @property
    def d_value(self) -> int:
        return math.prod(self.primes)

    @property
    def cubic_poly(self) -> str:
        return f"x^3 - {self.d_value}"


def lift_count(elem: FanElement) -> int:
    """Number of character lifts over the element: 6 per prime."""
    return 6**elem.m


def _support(bounds: list[float], records: dict[int, PrimeClassRecord]) -> list[int]:
    """Support primes below the last bound, ascending: the primes a fan draws from."""
    return [p for p in sorted(records) if p < bounds[-1] and records[p].in_DB_support]


def enumerate_fan(
    curve: CurveQ, bounds: list[float], w: int, records: dict[int, PrimeClassRecord]
) -> list[FanElement]:
    """All weight-w support m-tuples under the bounds L_1..L_m of ln_sequence, sorted.

    A sorted tuple is admissible when q_j < L_j position by position; the
    bounds are nondecreasing, so this is exactly the existence of an
    assignment of primes to positions. The records must cover every good
    prime below the last bound; a gap in them is an error, not a silent
    shrink. A fan of more than MAX_FAN_ELEMENTS elements is refused as soon
    as the list would pass the cap.
    """
    m = len(bounds)
    if m < 1:
        raise ConfigError(f"fan needs m >= 1, got {m}")
    if w < 0 or w > m:
        raise ConfigError(f"weight must lie in 0..{m}, got {w}")
    missing = [p for p in good_primes(curve, math.ceil(bounds[-1]) - 1) if p not in records]
    if missing:
        raise DataError(
            f"classification cache is missing {len(missing)} primes in "
            f"[{missing[0]}, {missing[-1]}]; classify up to {math.ceil(bounds[-1])} first"
        )
    support = _support(bounds, records)
    out: list[FanElement] = []

    def extend(start: int, pos: int, picked: list[int], weight: int) -> None:
        if pos == m:
            if weight == w:
                if len(out) == MAX_FAN_ELEMENTS:
                    raise ConfigError(f"fan passes the cap MAX_FAN_ELEMENTS = {MAX_FAN_ELEMENTS}")
                out.append(FanElement(tuple(picked), w))
            return
        for idx in range(start, len(support)):
            q = support[idx]
            if q >= bounds[pos]:
                break
            dq = records[q].dim_fp
            if weight + dq > w or weight + dq + (m - pos - 1) < w:
                continue
            picked.append(q)
            extend(idx + 1, pos + 1, picked, weight + dq)
            picked.pop()

    try:
        extend(0, 0, [], 0)
    finally:
        # the closure refers to itself; dropping it lets refcounting free the fan
        del extend
    return out


def _substream_seed(seed: int, tag: int, idx: int = 0) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, idx))
    return int(ss.generate_state(1, np.uint64)[0])


def _sample_elements(
    elements: list[FanElement], support: list[int], count: int, seed: int
) -> list[FanElement]:
    """Uniform fan elements by rejection from sorted support m-subsets.

    Proposals are uniform over all strictly increasing m-tuples of the
    support primes; a proposal is accepted when it is a fan element, found
    by bisection in the sorted (non-empty) list, so accepted draws are
    uniform over the fan.
    """
    m = elements[0].m
    gen = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=_substream_seed(seed, 1)))
    )
    out: list[FanElement] = []
    limit = 10_000 * max(1, count)
    for _ in range(limit):
        picked = sorted(gen.choice(len(support), size=m, replace=False))
        qs = tuple(support[i] for i in picked)
        k = bisect.bisect_left(elements, qs, key=lambda e: e.primes)
        if k < len(elements) and elements[k].primes == qs:
            out.append(elements[k])
            if len(out) == count:
                return out
    raise DataError(
        f"rejection sampling accepted only {len(out)} of {count} "
        f"elements after {limit} proposals"
    )


def fan_distribution(
    elements: list[FanElement],
    bounds: list[float],
    records: dict[int, PrimeClassRecord],
    initial: Distribution,
    trials: int,
    seed: int,
) -> Distribution:
    """Empirical final-dimension law over a fan, lifts sampled per prime.

    Takes the fan as enumerate_fan listed it under the positional bounds,
    with the records it was enumerated from; m is the number of bounds.
    Every walk starts from the initial law. Small fans (m up to 3) spread
    the trials across all elements as evenly as possible; larger fans draw
    a uniform batch of elements by rejection.
    Each element's primes replay through the rank walk on an
    element-specific substream. An empty fan raises before any draw: a
    DataError for m >= 4 over at least m support primes, else a ConfigError.
    """
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    m = len(bounds)
    support = _support(bounds, records)
    if not elements:
        raise (ConfigError if m <= 3 or len(support) < m else DataError)(
            f"empty fan: no admissible tuples of {m} primes below {bounds[-1]:g}"
        )
    if m > 3:
        elements = _sample_elements(elements, support, min(trials, 256), seed)
    elif len(elements) > trials:
        gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=_substream_seed(seed, 2)))
        )
        keep = sorted(gen.choice(len(elements), size=trials, replace=False))
        elements = [elements[i] for i in keep]
    base, extra = divmod(trials, len(elements))
    allocation = [base + (1 if i < extra else 0) for i in range(len(elements))]
    merged: dict[int, float] = {}
    total_kept = 0.0
    for idx, (elem, n_alloc) in enumerate(zip(elements, allocation)):
        if n_alloc == 0:
            continue
        stream = [records[q] for q in elem.primes]
        emp = simulate_chain(initial, stream, n_alloc, _substream_seed(seed, 3, idx))
        kept = n_alloc * (1.0 - emp.truncation_error)
        total_kept += kept
        for s, mass in emp.mass.items():
            merged[s] = merged.get(s, 0.0) + mass * kept
    mass = {s: v / total_kept for s, v in merged.items()}
    return Distribution(mass, truncation_error=(trials - total_kept) / trials)
