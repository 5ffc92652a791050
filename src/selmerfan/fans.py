"""Fans of prime tuples and the S3-cubic fields they generate.

A fan collects sorted tuples of distinct support primes (local torsion
dimension not full) under positional norm bounds L_1 <= L_2 <= ... built
from a nondecreasing growth function, filtered to a fixed total weight
w = sum of the local dimensions. Each tuple yields a pure-cubic
representative x^3 - prod(q_j) and 6^m character lifts; replaying the
tuple's classified primes through the rank walk gives the fan's empirical
Selmer-dimension law. A FanIndex counts the fan without listing it and
gives its k-th element, so the law is sampled by count; `enumerate_fan`
lists the fan only for output that shows its elements. The growth kinds
(`log`, `pow:a`, `affine:a,b`) are stated once, in GROWTH_LAWS, with their
parameter counts and laws; a law's spec string parses back to the same law.
"""
from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass

import numpy as np

from .chain import Distribution
from .curves import CurveQ, PrimeClassRecord, good_primes
from .errors import ConfigError, DataError
from .sampling import law_from_counts, simulate_streams

# the most elements a fan may have. Listing is the cheap part: `enumerate_fan` of the
# 128,505-element fan `--m 4 --w 4 --X 8 --growth affine:0,12` grew the peak 36.8 -> 56.8 MB.
# Printing its JSON costs about 10x more: 245 MB peak (3.5 s), and 182 MB for the 101,458
# elements of `--m 2 --w 2 --X 300 --growth pow:1` (fresh processes over a warm cache, 2 cores)
MAX_FAN_ELEMENTS = 10**6
# the most int64 counts a FanIndex holds (128 MiB); only fans far past the cap need more
MAX_INDEX_COUNTS = 2**24


# the growth kinds: kind -> (parameter count, law at y >= 1 with parameters a, b)
GROWTH_LAWS = {
    "log": (0, lambda y, a, b: max(1.0, math.log(y))),
    "pow": (1, lambda y, a, b: y**a),
    "affine": (2, lambda y, a, b: a * y + b),
}


@dataclass(frozen=True)
class GrowthFn:
    """Named nondecreasing function [1, inf) -> [1, inf), a kind of GROWTH_LAWS."""

    kind: str
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in GROWTH_LAWS:
            raise ConfigError(f"unknown growth kind {self.kind!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ConfigError(f"growth parameters must be finite, got {self.a}, {self.b}")
        arity = GROWTH_LAWS[self.kind][0]
        if any((self.a, self.b)[arity:]):
            raise ConfigError(f"{self.kind} growth takes {arity} parameter(s): {self.a}, {self.b}")
        if self.a < 0 or self(1.0) < 1:
            raise ConfigError(f"{self.kind} growth must be nondecreasing, from L(1) >= 1")

    def __call__(self, y: float) -> float:
        if y < 1:
            raise ConfigError(f"growth functions are defined on [1, inf), got {y}")
        return GROWTH_LAWS[self.kind][1](y, self.a, self.b)

    def spec_string(self) -> str:
        """The spec `parse_growth` reads back to this law: every parameter's shortest repr."""
        arity = GROWTH_LAWS[self.kind][0]
        params = ",".join(repr(x).removesuffix(".0") for x in (self.a, self.b)[:arity])
        return f"{self.kind}:{params}" if params else self.kind


def parse_growth(text: str) -> GrowthFn:
    """Parse 'log', 'pow:alpha' or 'affine:a,b': a kind and its comma-separated parameters."""
    name, _, args = text.partition(":")
    if name not in GROWTH_LAWS:
        raise ConfigError(f"unknown growth function {name!r}")
    try:
        params = [float(t) for t in args.split(",")] if args else []
        if len(params) != GROWTH_LAWS[name][0]:
            raise ValueError(f"{name} takes {GROWTH_LAWS[name][0]} parameter(s)")
    except ValueError as e:
        raise ConfigError(f"bad growth spec {text!r}: {e}") from e
    return GrowthFn(name, *params)


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


class FanIndex:
    """A weight-w fan under the bounds L_1..L_m of ln_sequence, held by count.

    It gives the fan's `count`, its k-th element in sorted order and
    membership; `enumerate_fan` lists it, sorted. It keeps the records it
    counted, the ones `fan_distribution` replays; they must cover every
    good prime up to `prime_bound`, and a gap in them is an error, not a
    silent shrink.

    A sorted tuple of support primes is admissible when q_j < L_j position
    by position and its local dimensions sum to w; the bounds are
    nondecreasing, so this is exactly the existence of an assignment of
    primes to positions. The build below is the one place admissibility is
    decided: `counts[pos, r, i]` counts the ways to fill positions pos..m-1
    from support indices i on with weight r left, so index j is a live
    choice at (pos, r) when the count drops from j to j + 1. Counts
    saturate at MAX_FAN_ELEMENTS + 1, and a fan past the cap is refused from
    its count, before anything is listed or drawn; every state on a real
    prefix counts at most the whole fan, so the states that listing,
    unranking and membership read are exact.
    """

    @staticmethod
    def prime_bound(bounds: list[float], w: int) -> int:
        """ceil(L_m) - 1, the last prime the fan reads, once m >= 1 and w in 0..m are checked."""
        m = len(bounds)
        if m < 1:
            raise ConfigError(f"fan needs m >= 1, got {m}")
        if w < 0 or w > m:
            raise ConfigError(f"weight must lie in 0..{m}, got {w}")
        return math.ceil(bounds[-1]) - 1

    def __init__(
        self, curve: CurveQ, bounds: list[float], w: int, records: dict[int, PrimeClassRecord]
    ):
        top = self.prime_bound(bounds, w)
        self.bounds, self.m, self.w, self.records = bounds, len(bounds), w, records
        missing = [p for p in good_primes(curve, top) if p not in records]
        if missing:
            raise DataError(
                f"classification cache is missing {len(missing)} primes in "
                f"[{missing[0]}, {missing[-1]}]; classify up to {top + 1} first"
            )
        # the support primes below the last bound, ascending: the primes a fan draws from
        self.support = [p for p in sorted(records) if p < bounds[-1] and records[p].in_DB_support]
        self.dims = [records[q].dim_fp for q in self.support]
        n = len(self.support)
        size = (self.m + 1) * (w + 1) * (n + 1)
        if size > MAX_INDEX_COUNTS:
            raise ConfigError(
                f"fan index needs {size} counts, past MAX_INDEX_COUNTS = {MAX_INDEX_COUNTS}"
            )
        q = np.array(self.support)
        # the weight left after picking each prime, from each weight r
        left = np.arange(w + 1)[:, None] - np.array(self.dims, dtype=np.int64)
        picked = (np.maximum(left, 0), np.arange(1, n + 1))
        counts = np.zeros((self.m + 1, w + 1, n + 1), dtype=np.int64)
        counts[self.m, 0] = 1
        for pos in range(self.m - 1, -1, -1):
            fits = (q < bounds[pos]) & (left >= 0)
            ways = np.where(fits, counts[pos + 1][picked], 0)
            suffix = ways[:, ::-1].cumsum(axis=1)[:, ::-1]
            counts[pos, :, :n] = np.minimum(suffix, MAX_FAN_ELEMENTS + 1)
        self.counts = counts
        self.count = int(counts[0, w, 0])
        if self.count > MAX_FAN_ELEMENTS:
            raise ConfigError(f"fan passes the cap MAX_FAN_ELEMENTS = {MAX_FAN_ELEMENTS}")

    def element(self, picked: list[int]) -> FanElement:
        return FanElement(tuple(self.support[j] for j in picked), self.w)

    def admits(self, picked: list[int]) -> bool:
        """Whether ascending support indices, one per position, form a fan element."""
        r = self.w
        for pos, j in enumerate(picked):
            row = self.counts[pos, r]
            if row[j] == row[j + 1]:
                return False
            r -= self.dims[j]
        return True

    def unrank(self, k: int) -> FanElement:
        """The k-th element in sorted order, by bisection down the count rows."""
        if not 0 <= k < self.count:
            raise IndexError(f"rank {k} is outside the fan of {self.count} elements")
        picked, i, r = [], 0, self.w
        for pos in range(self.m):
            row = self.counts[pos, r]
            # the last j >= i with at least row[i] - k elements from j on
            j = bisect.bisect_right(row, k - row[i], lo=i, key=operator.neg) - 1
            k -= int(row[i] - row[j])
            picked.append(j)
            i, r = j + 1, r - self.dims[j]
        return self.element(picked)

    def _extend(self, pos: int, i: int, r: int, picked: list[int], out: list[FanElement]) -> None:
        # a row is 0 past the last prime under L_pos; read it that far once, as ints
        row = self.counts[pos, r, i : np.count_nonzero(self.counts[pos, r]) + 1].tolist()
        for j, (here, after) in enumerate(zip(row, row[1:]), i):
            if here > after:
                picked.append(self.support[j])
                if pos + 1 == self.m:
                    out.append(FanElement(tuple(picked), self.w))
                else:
                    self._extend(pos + 1, j + 1, r - self.dims[j], picked, out)
                picked.pop()


def enumerate_fan(index: FanIndex) -> list[FanElement]:
    """Every element of the indexed fan, sorted: a walk down the live choices only."""
    out: list[FanElement] = []
    index._extend(0, 0, index.w, [], out)
    return out


def _substream_seed(seed: int, tag: int, idx: int = 0) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, idx))
    return int(ss.generate_state(1, np.uint64)[0])


def _sample_elements(index: FanIndex, count: int, seed: int) -> list[FanElement]:
    """Uniform fan elements by rejection from sorted support m-subsets.

    Proposals are uniform over all strictly increasing m-tuples of the
    support primes; a proposal is accepted when the index admits it, so
    accepted draws are uniform over the (non-empty) fan.
    """
    gen = np.random.Generator(np.random.Philox(_substream_seed(seed, 1)))
    out: list[FanElement] = []
    limit = 10_000 * max(1, count)
    for _ in range(limit):
        picked = sorted(gen.choice(len(index.support), size=index.m, replace=False))
        if index.admits(picked):
            out.append(index.element(picked))
            if len(out) == count:
                return out
    raise DataError(
        f"rejection sampling accepted only {len(out)} of {count} "
        f"elements after {limit} proposals"
    )


# elements replayed per simulate_streams call, so that their streams, seeds and keyed pools
# stay small: `fan --m 2 --w 2 --X 300 --growth pow:1 --trials 200000` over the fix cache
# to 1e5 (101,458 elements) peaked at 88.8 MB in one call and at 56.7 MB in windows, with
# the same stdout, in fresh processes on a 2-core VM (Monte Carlo chunks of 4096 rows)
_REPLAY_WINDOW = 1024


def fan_distribution(
    index: FanIndex, initial: Distribution, trials: int, seed: int
) -> Distribution:
    """Empirical final-dimension law over a fan, lifts sampled per prime.

    Replays the records the index was built from, so no others can stand
    in for them, each walk from the initial law. Fans with m <= 3 spread
    the trials evenly over all elements, or over `trials` ranks drawn
    without replacement and unranked; larger fans draw a uniform batch by
    rejection. No element list is built. The elements replay through
    `simulate_streams`, 1024 at a time, each on its own seed, those of the
    same prime kinds together; the windows' count rows add up to one, so
    each mass is its count over the trials kept. An empty fan raises
    before any draw: a DataError for m >= 4 over at least m support
    primes, else a ConfigError; a fan whose every trial overflows raises
    a ConsistencyError.
    """
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    m = index.m
    if index.count == 0:
        raise (ConfigError if m <= 3 or len(index.support) < m else DataError)(
            f"empty fan: no admissible tuples of {m} primes below {index.bounds[-1]:g}"
        )
    if m > 3:
        elements = _sample_elements(index, min(trials, 256), seed)
    else:
        ranks = range(index.count)
        if index.count > trials:
            gen = np.random.Generator(np.random.Philox(_substream_seed(seed, 2)))
            ranks = sorted(gen.choice(index.count, size=trials, replace=False))
        elements = [index.unrank(int(k)) for k in ranks]
    base, extra = divmod(trials, len(elements))
    counts = 0
    for first in range(0, len(elements), _REPLAY_WINDOW):
        window = range(first, min(first + _REPLAY_WINDOW, len(elements)))
        counts += simulate_streams(
            initial,
            [[index.records[q] for q in elements[k].primes] for k in window],
            [base + (k < extra) for k in window],
            [_substream_seed(seed, 3, k) for k in window],
        )
    return law_from_counts(counts)
