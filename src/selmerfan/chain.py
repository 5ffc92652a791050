"""Alternating rank-walk on 3-Selmer dimensions: the exact operators.

The walk lives on non-negative integers s. One step moves s -> s+2 with
probability 3^(-floor(s/2)) and s -> s-2 otherwise, so parity is conserved
and each parity class carries a stationary law with explicit product-form
masses and super-geometric tails. The walk never holds, so iterates from a
point mass alternate between the two mod-4 classes of their parity; only the
stationary law conditioned on a class, or the average of two consecutive
iterates, is a limit of them. This module needs no numpy. The Monte Carlo
walk, which replays a stream of classified primes through the transition
tables and even rank deltas, one reproducible substream per trial, lives in
`sampling`; `simulate_chain` is its entry point and loads it on first call.
"""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

from .errors import ConfigError, ConsistencyError

S_MAX = 64
MASS_TOL = 1e-12


@dataclass(frozen=True)
class Distribution:
    """Probability masses on dimensions 0..S_MAX, total pinned to 1."""

    mass: dict[int, float]
    truncation_error: float = field(default=0.0, kw_only=True)

    def __post_init__(self) -> None:
        clean: dict[int, float] = {}
        for s, m in self.mass.items():
            if not isinstance(s, numbers.Integral) or s < 0 or s > S_MAX:
                raise ConfigError(f"support point {s} outside 0..{S_MAX}")
            if m < 0:
                raise ConfigError(f"negative mass {m} at {s}")
            if m != m:  # NaN: unequal to itself, and neither < 0 nor > 0
                raise ConfigError(f"mass at {s} is not a number")
            if m > 0:
                clean[int(s)] = float(m)
        object.__setattr__(self, "mass", clean)
        total = self.total()
        if abs(total - 1.0) > MASS_TOL:
            raise ConfigError(f"total mass {total} deviates from 1 beyond {MASS_TOL}")

    @classmethod
    def point_mass(cls, s: int) -> "Distribution":
        return cls({s: 1.0})

    def total(self) -> float:
        return sum(self.mass.values())

    def pmf(self, s: int) -> float:
        return self.mass.get(s, 0.0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.mass))

    def l1_distance(self, other: "Distribution") -> float:
        keys = set(self.mass) | set(other.mass)
        return sum(abs(self.pmf(s) - other.pmf(s)) for s in keys)

    def tv_distance(self, other: "Distribution") -> float:
        return 0.5 * self.l1_distance(other)


@dataclass(frozen=True)
class RhoE:
    """Probability that the auxiliary rank starts even."""

    value: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ConfigError(f"rho must lie in [0, 1], got {self.value}")

    def initial_distribution(self) -> Distribution:
        return Distribution({0: self.value, 1: 1.0 - self.value})


def r_omega(dim: int) -> int:
    """Number of full hyperbolic layers below dim: floor(dim / 2)."""
    if dim < 0:
        raise ConfigError(f"dimension must be non-negative, got {dim}")
    return dim // 2


def cij(i: int, j: int, r: int) -> float:
    """Probability that a class-i prime leaves a j-dimensional local trace.

    Row i=2 is kept in factored form so that the j=2 entry vanishes exactly
    at r <= 1, where a drop by 4 is geometrically impossible.
    """
    if i not in (1, 2) or j not in (0, 1, 2):
        raise ConfigError(f"no transition entry for i={i}, j={j}")
    if r < 0:
        raise ConfigError(f"r must be non-negative, got {r}")
    return _cij_entry(i, j, 3.0 ** (-r))


def _cij_entry(i: int, j: int, x):
    """Entry (i, j) of cij at x = 3^(-r), for a float or an array of them."""
    if j == 0:
        return x if i == 1 else x * x
    if j == 1:
        return 1.0 - x if i == 1 else 4.0 * x * (1.0 - x)
    return 0.0 if i == 1 else (1.0 - x) * (1.0 - 3.0 * x) + 0.0


def rank_delta_split(i: int, t: int, lift: int) -> int:
    """Even rank jump for a completely split prime of class i, trace t."""
    if i not in (0, 1, 2):
        raise ConfigError(f"split class must be 0, 1 or 2, got {i}")
    if not 0 <= lift <= 5:
        raise ConfigError(f"lift index must be in 0..5, got {lift}")
    if t < 0 or t > i:
        raise ConfigError(f"trace dimension {t} impossible for class {i}")
    if i == 0:
        return 0
    if i == 1:
        return 2 if t == 0 else -2
    if t == 2:
        return -4
    if t == 1:
        return 0
    return 4 if lift < 2 else 0


def rank_delta_inert(i: int, t: int) -> int:
    """Even rank jump for an inert prime of class i, trace t."""
    if i not in (0, 1):
        raise ConfigError(f"inert primes carry local class 0 or 1, got {i}")
    if t < 0 or t > i:
        raise ConfigError(f"trace dimension {t} impossible for class {i}")
    if i == 0:
        return 0
    return 2 if t == 0 else -2


# one exact walk step is a class-1 prime: its trace-0 chance at s = 0..S_MAX, trace 0 and 1 jumps
_STEP_UP = tuple(_cij_entry(1, 0, 3.0 ** -r_omega(s)) for s in range(S_MAX + 1))
_RISE, _FALL = (rank_delta_split(1, t, 0) for t in (0, 1))


def ml_step(d: Distribution) -> Distribution:
    """One application of the alternating rank-walk operator."""
    return evolve(d, 1)


def evolve(d: Distribution, w: int) -> Distribution:
    """w steps of the alternating rank walk; the law is validated once, at the end.

    A step reads only the ordered (s, mass) items, so once they equal those of
    two steps back the law has period 2 and the remaining steps only add the
    last two losses to truncation_error in turn, the same bytes as stepping:
    the steps to the first repeat (65 from point_mass(0)) plus one addition each.
    """
    if w < 0:
        raise ConfigError(f"step count must be non-negative, got {w}")
    mass, truncation_error = d.mass, d.truncation_error
    # the ordered items two steps and one step back, and the losses of the last two steps
    back2, back1, losses = None, list(mass.items()), (0.0, 0.0)
    for done in range(1, w + 1):
        out: dict[int, float] = {}
        lost = 0.0
        for s, m in mass.items():
            up = _STEP_UP[s]
            if s + _RISE <= S_MAX:
                out[s + _RISE] = out.get(s + _RISE, 0.0) + m * up
            else:
                lost += m * up
            down = m * (1.0 - up)
            if down > 0.0:
                if s + _FALL < 0:
                    raise ConsistencyError(f"downward move from dimension {s}")
                out[s + _FALL] = out.get(s + _FALL, 0.0) + down
        keep = 1.0 - lost  # exactly 1.0, a no-op divisor, when nothing was lost
        mass = {s: m / keep for s, m in out.items() if m > 0.0}
        truncation_error += lost
        items, losses = list(mass.items()), (losses[1], lost)
        if items == back2:  # lists, not dicts: dict equality ignores the order the sums follow
            for k in range(w - done):
                truncation_error += losses[k % 2]
            if (w - done) % 2:
                mass = dict(back1)
            break
        back2, back1 = back1, items
    return Distribution(mass, truncation_error=truncation_error)


def rho(d: Distribution) -> float:
    """Total mass on even dimensions."""
    return sum(m for s, m in d.mass.items() if s % 2 == 0)


def _truncated_product(factors) -> float:
    """Product of the factors before the first one, after the zeroth, within 1e-15 of 1."""
    out = 1.0
    for k, f in enumerate(factors):
        if k > 0 and abs(f - 1.0) < 1e-15:
            break
        out *= f
    return out


def stationary(parity: str) -> Distribution:
    """The invariant law of the even or odd parity class.

    It is the single-step invariant law; iterates from a point mass alternate
    between the mod-4 classes (mass 1/2 each here), so only this law
    conditioned on a class, or the average of two consecutive iterates, is
    their limit.
    """
    if parity not in ("even", "odd"):
        raise ConfigError(f"parity must be 'even' or 'odd', got {parity!r}")
    lead = _truncated_product(1.0 / (1.0 + 3.0 ** (-k)) for k in itertools.count())
    shift = 0 if parity == "even" else 1
    mass: dict[int, float] = {}
    for j in range((S_MAX - shift) // 2 + 1):
        s = 2 * j + shift
        value = lead
        for k in range(1, j + 1):
            value *= 3.0 / (3**k - 1)
        mass[s] = value
    return Distribution(mass)


def tail_constant() -> float:
    """The constant multiplying the super-geometric tail bound."""
    return _truncated_product(1.0 / (1.0 - 3.0 ** (-k)) for k in itertools.count(1))


def tail_bound(s: int) -> float:
    """Closed-form upper bound for the stationary mass at or above s."""
    if s < 4:
        raise ConfigError(f"tail bound needs s >= 4, got {s}")
    even = s - s % 2
    try:
        return tail_constant() * 3.0 ** (-(even * (even - 2) // 8))
    except OverflowError:  # an exponent past float range: the power underflows to 0.0
        return 0.0


def tail_exact(parity: str, s: int) -> float:
    """Exact stationary mass at or above s within one parity class."""
    if not 4 <= s <= S_MAX:
        raise ConfigError(f"exact tail needs 4 <= s <= {S_MAX}, got {s}")
    law = stationary(parity)
    value = sum(m for q, m in law.mass.items() if q >= s)
    if value >= tail_bound(s):
        raise ConsistencyError(f"exact tail at {s} is not below its closed-form bound")
    return value


MAX_TRIALS = 2**32  # one 32-bit spawn word per trial


def simulate_chain(initial: Distribution, prime_stream, trials: int, seed: int) -> Distribution:
    """Monte Carlo replay of a prime stream, one substream per trial.

    Every stream element consumes exactly two uniforms per trial (class
    draw, lift draw) whether or not it moves the walk, so trajectories are
    reproducible functions of (seed, trial) alone. The trials walk in
    chunks of min(trials, 4096) rows, a long stream in column blocks of
    about 2^22 uniforms, all drawn into one buffer, and only final
    dimensions are counted. So peak memory is one block: at most
    2^22 doubles (32 MiB) and a few per row, whatever the number of trials
    or the length of the stream. It is the law of `simulate_streams` of one
    stream.
    """
    from .sampling import law_from_counts, simulate_streams

    return law_from_counts(simulate_streams(initial, [prime_stream], [trials], [seed]))
