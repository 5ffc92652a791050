"""Alternating rank-walk on 3-Selmer dimensions: exact operators, Monte Carlo.

The walk lives on non-negative integers s. One step moves s -> s+2 with
probability 3^(-floor(s/2)) and s -> s-2 otherwise, so parity is conserved
and each parity class carries a stationary law with explicit product-form
masses and super-geometric tails. The walk never holds, so iterates from a
point mass alternate between the two mod-4 classes of their parity; only the
stationary law conditioned on a class, or the average of two consecutive
iterates, is a limit of them. The Monte Carlo side replays a stream of
classified primes (split or inert, local class i) through the transition
tables and even rank deltas, one reproducible substream per trial.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConsistencyError

S_MAX = 64
PRODUCT_CUTOFF = 60
MASS_TOL = 1e-12


@dataclass(frozen=True)
class Distribution:
    """Probability masses on dimensions 0..S_MAX, total pinned to 1."""

    mass: dict[int, float]
    truncation_error: float = field(default=0.0, kw_only=True)

    def __post_init__(self) -> None:
        clean: dict[int, float] = {}
        for s, m in self.mass.items():
            if not isinstance(s, (int, np.integer)) or s < 0 or s > S_MAX:
                raise ConfigError(f"support point {s} outside 0..{S_MAX}")
            if m < 0:
                raise ConfigError(f"negative mass {m} at {s}")
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


# the rank jumps, indexed [trace, lift], of the five (class, is_split) a stream element
# can carry; the walk reads a lift for class 2 only, so classes 0 and 1 keep lift 0 alone
_JUMPS = {
    (i, is_split): np.array([[rank_delta_split(i, t, lift) if is_split else rank_delta_inert(i, t)
                              for lift in range(6 if i == 2 else 1)] for t in range(i + 1)])
    for i, is_split in ((0, True), (0, False), (1, True), (1, False), (2, True))
}


# one exact walk step is a class-1 prime: its trace-0 chance at s = 0..S_MAX, trace 0 and 1 jumps
_STEP_UP = tuple(_cij_entry(1, 0, 3.0 ** -r_omega(s)) for s in range(S_MAX + 1))
_RISE, _FALL = (int(j) for j in _JUMPS[1, True][:, 0])


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
    lead = _truncated_product(
        1.0 / (1.0 + 3.0 ** (-k)) for k in range(PRODUCT_CUTOFF + 1)
    )
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
    return _truncated_product(
        1.0 / (1.0 - 3.0 ** (-k)) for k in range(1, PRODUCT_CUTOFF + 1)
    )


def tail_bound(s: int) -> float:
    """Closed-form upper bound for the stationary mass at or above s."""
    if s < 4:
        raise ConfigError(f"tail bound needs s >= 4, got {s}")
    even = s - s % 2
    return tail_constant() * 3.0 ** (-(even * (even - 2) // 8))


def tail_exact(parity: str, s: int) -> float:
    """Exact stationary mass at or above s within one parity class."""
    if not 4 <= s <= S_MAX:
        raise ConfigError(f"exact tail needs 4 <= s <= {S_MAX}, got {s}")
    law = stationary(parity)
    value = sum(m for q, m in law.mass.items() if q >= s)
    if value >= tail_bound(s):
        raise ConsistencyError(f"exact tail at {s} is not below its closed-form bound")
    return value


def _stream_element(e) -> tuple[int, bool]:
    """Normalize a stream entry to (class index, is_split)."""
    if hasattr(e, "class_k") and hasattr(e, "split_in_F"):
        i, is_split = int(e.class_k), bool(e.split_in_F)
    else:
        i, kind = e
        if kind not in ("split", "inert"):
            raise ConfigError(f"prime kind must be 'split' or 'inert', got {kind!r}")
        is_split = kind == "split"
    if (i, is_split) not in _JUMPS:
        raise ConfigError(f"no {'split' if is_split else 'inert'} prime has local class {i}")
    return i, is_split


def _draw_initial(initial: Distribution, u: np.ndarray) -> np.ndarray:
    support = np.array(initial.support(), dtype=np.int64)
    cum = np.cumsum([initial.pmf(int(s)) for s in support])
    cum[-1] = 1.0
    return support[np.searchsorted(cum, u, side="right")]


# numpy's SeedSequence hash constants; 32-bit words, each held in a uint64 lane
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _hashmix(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash step on 32-bit words: the hashed words and the next constant."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


class _Substreams:
    """Uniforms of the Philox substreams of rows keyed by (seed, trial), from any column on.

    The rows run through the seeds in order, trials 0..trials[k]-1 of
    seeds[k], and the row of (seed, t) draws from
    Generator(Philox(SeedSequence(entropy=seed, spawn_key=(t,)))). Philox is
    counter-based: uniform n of a row is word n % 4 of the block at counter
    n // 4 + 1 under the row's key. So one bit generator, reseated through
    its public state with a row's key and a start counter, draws any column
    range of any row with the bytes of a fresh generator. Trial indices must
    be below 2^32.
    """

    def __init__(self, seeds: list[int], trials: list[int]):
        self._ends = np.cumsum(trials, dtype=np.int64)
        self._starts = self._ends - trials
        # a spawned SeedSequence pads the seed to its 4 pool words, so the pool before the
        # spawn word is SeedSequence(entropy=seed).pool for every trial: read it once a seed
        words = [max(1, -(-int(seed).bit_length() // 32)) for seed in seeds]
        self._hash_const = np.array(
            [_INIT_A * pow(_MULT_A, 16 + 4 * max(0, n - 4), 2**32) & _MASK32 for n in words],
            dtype=np.uint64,
        )
        self._pool = np.array(
            [np.random.SeedSequence(entropy=seed).pool for seed in seeds], dtype=np.uint64
        ).T
        self._bit_generator = np.random.Philox(key=0)
        self._generator = np.random.Generator(self._bit_generator)
        # numpy's own layout of a fresh state, whose spent buffer makes the next draw compute
        # the block after the counter; draws overwrite only its key and counter. Lists, not
        # arrays, since the state setter reads them item by item on every reseat
        self._state = self._bit_generator.state
        self._state["buffer"] = self._state["buffer"].tolist()
        self._counter = self._state["state"]["counter"].tolist()

    def keys(self, rows: range) -> np.ndarray:
        """The Philox key of SeedSequence(entropy=seed, spawn_key=(trial,)) for each row.

        Each row's one 32-bit spawn word is mixed into the 4 pool words of
        its seed, and the pool is hashed out as generate_state(2, uint64),
        for all the rows at once.
        """
        index = np.arange(rows.start, rows.stop)
        seats = np.searchsorted(self._ends, index, side="right")
        spawn = (index - self._starts[seats]).astype(np.uint64)
        hash_const = self._hash_const[seats]
        state = []
        for word in self._pool[:, seats]:
            value, hash_const = _hashmix(spawn, hash_const, _MULT_A)
            mixed = (_MIX_L * word - _MIX_R * value) & _MASK32
            state.append(mixed ^ mixed >> 16)
        hash_const = _INIT_B
        for k, value in enumerate(state):
            state[k], hash_const = _hashmix(value, hash_const, _MULT_B)
        return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)

    def draw(self, rows: range, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Columns start..stop of the rows, drawn into the top left corner of out.

        Each row is reseated at the block that holds column start, so out
        needs start % 4 more columns than the view returned, which skips them.
        """
        lead = start % 4
        block = out[: len(rows), : lead + stop - start]
        state, bit_generator, random = self._state, self._bit_generator, self._generator.random
        inner = state["state"]
        inner["counter"] = [start // 4, *self._counter[1:]]
        for k in range(0, len(rows), _KEY_BLOCK):
            keys = self.keys(rows[k : k + _KEY_BLOCK]).tolist()
            for row, key in zip(block[k : k + _KEY_BLOCK], keys):
                inner["key"] = key
                bit_generator.state = state
                random(out=row)
        return block[:, lead:]


# rows keyed per vector pass: their key arrays stay small heap blocks beside a chunk,
# where keys for a whole chunk moved its placement and raised walk-warm's peak 76 -> 106 MB
_KEY_BLOCK = 4096

@functools.cache
def _thresholds() -> tuple[dict[int, np.ndarray], np.ndarray]:
    """The walk's thresholds at s = 0..2047, by s: trace 0 of classes 1 and 2 below them,
    and trace 2 of class 2 at or above the last.

    x is Python's 3.0 ** -r, as in _STEP_UP, so the class-1 row is _STEP_UP
    at s <= S_MAX: numpy's power differs from it by one ulp at some r. x is
    0.0 from r = 679 on, so a take clipped to the last entry serves every
    larger s. They are built at the first walk, since building them at
    import made every command's peak RSS 0.3-0.4 MB higher.
    """
    x = np.repeat([3.0**-r for r in range(1024)], 2)
    return {1: _cij_entry(1, 0, x), 2: _cij_entry(2, 0, x)}, 1.0 - _cij_entry(2, 2, x)


def _walk(s: np.ndarray, elements: list[tuple[int, bool]], u: np.ndarray) -> np.ndarray:
    """Dimensions s after the elements, whose two uniforms a trial are the column pairs of u."""
    trace0, trace2 = _thresholds()
    for idx, (i, is_split) in enumerate(elements):
        if i == 0:
            continue
        jumps = _JUMPS[i, is_split]
        ut = u[:, 2 * idx]
        t0 = ut < trace0[i].take(s, mode="clip")
        if i == 1:
            delta = np.where(t0, jumps[0, 0], jumps[1, 0])
        else:
            w = jumps.shape[1]  # take at the flat [trace, lift] offset, faster than a 2-D index
            row = np.where(t0, 0, np.where(ut >= trace2.take(s, mode="clip"), 2 * w, w))
            delta = jumps.take(row + (u[:, 1 + 2 * idx] * w).astype(np.int64))
        s = s + delta
        if np.any(s < 0):
            raise ConsistencyError("walk reached a negative dimension")
    return s


MAX_TRIALS = 2**32  # one 32-bit spawn word per trial

# uniforms per block (32 MiB), and the fewest trials a chunk walks at once: a stream wider
# than _CHUNK // _ROW_FLOOR goes in column blocks, so the per-element loop runs over many rows
_CHUNK = 2**22
_ROW_FLOOR = 4096


def _replay(
    initial: Distribution, elements: list[tuple[int, bool]], seeds: list[int], trials: list[int]
) -> np.ndarray:
    """Every seed's trials over one stream of prime kinds, counted by final dimension.

    Entry s counts the trials of all the seeds that end at s = 0..S_MAX,
    and the last entry those past S_MAX. The rows of all the seeds walk
    together, chunked as `simulate_chain` says.
    """
    width = 1 + 2 * len(elements)
    total = sum(trials)
    rows = min(total, max(_ROW_FLOOR, _CHUNK // width))
    pairs = max(1, (_CHUNK // rows - 1) // 2)  # elements per column block
    # a block after the first starts at an odd column, up to 3 past its reseat
    out = np.empty((rows, min(width, 3 + 2 * pairs)))
    streams = _Substreams(seeds, trials)
    counts = np.zeros(S_MAX + 2, dtype=np.int64)
    for first in range(0, total, rows):
        chunk = range(first, min(first + rows, total))
        u = streams.draw(chunk, 0, min(width, 1 + 2 * pairs), out)
        s = _walk(_draw_initial(initial, u[:, 0]), elements[:pairs], u[:, 1:])
        for e in range(pairs, len(elements), pairs):
            block = elements[e : e + pairs]
            s = _walk(s, block, streams.draw(chunk, 1 + 2 * e, 1 + 2 * (e + len(block)), out))
        counts += np.bincount(np.minimum(s, S_MAX + 1), minlength=S_MAX + 2)
    return counts


def simulate_streams(
    initial: Distribution, prime_streams, trials: list[int], seeds: list[int]
) -> np.ndarray:
    """The final-dimension counts of many (stream, trials, seed), summed over the streams.

    Entry s counts the trials that end at s = 0..S_MAX, the last entry
    those past S_MAX; `law_from_counts` turns them into a law. Streams of
    the same prime kinds replay in one call, their trials keyed by
    (seed, trial), so each stream adds the counts of its own
    `simulate_chain` call.
    """
    if min(trials) < 1:
        raise ConfigError(f"trials must be positive, got {min(trials)}")
    if max(trials) > MAX_TRIALS:
        raise ConfigError(
            f"trials must be at most 2^32, one 32-bit spawn word each, got {max(trials)}"
        )
    groups: dict[tuple[tuple[int, bool], ...], list[int]] = {}
    for k, stream in enumerate(prime_streams):
        groups.setdefault(tuple(_stream_element(e) for e in stream), []).append(k)
    return sum(
        _replay(initial, list(elements), [seeds[k] for k in members], [trials[k] for k in members])
        for elements, members in groups.items()
    )


def law_from_counts(counts: np.ndarray) -> Distribution:
    """The law of a `simulate_streams` count row: each mass is its count over
    the trials kept, and the share of trials past S_MAX is the truncation error."""
    n = int(counts.sum())
    n_kept = n - int(counts[S_MAX + 1])
    if n_kept == 0:
        raise ConsistencyError("every trial overflowed the support bound")
    mass = {s: int(c) / n_kept for s, c in enumerate(counts[: S_MAX + 1]) if c}
    return Distribution(mass, truncation_error=(n - n_kept) / n)


def simulate_chain(initial: Distribution, prime_stream, trials: int, seed: int) -> Distribution:
    """Monte Carlo replay of a prime stream, one substream per trial.

    Every stream element consumes exactly two uniforms per trial (class
    draw, lift draw) whether or not it moves the walk, so trajectories are
    reproducible functions of (seed, trial) alone. The trials walk in
    chunks of min(trials, max(4096, 2^22 // width)) rows, a long stream in
    column blocks of about 2^22 uniforms, all drawn into one buffer, and
    only final dimensions are counted. So peak memory is one block: at most
    2^22 doubles (32 MiB) and a few per row, whatever the number of trials
    or the length of the stream. It is the law of `simulate_streams` of one
    stream.
    """
    return law_from_counts(simulate_streams(initial, [prime_stream], [trials], [seed]))
