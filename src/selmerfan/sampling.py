"""The Monte Carlo rank walk: a stream of classified primes replayed per trial.

Each trial replays the stream (split or inert, local class i) through the
transition tables and even rank deltas of `chain`, on its own reproducible
Philox substream keyed by (seed, trial), and only its final dimension is
counted. It imports numpy at its top, so only `chain.simulate_chain`, its
entry point, and `fans`, which replays a fan's elements through
`simulate_streams`, load it.
"""
from __future__ import annotations

import functools

import numpy as np

from .chain import MAX_TRIALS, S_MAX, Distribution, _cij_entry, rank_delta_inert, rank_delta_split
from .errors import ConfigError, ConsistencyError


# the rank jumps, indexed [trace, lift], of the five (class, is_split) a stream element
# can carry; the walk reads a lift for class 2 only, so classes 0 and 1 keep lift 0 alone
_JUMPS = {
    (i, is_split): np.array([[rank_delta_split(i, t, lift) if is_split else rank_delta_inert(i, t)
                              for lift in range(6 if i == 2 else 1)] for t in range(i + 1)])
    for i, is_split in ((0, True), (0, False), (1, True), (1, False), (2, True))
}


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
        for row, key in zip(block, self.keys(rows).tolist()):
            inner["key"] = key
            bit_generator.state = state
            random(out=row)
        return block[:, lead:]


@functools.cache
def _thresholds() -> tuple[dict[int, np.ndarray], np.ndarray]:
    """The walk's thresholds at s = 0..2047, by s: trace 0 of classes 1 and 2 below them,
    and trace 2 of class 2 at or above the last.

    x is Python's 3.0 ** -r, as in chain._STEP_UP, so the class-1 row is
    _STEP_UP at s <= S_MAX: numpy's power differs from it by one ulp at some
    r. x is 0.0 from r = 679 on, so a take clipped to the last entry serves
    every larger s. They are built at the first walk, not at import, so that
    a command that imports this module and never walks, such as `fan` over
    an empty fan, neither builds nor holds them.
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


# uniforms per block (32 MiB), and the most trials a chunk walks at once: a stream wider
# than _CHUNK // _ROWS goes in column blocks, so the per-element loop runs over many rows
_CHUNK = 2**22
_ROWS = 4096


def _replay(
    initial: Distribution, elements: list[tuple[int, bool]], seeds: list[int], trials: list[int]
) -> np.ndarray:
    """Every seed's trials over one stream of prime kinds, counted by final dimension.

    Entry s counts the trials of all the seeds that end at s = 0..S_MAX,
    and the last entry those past S_MAX. The rows of all the seeds walk
    together in chunks of at most _ROWS trials, each keyed in one pass.
    """
    width = 1 + 2 * len(elements)
    total = sum(trials)
    rows = min(total, _ROWS)
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
