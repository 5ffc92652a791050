"""Rank-walk operator, stationary laws, tail bounds, Monte Carlo twins."""
import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selmerfan import chain, sampling
from selmerfan.chain import (
    MAX_TRIALS,
    S_MAX,
    Distribution,
    RhoE,
    _cij_entry,
    cij,
    evolve,
    ml_step,
    r_omega,
    rank_delta_inert,
    rank_delta_split,
    rho,
    simulate_chain,
    stationary,
    tail_bound,
    tail_constant,
    tail_exact,
)
from selmerfan.errors import ConfigError, ConsistencyError
from selmerfan.sampling import (
    _JUMPS,
    _draw_initial,
    _stream_element,
    _Substreams,
    law_from_counts,
    simulate_streams,
)

# Stationary masses frozen from an independent product-formula evaluation
# (mpmath, 50 digits, truncated at machine precision).
EVEN_PINS = {
    0: 0.3195022883187389,
    2: 0.4792534324781084,
    4: 0.1797200371792906,
    6: 0.02073692736683353,
    8: 0.0007776347762565465,
}
LEAD_CONSTANT = 0.3195022883187389
TAIL_CONSTANT = 1.7853123419985333
EVEN_TAIL_AT_10 = 9.67988076437676e-06


def delta0() -> Distribution:
    return Distribution.point_mass(0)


def delta1() -> Distribution:
    return Distribution.point_mass(1)


class TestDistribution:
    def test_point_mass(self):
        d = delta0()
        assert d.pmf(0) == 1.0
        assert d.pmf(2) == 0.0
        assert d.support() == (0,)

    def test_total_and_zero_drop(self):
        d = Distribution({0: 0.25, 2: 0.75, 4: 0.0})
        assert d.total() == pytest.approx(1.0)
        assert d.support() == (0, 2)

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            Distribution({0: 0.5, 2: 0.4})

    def test_negative_mass_rejected(self):
        with pytest.raises(ConfigError, match="negative mass"):
            Distribution({0: 1.2, 2: -0.2})

    def test_nan_mass_rejected(self):
        # NaN is neither < 0 nor > 0, so a sign test alone would drop it silently
        for mass in ({0: float("nan"), 2: 1.0}, {0: np.float64("nan"), 2: 1.0}):
            with pytest.raises(ConfigError, match="mass at 0 is not a number"):
                Distribution(mass)

    def test_key_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            Distribution({70: 1.0})
        with pytest.raises(ConfigError):
            Distribution({-2: 1.0})

    def test_integral_keys_only(self):
        # numpy registers its integers as numbers.Integral; they are stored as int keys
        d = Distribution({np.int64(2): 1.0})
        assert d.mass == {2: 1.0} and type(next(iter(d.mass))) is int
        for key in (2.0, np.float64(2), "2"):
            with pytest.raises(ConfigError):
                Distribution({key: 1.0})

    def test_l1_and_tv(self):
        a = Distribution({0: 0.5, 2: 0.5})
        b = Distribution({0: 0.25, 4: 0.75})
        assert a.l1_distance(b) == pytest.approx(0.25 + 0.5 + 0.75)
        assert a.tv_distance(b) == pytest.approx(a.l1_distance(b) / 2)
        assert a.l1_distance(a) == 0.0


class TestTransitionWeights:
    def test_r_omega(self):
        assert [r_omega(s) for s in range(6)] == [0, 0, 1, 1, 2, 2]

    def test_single_prime_row_sums(self):
        for r in range(21):
            assert cij(1, 0, r) + cij(1, 1, r) + cij(1, 2, r) == pytest.approx(1.0)
            assert cij(2, 0, r) + cij(2, 1, r) + cij(2, 2, r) == pytest.approx(1.0)

    def test_degenerate_rows_exact(self):
        # at r = 0 the trace-0 outcome (rank up) is certain for both classes
        assert cij(1, 0, 0) == 1.0
        assert cij(1, 1, 0) == 0.0
        assert cij(2, 0, 0) == 1.0
        # the trace-2 outcome (rank down by 4) vanishes exactly at r = 0 and 1
        assert cij(2, 2, 0) == 0.0
        assert cij(2, 2, 1) == 0.0
        assert math.copysign(1.0, cij(2, 2, 1)) == 1.0

    def test_weights_nonnegative(self):
        for r in range(30):
            for i in (1, 2):
                for j in (0, 1, 2):
                    assert cij(i, j, r) >= 0.0

    def test_double_step_equals_two_single_steps(self):
        # one dimension-2 prime moves the walk exactly like two dimension-1
        # primes: +4 needs trace 0 plus a small lift (chance 1/3), -4 is the
        # trace-2 outcome, everything else stays put
        for s in range(0, 12, 2):
            two = ml_step(ml_step(Distribution.point_mass(s)))
            r = r_omega(s)
            up4 = cij(2, 0, r) / 3.0
            down4 = cij(2, 2, r)
            one = {s + 4: up4, s: 1.0 - up4 - down4}
            if s >= 4:
                one[s - 4] = down4
            for key, mass in one.items():
                assert two.pmf(key) == pytest.approx(mass, abs=1e-14), (s, key)

    @staticmethod
    def trace_row(i, x):
        # the trace chances of a class-i prime at x = 3^-r, written as _cij_entry writes them,
        # so that they stay exact over Fractions
        return (x, 1 - x) if i == 1 else (x * x, 4 * x * (1 - x), (1 - x) * (1 - 3 * x))

    def test_trace_rows_are_cij_entries(self):
        for r in range(700):
            x = 3.0**-r
            for i in (1, 2):
                assert self.trace_row(i, x) == tuple(_cij_entry(i, j, x) for j in range(i + 1))

    def test_double_step_is_exactly_two_single_steps(self):
        # over Fractions: a class-2 step jumps +4 with chance x^2 * 2/6 = x * (x/3), up then up,
        # -4 with chance (1 - x)(1 - 3x), down then down, and stays otherwise
        single, double = _JUMPS[1, True], _JUMPS[2, True]
        lifts = double.shape[1]
        for s in range(200):
            x = Fraction(1, 3 ** r_omega(s))
            one_class_2: dict[int, Fraction] = {}
            for t, chance in enumerate(self.trace_row(2, x)):
                for lift in range(lifts):
                    to = s + int(double[t, lift])
                    one_class_2[to] = one_class_2.get(to, 0) + chance / lifts
            two_class_1: dict[int, Fraction] = {}
            for t, chance in enumerate(self.trace_row(1, x)):
                if chance == 0:
                    continue
                mid = s + int(single[t, 0])
                for u, then in enumerate(self.trace_row(1, Fraction(1, 3 ** r_omega(mid)))):
                    to = mid + int(single[u, 0])
                    two_class_1[to] = two_class_1.get(to, 0) + chance * then
            up, down = x * x * Fraction(2, 6), (1 - x) * (1 - 3 * x)
            assert up == x * (x / 3)
            want = {s + 4: up, s: 1 - up - down, s - 4: down}
            want = {to: chance for to, chance in want.items() if chance}
            for got in (one_class_2, two_class_1):
                assert {to: chance for to, chance in got.items() if chance} == want, s

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            cij(3, 1, 0)
        with pytest.raises(ConfigError):
            cij(1, 3, 0)
        with pytest.raises(ConfigError):
            cij(1, 1, -1)


class TestRankDeltas:
    def test_split_tables(self):
        assert rank_delta_split(1, 0, 0) == 2
        assert rank_delta_split(1, 1, 0) == -2
        assert rank_delta_split(2, 0, 0) == 4
        assert rank_delta_split(2, 0, 1) == 4
        assert rank_delta_split(2, 0, 2) == 0
        assert rank_delta_split(2, 1, 0) == 0
        assert rank_delta_split(2, 2, 0) == -4

    def test_inert_tables(self):
        assert rank_delta_inert(0, 0) == 0
        assert rank_delta_inert(1, 0) == 2
        assert rank_delta_inert(1, 1) == -2
        with pytest.raises(ConfigError):
            rank_delta_inert(2, 0)

    def test_split_bad_args(self):
        with pytest.raises(ConfigError):
            rank_delta_split(1, 2, 0)
        with pytest.raises(ConfigError):
            rank_delta_split(2, 3, 0)


class TestOperator:
    def test_step_from_zero_is_certain_up(self):
        d = ml_step(delta0())
        assert d.pmf(2) == 1.0

    def test_step_from_one(self):
        d = ml_step(delta1())
        assert d.pmf(3) == 1.0

    def test_step_from_two(self):
        d = ml_step(Distribution.point_mass(2))
        assert d.pmf(4) == pytest.approx(1 / 3)
        assert d.pmf(0) == pytest.approx(2 / 3)

    def test_parity_preserved(self):
        even = evolve(delta0(), 17)
        odd = evolve(delta1(), 17)
        assert all(s % 2 == 0 for s in even.support())
        assert all(s % 2 == 1 for s in odd.support())

    def test_mod_four_alternates(self):
        # each step flips s mod 4, so even iterate counts stay at 0 mod 4
        d = evolve(delta0(), 40)
        assert all(s % 4 == 0 for s in d.support())
        d = evolve(delta0(), 41)
        assert all(s % 4 == 2 for s in d.support())

    def test_evolve_zero_is_identity(self):
        d = Distribution({0: 0.5, 1: 0.5})
        assert evolve(d, 0).mass == d.mass

    def test_rho(self):
        assert rho(delta0()) == 1.0
        assert rho(delta1()) == 0.0
        assert rho(Distribution({0: 0.25, 1: 0.75})) == pytest.approx(0.25)

    def test_rho_e_validation(self):
        assert RhoE(0.3).initial_distribution().pmf(0) == pytest.approx(0.3)
        with pytest.raises(ConfigError):
            RhoE(1.5)
        with pytest.raises(ConfigError):
            RhoE(-0.1)

    def test_truncation_is_tracked(self):
        d = Distribution({S_MAX: 1.0})
        stepped = ml_step(d)
        assert stepped.truncation_error == 3.0 ** -(S_MAX // 2)
        assert stepped.pmf(S_MAX - 2) == 1.0
        # a positional truncation error is refused, not read as something else
        with pytest.raises(TypeError):
            Distribution({0: 1.0}, 0.25)


class TestStationary:
    @pytest.mark.parametrize("s,mass", sorted(EVEN_PINS.items()))
    def test_even_pins(self, s, mass):
        assert stationary("even").pmf(s) == pytest.approx(mass, rel=1e-12)

    def test_odd_is_even_shifted(self):
        even = stationary("even")
        odd = stationary("odd")
        for s in range(0, 30, 2):
            assert odd.pmf(s + 1) == pytest.approx(even.pmf(s), rel=1e-12)

    def test_normalised(self):
        assert stationary("even").total() == pytest.approx(1.0, abs=1e-12)
        assert stationary("odd").total() == pytest.approx(1.0, abs=1e-12)

    def test_single_step_invariance(self):
        even = stationary("even")
        odd = stationary("odd")
        assert ml_step(even).l1_distance(even) < 1e-13
        assert ml_step(odd).l1_distance(odd) < 1e-13

    def test_period_two_prevents_pointmass_convergence(self):
        # from a point mass the iterates oscillate between the two mod-4
        # classes forever; only the average of consecutive iterates converges
        even = stationary("even")
        at60 = evolve(delta0(), 60)
        at61 = evolve(at60, 1)
        assert at60.l1_distance(even) > 0.999
        avg = {}
        for s in set(at60.support()) | set(at61.support()):
            avg[s] = (at60.pmf(s) + at61.pmf(s)) / 2
        assert Distribution(avg).l1_distance(even) < 1e-12

    def test_mod4_masses_are_half(self):
        even = stationary("even")
        mass0 = sum(even.pmf(s) for s in even.support() if s % 4 == 0)
        assert mass0 == pytest.approx(0.5, abs=1e-12)

    def test_bad_parity(self):
        with pytest.raises(ConfigError):
            stationary("both")


class TestTails:
    def test_constant(self):
        assert tail_constant() == pytest.approx(TAIL_CONSTANT, rel=1e-12)

    def test_lead_constant(self):
        assert stationary("even").pmf(0) == pytest.approx(LEAD_CONSTANT, rel=1e-12)

    def test_exact_even_tail_at_ten(self):
        assert tail_exact("even", 10) == pytest.approx(EVEN_TAIL_AT_10, rel=1e-9)

    def test_exact_below_bound(self):
        for s in range(4, 31, 2):
            assert tail_exact("even", s) < tail_bound(s)
        for s in range(5, 31, 2):
            assert tail_exact("odd", s) < tail_bound(s)

    def test_bound_shape(self):
        c = tail_constant()
        assert tail_bound(10) == pytest.approx(c * 3.0 ** -(10 * 8 / 8))
        assert tail_bound(11) == pytest.approx(c * 3.0 ** -(10 * 8 / 8))

    def test_bound_underflows_to_zero(self):
        # 3.0 ** -n is 0.0 once it underflows, and past float range the exponent itself
        # cannot be converted; both read as the 0.0 the bound has become
        assert tail_bound(10**5) == 0.0
        assert tail_bound(10**400) == tail_bound(10**400 + 1) == 0.0

    def test_small_s_rejected(self):
        with pytest.raises(ConfigError):
            tail_bound(2)
        with pytest.raises(ConfigError):
            tail_exact("even", 0)

    def test_exact_tail_stops_at_s_max(self):
        # past S_MAX the truncated law holds no mass and the bound underflows
        assert 0.0 < tail_exact("even", S_MAX) < tail_bound(S_MAX)
        for parity, s in (("odd", S_MAX + 1), ("even", 76)):
            with pytest.raises(ConfigError):
                tail_exact(parity, s)


@st.composite
def small_distributions(draw):
    support = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True))
    weights = [draw(st.integers(1, 9)) for _ in support]
    total = sum(weights)
    return Distribution({s: w / total for s, w in zip(support, weights)})


class TestOperatorProperties:
    @given(small_distributions(), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_evolve_conserves_mass(self, d, w):
        out = evolve(d, w)
        assert out.total() + out.truncation_error == pytest.approx(1.0, abs=1e-9)

    @given(small_distributions())
    @settings(max_examples=60, deadline=None)
    def test_step_linear_in_mixtures(self, d):
        stepped = ml_step(d)
        rebuilt = {}
        for s, mass in d.mass.items():
            part = ml_step(Distribution.point_mass(s))
            for t, m in part.mass.items():
                rebuilt[t] = rebuilt.get(t, 0.0) + mass * m
        for t, m in rebuilt.items():
            assert stepped.pmf(t) == pytest.approx(m, abs=1e-12)


def ml_step_reference(d: Distribution) -> Distribution:
    """The operator as one Distribution per step, validated every step: the oracle for evolve."""
    out: dict[int, float] = {}
    lost = 0.0
    for s, m in d.mass.items():
        up = 3.0 ** (-r_omega(s))
        if s + 2 <= S_MAX:
            out[s + 2] = out.get(s + 2, 0.0) + m * up
        else:
            lost += m * up
        down = m * (1.0 - up)
        if down > 0.0:
            if s - 2 < 0:
                raise ConsistencyError(f"downward move from dimension {s}")
            out[s - 2] = out.get(s - 2, 0.0) + down
    if lost > 0.0:
        keep = 1.0 - lost
        out = {s: m / keep for s, m in out.items()}
    return Distribution(out, truncation_error=d.truncation_error + lost)


class TestExactKernel:
    @pytest.mark.parametrize(
        "initial",
        [RhoE(1.0).initial_distribution(), RhoE(0.0).initial_distribution(),
         RhoE(0.3).initial_distribution(), stationary("even"), stationary("odd"),
         Distribution({S_MAX - 1: 0.5, S_MAX: 0.5}), Distribution({2: 5e-324, 10: 1.0})]
        + [Distribution.point_mass(s) for s in (0, 1, 7, 40, 63, 64)],
        ids=["rho-1", "rho-0", "rho-0.3", "stationary-even", "stationary-odd", "top", "underflow",
             "point-0", "point-1", "point-7", "point-40", "point-63", "point-64"],
    )
    def test_evolve_matches_per_step_oracle(self, initial):
        # exact equality, key order included; only the top law loses enough
        # mass past S_MAX for the renormalisation to move a bit, and only in the
        # underflow law does an upward move round to a zero mass, whose key
        # would reorder the next step's law unless it is dropped at once; from
        # point_mass(0) the law repeats with period 2 from step 65, so the w
        # past 64 end evolve's shortcut on both parities
        oracle, steps = initial, 0
        for w in (0, 1, 2, 7, 59, 60, 64, 65, 66, 67, 1000, 1001, 20000, 20001):
            while steps < w:
                oracle, steps = ml_step_reference(oracle), steps + 1
            got = evolve(initial, w)
            assert list(got.mass.items()) == list(oracle.mass.items()), w
            assert got.truncation_error == oracle.truncation_error, w
        one = ml_step(initial)
        assert list(one.mass.items()) == list(ml_step_reference(initial).mass.items())

    def test_evolve_validates_one_law_per_call(self, monkeypatch):
        initial = stationary("even")
        built = []
        validate = Distribution.__post_init__

        def counting(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(Distribution, "__post_init__", counting)
        evolve(initial, 100)
        assert len(built) == 1


@dataclass(frozen=True)
class ChainState:
    dim: int
    steps_taken: int = 0

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ConsistencyError(f"negative dimension {self.dim}")


def _walk_scalar(state: ChainState, element, ut: float, ul: float) -> ChainState:
    """Single-trial reference step, built on the library's cij and rank deltas."""
    i, is_split = _stream_element(element)
    if i == 0:
        return ChainState(state.dim, state.steps_taken + 1)
    r = r_omega(state.dim)
    if i == 1:
        t = 0 if ut < cij(1, 0, r) else 1
        delta = rank_delta_split(1, t, 0) if is_split else rank_delta_inert(1, t)
    else:
        if ut < cij(2, 0, r):
            t = 0
        elif ut >= 1.0 - cij(2, 2, r):
            t = 2
        else:
            t = 1
        delta = rank_delta_split(2, t, int(ul * 6))
    return ChainState(state.dim + delta, state.steps_taken + 1)


def oracle_uniforms(seed: int, trials: range, width: int) -> np.ndarray:
    """Each trial's row from a Philox keyed by its own SeedSequence: the oracle for the keys."""
    rows = np.empty((len(trials), width))
    for row, trial in zip(rows, trials):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
        np.random.Generator(np.random.Philox(ss)).random(out=row)
    return rows


def simulate_chain_scalar(initial: Distribution, prime_stream, trials: int, seed: int) -> Distribution:
    """Loop-based twin of simulate_chain on the same uniforms: the oracle for the vector path."""
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    elements = list(prime_stream)
    u = oracle_uniforms(seed, range(trials), 1 + 2 * len(elements))
    s0 = _draw_initial(initial, u[:, 0])
    counts: dict[int, int] = {}
    dropped = 0
    for trial in range(trials):
        state = ChainState(int(s0[trial]))
        for idx, e in enumerate(elements):
            state = _walk_scalar(state, e, u[trial, 1 + 2 * idx], u[trial, 2 + 2 * idx])
        if state.dim > S_MAX:
            dropped += 1
        else:
            counts[state.dim] = counts.get(state.dim, 0) + 1
    kept = trials - dropped
    mass = {s: c / kept for s, c in counts.items()}
    return Distribution(mass, truncation_error=dropped / trials)


def replay_unchunked(initial: Distribution, prime_stream, trials: int, seed: int) -> np.ndarray:
    """sampling._walk over one whole uniform matrix, its final dimensions counted as _replay counts them."""
    elements = [_stream_element(e) for e in prime_stream]
    u = oracle_uniforms(seed, range(trials), 1 + 2 * len(elements))
    s = sampling._walk(_draw_initial(initial, u[:, 0]), elements, u[:, 1:])
    values, counts = np.unique(np.minimum(s, S_MAX + 1), return_counts=True)
    out = np.zeros(S_MAX + 2, dtype=np.int64)
    out[values] = counts
    return out


def simulate_chain_unchunked(initial: Distribution, prime_stream, trials: int, seed: int) -> Distribution:
    """The law of replay_unchunked: the oracle for the chunking."""
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    counts = replay_unchunked(initial, prime_stream, trials, seed)
    n_kept = trials - int(counts[S_MAX + 1])
    if n_kept == 0:
        raise ConsistencyError("every trial overflowed the support bound")
    mass = {s: int(c) / n_kept for s, c in enumerate(counts[: S_MAX + 1]) if c}
    return Distribution(mass, truncation_error=(trials - n_kept) / trials)


# seeds of 1, 1, 2, 4, 5, 5 and 7 32-bit words: SeedSequence pads up to 4 and mixes in the rest
SEEDS = [0, 7, 2**64 - 59, 2**128 - 1, 2**128, 3**90, 2**200 + 12345]


class TestSubstreamKeys:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_are_the_seed_sequence_keys(self, seed):
        for trials in (range(0, 2), range(2**31, 2**31 + 1), range(2**32 - 1, 2**32), range(5, 5)):
            want = [
                np.random.SeedSequence(entropy=seed, spawn_key=(t,)).generate_state(2, np.uint64)
                for t in trials
            ]
            got = _Substreams([seed], [MAX_TRIALS]).keys(trials)
            assert got.dtype == np.uint64 and got.shape == (len(trials), 2)
            assert got.tolist() == [k.tolist() for k in want], trials

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_match_the_oracle(self, seed):
        # every offset of a start column in its Philox block, and a start past 1024 blocks;
        # 4100 trials take two key blocks
        starts, n = (0, 1, 2, 3, 4, 5, 7, 4097), 6
        streams = _Substreams([seed], [MAX_TRIALS])
        out = np.full((4100, n + 3), np.nan)
        for trials in (range(0, 40), range(2**32 - 3, 2**32), range(0), range(5, 4105)):
            want = np.empty((len(starts), len(trials), n))
            for k, trial in enumerate(trials):
                row = oracle_uniforms(seed, range(trial, trial + 1), starts[-1] + n)[0]
                want[:, k] = [row[start : start + n] for start in starts]
            for start, block in zip(starts, want):
                got = streams.draw(trials, start, start + n, out)
                assert np.array_equal(got, block), (trials, start)

    def test_one_seed_sequence_per_call(self, monkeypatch):
        built = []
        seed_sequence = np.random.SeedSequence

        def counting(*args, **kwargs):
            built.append(kwargs)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        simulate_chain(delta0(), [(1, "split"), (2, "split")], 1000, seed=5)
        assert len(built) <= 1

    def test_rows_of_mixed_seeds_match_the_oracle(self):
        # 1-, 2-, 5-, 0-trial, 7- and 1-word seeds; the 4100 trials of one seed cross a key block
        seeds = [7, 2**64 - 59, 3**90, 5, 2**200 + 12345, 0]
        trials = [3, 4100, 5, 0, 6, 2]
        starts, n = (0, 1, 3, 4097), 6
        oracle = np.concatenate([oracle_uniforms(seed, range(t), starts[-1] + n)
                                 for seed, t in zip(seeds, trials)])
        want_keys = [np.random.SeedSequence(entropy=seed, spawn_key=(t,)).generate_state(2, np.uint64)
                     for seed, count in zip(seeds, trials) for t in range(count)]
        streams = _Substreams(seeds, trials)
        out = np.full((len(oracle), n + 3), np.nan)
        for rows in (range(len(oracle)), range(2, 4110), range(4102, len(oracle)), range(4104, 4104)):
            got = streams.keys(rows)
            assert got.tolist() == [k.tolist() for k in want_keys[rows.start : rows.stop]], rows
            for start in starts:
                got = streams.draw(rows, start, start + n, out)
                want = oracle[rows.start : rows.stop, start : start + n]
                assert np.array_equal(got, want), (rows, start)


class TestThresholdTables:
    """The walk's threshold tables against the per-step power of 3 they replaced."""

    @staticmethod
    def per_step(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = np.array([3.0 ** -int(r) for r in s >> 1])
        return _cij_entry(1, 0, x), _cij_entry(2, 0, x), 1.0 - _cij_entry(2, 2, x)

    @pytest.mark.parametrize("length", [1, 7, 8, 17, 4096, 43240])
    def test_tables_are_the_per_step_thresholds(self, length):
        # every s to 40 past the first s where 3^-floor(s/2) underflows, and far past it
        clip = 2 * 679
        assert 3.0**-678 > 0.0 == 3.0**-679
        values = np.concatenate([np.arange(clip + 40), [4095, 2**20, 2**40]])
        for offset in (0, 1, 3, 5):
            for first in range(0, len(values), length):
                # s starts `offset` words into its buffer, so SIMD loops meet it misaligned
                buffer = np.zeros(offset + length, dtype=np.int64)
                s = buffer[offset:]
                s[:] = np.resize(values[first : first + length], length)
                want = self.per_step(s)
                trace0, trace2 = sampling._thresholds()
                got = (trace0[1].take(s, mode="clip"), trace0[2].take(s, mode="clip"),
                       trace2.take(s, mode="clip"))
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes(), (length, offset, first)

    def test_class_1_row_is_the_exact_step(self):
        # the Monte Carlo and exact walks read one number for each step up, also at
        # s = 42 and 43, where numpy's power of 3 is one ulp off Python's
        trace0, _ = sampling._thresholds()
        assert trace0[1][: S_MAX + 1].tobytes() == np.array(chain._STEP_UP).tobytes()


class TestManyStreams:
    """simulate_streams against one oracle replay per stream, counted and summed."""

    STREAMS = [
        [(1, "split"), (2, "split")],
        [(1, "inert"), (0, "split")],
        [(1, "split"), (2, "split")],
        [],
        [(2, "split"), (1, "split")],
        [(1, "split"), (2, "split")],
    ]
    SEEDS = [7, 2**64 - 59, 3**90, 0, 2**200 + 12345, 7]
    TRIALS = [500, 37, 300, 20, 1, 410]
    INITIAL = Distribution({0: 0.5, 1: 0.3, 6: 0.2})

    @pytest.mark.parametrize("rows", [None, 1, 7, 333])
    def test_each_law_is_its_oracle_replay(self, monkeypatch, rows):
        # a chunk of `rows` rows splits seeds and spans several; None keeps the default chunks
        if rows is not None:
            monkeypatch.setattr(sampling, "_ROWS", rows)
        want = [replay_unchunked(self.INITIAL, stream, n, seed)
                for stream, n, seed in zip(self.STREAMS, self.TRIALS, self.SEEDS)]
        for stream, n, seed, counts in zip(self.STREAMS, self.TRIALS, self.SEEDS, want):
            got = simulate_streams(self.INITIAL, [stream], [n], [seed])
            assert got.tolist() == counts.tolist(), (stream, seed)
        got = simulate_streams(self.INITIAL, self.STREAMS, self.TRIALS, self.SEEDS)
        assert got.dtype == np.int64 and got.tolist() == sum(want).tolist()

    def test_one_replay_per_stream_of_kinds(self, monkeypatch):
        replays = []
        replay = sampling._replay

        def spy(initial, elements, seeds, trials):
            replays.append((tuple(elements), tuple(seeds)))
            return replay(initial, elements, seeds, trials)

        monkeypatch.setattr(sampling, "_replay", spy)
        simulate_streams(self.INITIAL, self.STREAMS, self.TRIALS, self.SEEDS)
        split1, split2 = (1, True), (2, True)
        assert replays == [((split1, split2), (7, 3**90, 7)), (((1, False), (0, True)), (2**64 - 59,)),
                           ((), (0,)), ((split2, split1), (2**200 + 12345,))]

    @pytest.mark.parametrize("stream, trials, message", [
        ([(1, "split")], MAX_TRIALS + 1, r"at most 2\^32"),
        ([(1, "ramified")], 10, "'split' or 'inert'"),
    ])
    def test_refused_before_any_replay(self, monkeypatch, stream, trials, message):
        # the bad stream comes last, so the good one before it would replay first
        def fail(*args):
            raise AssertionError("replayed")

        monkeypatch.setattr(sampling, "_replay", fail)
        with pytest.raises(ConfigError, match=message):
            simulate_streams(self.INITIAL, [[(1, "inert")], stream], [10, trials], [1, 2])

    def test_a_partial_overflow_is_the_truncation_error(self, monkeypatch):
        # split class-1 steps always rise, so from S_MAX only the inert stream keeps its trials
        monkeypatch.setitem(sampling._JUMPS, (1, True), np.array([[2], [2]]))
        start = Distribution.point_mass(S_MAX)
        counts = simulate_streams(start, [[(1, "inert")], [(1, "split")]], [50, 30], [1, 2])
        assert counts.sum() == 80 and counts[S_MAX + 1] == 30
        law = law_from_counts(counts)
        assert law.mass == {S_MAX - 2: 1.0} and law.truncation_error == 30 / 80
        with pytest.raises(ConsistencyError, match="every trial overflowed"):
            simulate_chain(start, [(1, "split")], 30, 2)


class TestChunkedSimulation:
    STREAM = [(1, "split"), (2, "split"), (0, "inert"), (1, "inert"), (2, "split"), (1, "split")] * 3
    INITIAL = Distribution({0: 0.5, 1: 0.3, 6: 0.2})

    def assert_both_oracles(self):
        expected = simulate_chain_unchunked(self.INITIAL, self.STREAM, 1000, seed=13)
        scalar = simulate_chain_scalar(self.INITIAL, self.STREAM, 1000, seed=13)
        got = simulate_chain(self.INITIAL, self.STREAM, 1000, seed=13)
        assert list(got.mass.items()) == list(expected.mass.items())
        assert got.mass == scalar.mass
        assert got.truncation_error == expected.truncation_error == scalar.truncation_error

    @pytest.mark.parametrize("rows", [1, 7, 333])
    def test_uneven_chunks_match_both_oracles(self, monkeypatch, rows):
        # 1000 trials leave a short last chunk at each size; each chunk's rows are one block
        monkeypatch.setattr(sampling, "_ROWS", rows)
        self.assert_both_oracles()

    @pytest.mark.parametrize("pairs", [1, 2, 3, 7])
    def test_column_blocks_match_both_oracles(self, monkeypatch, pairs):
        # blocks of one or three elements start 1 and 3 past a reseat in turn, blocks of two
        # always 1; 18 elements leave a short last block at 7, and 333-row chunks a short last chunk
        monkeypatch.setattr(sampling, "_ROWS", 333)
        monkeypatch.setattr(sampling, "_CHUNK", 333 * (1 + 2 * pairs))
        self.assert_both_oracles()

    @staticmethod
    def spy_draws(monkeypatch) -> list[tuple[int, int, int]]:
        """(rows, buffer size, columns drawn with the skipped lead) of every draw to come."""
        buffers = []
        draw = sampling._Substreams.draw

        def spy(self, trials, start, stop, out):
            buffers.append((len(trials), out.size, start % 4 + stop - start))
            return draw(self, trials, start, stop, out)

        monkeypatch.setattr(sampling._Substreams, "draw", spy)
        return buffers

    def test_blocks_hold_at_most_one_chunk_and_three_per_row(self, monkeypatch):
        # a stream wider than a chunk, walked by two 30-row chunks in 31 blocks each of up
        # to 136 elements
        monkeypatch.setattr(sampling, "_CHUNK", 2**13)
        monkeypatch.setattr(sampling, "_ROWS", 30)
        stream = [(1, "split"), (2, "split")] * 2100
        buffers = self.spy_draws(monkeypatch)
        got = simulate_chain(delta0(), stream, 60, seed=2)
        assert 1 + 2 * len(stream) > sampling._CHUNK and len(buffers) == 62
        assert {(rows, size) for rows, size, _ in buffers} == {(30, 30 * 275)}
        for rows, size, drawn in buffers:
            assert rows * drawn <= size <= sampling._CHUNK + 3 * rows
        assert got == simulate_chain_unchunked(delta0(), stream, 60, seed=2)

    def test_a_narrow_stream_walks_at_most_rows_trials_a_chunk(self, monkeypatch):
        # one element is 3 uniforms a trial, so a chunk of 2^22 uniforms would take every trial
        buffers = self.spy_draws(monkeypatch)
        got = simulate_chain(self.INITIAL, [(2, "split")], 10_000, seed=6)
        assert [rows for rows, _, _ in buffers] == [4096, 4096, 1808]
        assert got == simulate_chain_unchunked(self.INITIAL, [(2, "split")], 10_000, seed=6)

    def test_default_chunks_match_the_oracle(self):
        # width 4401 walks 2500 trials as one chunk, in column blocks of 838, 838 and 524 elements
        stream = [(1, "split")] * 2100 + [(2, "split")] * 100
        expected = simulate_chain_unchunked(delta0(), stream, 2500, seed=4)
        got = simulate_chain(delta0(), stream, 2500, seed=4)
        assert list(got.mass.items()) == list(expected.mass.items())
        assert got.truncation_error == expected.truncation_error

    def test_negative_dimension_still_raises_per_chunk(self, monkeypatch):
        # 20 trials in chunks of 7, 7 and 6 rows
        monkeypatch.setitem(sampling._JUMPS, (1, True), np.array([[-2], [-2]]))
        monkeypatch.setattr(sampling, "_ROWS", 7)
        with pytest.raises(ConsistencyError):
            simulate_chain(delta0(), [(1, "split")], 20, seed=1)

    def test_peak_memory_is_one_chunk(self):
        # the whole 6000 x 4001 matrix would be 192 MB; one block of 4096 rows and 1025
        # columns (511 elements past a reseat) is 34 MB
        stream = [(1, "split"), (2, "split"), (1, "inert"), (0, "split")] * 500
        tracemalloc.start()
        try:
            simulate_chain(delta0(), stream, 6000, seed=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestSimulation:
    def test_requires_positive_trials(self):
        with pytest.raises(ConfigError):
            simulate_chain(delta0(), [(1, "split")], 0, seed=1)

    def test_deterministic_under_seed(self):
        stream = [(1, "split")] * 12
        a = simulate_chain(delta0(), stream, 5000, seed=42)
        b = simulate_chain(delta0(), stream, 5000, seed=42)
        assert a.mass == b.mass

    def test_seed_changes_draws(self):
        stream = [(1, "split")] * 12
        a = simulate_chain(delta0(), stream, 5000, seed=42)
        b = simulate_chain(delta0(), stream, 5000, seed=43)
        assert a.mass != b.mass

    def test_scalar_twin_matches_vector_exactly(self):
        stream = [(1, "split"), (2, "split"), (0, "inert"), (1, "inert"), (1, "split")]
        init = Distribution({0: 0.6, 1: 0.4})
        vec = simulate_chain(init, stream, 4000, seed=9)
        sca = simulate_chain_scalar(init, stream, 4000, seed=9)
        assert vec.mass == sca.mass
        assert vec.truncation_error == sca.truncation_error

    def test_class_zero_is_noop(self):
        only_noops = [(0, "split"), (0, "inert")] * 5
        d = simulate_chain(delta0(), only_noops, 1000, seed=3)
        assert d.pmf(0) == 1.0

    def test_inert_dimension_two_rejected(self):
        with pytest.raises(ConfigError):
            simulate_chain(delta0(), [(2, "inert")], 100, seed=1)

    def test_empirical_matches_exact_law(self):
        stream = [(1, "split")] * 10
        emp = simulate_chain(delta0(), stream, 200_000, seed=77)
        exact = evolve(delta0(), 10)
        assert emp.tv_distance(exact) < 0.01

    def test_double_step_prime_matches_two_singles(self):
        # empirical check that one dimension-2 split prime walks like two steps
        emp = simulate_chain(delta0(), [(2, "split")] * 5, 200_000, seed=5)
        exact = evolve(delta0(), 10)
        assert emp.tv_distance(exact) < 0.01

    def test_mixed_stream_against_exact(self):
        stream = [(1, "split")] * 6 + [(2, "split")] * 2 + [(0, "inert")] * 3 + [(1, "inert")] * 2
        # weight = 6 + 2*2 + 0 + 2 = 12 single steps
        emp = simulate_chain(delta0(), stream, 200_000, seed=21)
        exact = evolve(delta0(), 12)
        assert emp.tv_distance(exact) < 0.01
