"""Fan enumeration against a naive reference, growth laws, sampling."""
import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from selmerfan import chain, fans
from selmerfan.chain import S_MAX, Distribution, RhoE, evolve, law_from_counts, simulate_streams
from selmerfan.curves import CurveQ, classify_primes, good_primes, is_prime
from selmerfan.errors import ConfigError, ConsistencyError, DataError
from selmerfan.fans import (
    _sample_elements,
    _substream_seed,
    FanElement,
    GrowthFn,
    RangeOverflowError,
    enumerate_fan,
    fan_distribution,
    FanIndex,
    lift_count,
    ln_sequence,
    parse_growth,
)

FIX = CurveQ(1, 1, "fix")


def records_upto(bound):
    return {r.p: r for r in classify_primes(FIX, good_primes(FIX, bound))}


class TestGrowthFn:
    def test_log(self):
        g = GrowthFn("log")
        assert g(100.0) == pytest.approx(math.log(100.0))
        assert g(1.5) == 1.0  # clamped from below

    def test_pow(self):
        g = GrowthFn("pow", a=2.0)
        assert g(7.0) == pytest.approx(49.0)

    def test_affine(self):
        g = GrowthFn("affine", a=2.0, b=5.0)
        assert g(10.0) == 25.0

    def test_domain_guard(self):
        with pytest.raises(ConfigError):
            GrowthFn("log")(0.5)

    def test_parse_round_trip(self):
        for text in ["log", "pow:1.5", "affine:2,5"]:
            g = parse_growth(text)
            assert parse_growth(g.spec_string()) == g

    def test_parse_rejects_garbage(self):
        for bad in ["exp", "pow:", "pow:-1", "affine:1", "affine:0,0.5", ""]:
            with pytest.raises(ConfigError):
                parse_growth(bad)

    def test_non_finite_parameters_rejected(self):
        for a, b in ((math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (0.0, math.inf)):
            with pytest.raises(ConfigError):
                GrowthFn("affine", a, b)
        with pytest.raises(ConfigError):
            parse_growth("pow:nan")

    def test_identity_is_pow_one(self):
        g = parse_growth("pow:1")
        assert g(13.0) == 13.0


class TestLnSequence:
    def test_identity_growth_doubles(self):
        # composing the running product with Y = 2 gives 2, 4, 8
        assert ln_sequence(parse_growth("pow:1"), 2.0, 3) == [2.0, 4.0, 8.0]

    def test_log_growth_pins(self):
        seq = ln_sequence(parse_growth("log"), 50.0, 4)
        assert seq[0] == pytest.approx(3.912023005428146)
        # each later bound is the previous product times the log factor
        assert seq[1] == pytest.approx(50.0 * seq[0])
        assert seq[2] == pytest.approx(50.0 * seq[1])
        assert seq[3] == pytest.approx(50.0 * seq[2])

    def test_nondecreasing(self):
        for spec in ["log", "pow:1.2", "affine:1,3"]:
            seq = ln_sequence(parse_growth(spec), 12.0, 5)
            assert seq == sorted(seq)

    def test_overflow_carries_index(self):
        with pytest.raises(RangeOverflowError, match="index"):
            ln_sequence(parse_growth("pow:3"), 1e80, 5)

    def test_first_bound_is_checked(self):
        with pytest.raises(RangeOverflowError, match="index 1"):
            ln_sequence(parse_growth("pow:1"), math.inf, 1)
        with pytest.raises(RangeOverflowError, match="index 1"):
            ln_sequence(parse_growth("pow:2"), 1e300, 1)

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            ln_sequence(parse_growth("log"), 0.5, 2)
        with pytest.raises(ConfigError):
            ln_sequence(parse_growth("pow:1"), math.nan, 1)
        with pytest.raises(ConfigError):
            ln_sequence(parse_growth("log"), 10.0, 0)


class TestCubics:
    def test_element_validation(self):
        with pytest.raises(ConfigError):
            FanElement((7, 5), 1)

    def test_lift_count_multiplicative(self):
        assert lift_count(FanElement((5,), 0)) == 6
        assert lift_count(FanElement((5, 7), 1)) == 36
        assert lift_count(FanElement((5, 7, 11), 1)) == 216


def naive_fan(records, m, w, bounds):
    """Reference: filter the full cartesian power by every constraint."""
    support = [p for p in sorted(records) if records[p].in_DB_support]
    out = []

    def rec(start, picked):
        if len(picked) == m:
            if sum(records[q].dim_fp for q in picked) == w and all(
                q < bounds[i] for i, q in enumerate(picked)
            ):
                out.append(tuple(picked))
            return
        for i in range(start, len(support)):
            rec(i + 1, picked + [support[i]])

    rec(0, [])
    return out


class TestEnumerateFan:
    def test_matches_naive_reference(self):
        growth = parse_growth("pow:1")
        for m, w, X in [(1, 0, 30.0), (1, 1, 30.0), (2, 1, 14.0), (2, 2, 14.0)]:
            bounds = ln_sequence(growth, X, m)
            recs = records_upto(math.ceil(bounds[-1]))
            got = enumerate_fan(FanIndex(FIX, bounds, w, recs))
            want = naive_fan(recs, m, w, bounds)
            assert [e.primes for e in got] == want, (m, w)

    def test_known_small_fan(self):
        growth = parse_growth("pow:1")
        recs = records_upto(196)
        fan = enumerate_fan(FanIndex(FIX, ln_sequence(growth, 14.0, 2), 1, recs))
        assert len(fan) == 76
        first = fan[0]
        assert first.primes == (5, 7)
        assert first.w == 1
        assert first.d_value == 35
        assert first.cubic_poly == "x^3 - 35"

    def test_emitted_cubics_irreducible(self):
        growth = parse_growth("pow:1")
        recs = records_upto(196)
        # x^3 - d is irreducible unless d is a cube; a product of distinct
        # primes greater than 1 is squarefree, so never a cube
        for elem in enumerate_fan(FanIndex(FIX, ln_sequence(growth, 14.0, 2), 2, recs)):
            assert elem.d_value > 1
            assert len(set(elem.primes)) == len(elem.primes)
            assert all(is_prime(q) for q in elem.primes)
            assert math.prod(elem.primes) == elem.d_value

    def test_weight_accounting(self):
        growth = parse_growth("pow:1")
        recs = records_upto(900)
        fan = enumerate_fan(FanIndex(FIX, ln_sequence(growth, 30.0, 2), 2, recs))
        for elem in fan:
            assert elem.w == 2
            assert sum(recs[q].dim_fp for q in elem.primes) == 2

    def test_dropped_fan_is_freed_without_gc(self):
        recs = records_upto(196)
        gc.disable()
        try:
            bounds = ln_sequence(parse_growth("pow:1"), 14.0, 2)
            fan = enumerate_fan(FanIndex(FIX, bounds, 1, recs))
            ref = weakref.ref(fan[0])
            del fan
            assert ref() is None
        finally:
            gc.enable()

    def test_cache_gap_is_loud(self):
        growth = parse_growth("pow:1")
        recs = records_upto(100)
        recs.pop(13)
        with pytest.raises(DataError, match="missing"):
            enumerate_fan(FanIndex(FIX, ln_sequence(growth, 30.0, 1), 1, recs))

    def test_short_cache_is_loud(self):
        growth = parse_growth("pow:1")
        recs = records_upto(50)
        with pytest.raises(DataError):
            enumerate_fan(FanIndex(FIX, ln_sequence(growth, 14.0, 2), 1, recs))

    def test_bad_parameters(self):
        growth = parse_growth("pow:1")
        recs = records_upto(100)
        with pytest.raises(ConfigError, match="m >= 1"):
            enumerate_fan(FanIndex(FIX, [], 0, recs))
        with pytest.raises(ConfigError, match="weight must lie in 0..2"):
            enumerate_fan(FanIndex(FIX, ln_sequence(growth, 30.0, 2), 3, recs))

    def test_fan_past_the_cap_is_refused(self, monkeypatch):
        growth = parse_growth("pow:1")
        recs = records_upto(1600)
        bounds = ln_sequence(growth, 40.0, 2)
        count = len(enumerate_fan(FanIndex(FIX, bounds, 2, recs)))
        monkeypatch.setattr("selmerfan.fans.MAX_FAN_ELEMENTS", count)
        assert len(enumerate_fan(FanIndex(FIX, bounds, 2, recs))) == count
        monkeypatch.setattr("selmerfan.fans.MAX_FAN_ELEMENTS", count - 1)
        with pytest.raises(ConfigError, match=f"MAX_FAN_ELEMENTS = {count - 1}"):
            enumerate_fan(FanIndex(FIX, bounds, 2, recs))


# every fan TestEnumerateFan lists, as (growth, X, m, record bound), plus an
# m = 4 fan under a constant bound; each is checked at every weight 0..m
INDEXED_FANS = [
    ("pow:1", 30.0, 1, 100),
    ("pow:1", 14.0, 2, 196),
    ("pow:1", 30.0, 2, 900),
    ("pow:1", 40.0, 2, 1600),
    ("affine:0,30", 1.0, 4, 30),
]


class TestFanIndex:
    @pytest.mark.parametrize("spec, X, m, bound", INDEXED_FANS)
    def test_count_and_unrank_match_the_list(self, spec, X, m, bound):
        recs = records_upto(bound)
        bounds = ln_sequence(parse_growth(spec), X, m)
        for w in range(m + 1):
            index = FanIndex(FIX, bounds, w, recs)
            elements = enumerate_fan(index)
            assert index.count == len(elements), w
            assert [index.unrank(k) for k in range(index.count)] == elements, w

    @pytest.mark.parametrize("spec, X, m, bound", INDEXED_FANS)
    def test_admits_exactly_the_naive_fan(self, spec, X, m, bound):
        # the bounds cut at 40 keep the support small enough to try every m-subset
        recs = {p: r for p, r in records_upto(bound).items() if p < 40}
        bounds = [min(b, 40.0) for b in ln_sequence(parse_growth(spec), X, m)]
        for w in range(m + 1):
            index = FanIndex(FIX, bounds, w, recs)
            got = [
                tuple(index.support[j] for j in picked)
                for picked in itertools.combinations(range(len(index.support)), m)
                if index.admits(list(picked))
            ]
            assert got == naive_fan(recs, m, w, bounds), w

    def test_counts_saturate_past_the_cap(self, monkeypatch):
        # only 5 (dimension 1) fits under the first bound, so the weight-2 fan
        # counts the 63 dimension-1 primes after it; the never-reached state
        # with no weight left counts the 83 dimension-0 primes and saturates
        recs = records_upto(900)
        bounds = [6.0, 900.0]
        count = len(enumerate_fan(FanIndex(FIX, bounds, 2, recs)))
        monkeypatch.setattr("selmerfan.fans.MAX_FAN_ELEMENTS", count)
        index = FanIndex(FIX, bounds, 2, recs)
        assert index.counts.max() == count + 1
        assert [index.unrank(k) for k in range(count)] == enumerate_fan(index)

    def test_rank_out_of_range_is_refused(self):
        bounds = ln_sequence(parse_growth("pow:1"), 14.0, 2)
        index = FanIndex(FIX, bounds, 1, records_upto(196))
        for k in (-1, index.count):
            with pytest.raises(IndexError):
                index.unrank(k)

    def test_oversized_index_is_refused(self, monkeypatch):
        # (m + 1)(w + 1)(support + 1) = 3 * 3 * 9 counts: 8 support primes below 30
        recs = records_upto(900)
        bounds = ln_sequence(parse_growth("affine:0,30"), 1.0, 2)
        monkeypatch.setattr("selmerfan.fans.MAX_INDEX_COUNTS", 80)
        with pytest.raises(ConfigError, match="needs 81 counts"):
            FanIndex(FIX, bounds, 2, recs)
        monkeypatch.setattr("selmerfan.fans.MAX_INDEX_COUNTS", 81)
        index = FanIndex(FIX, bounds, 2, recs)
        assert index.count == len(enumerate_fan(index))


def fan_law(m, w, X, growth, recs, trials, seed):
    """The walk law of the fan, sampled by count from its index."""
    index = FanIndex(FIX, ln_sequence(growth, X, m), w, recs)
    return fan_distribution(index, recs, Distribution.point_mass(0), trials, seed)


def fan_counts_per_element(index, records, initial, trials, seed):
    """fan_distribution's final-dimension counts, one replay an element: the oracle for the grouping."""
    if index.m > 3:
        elements = _sample_elements(index, min(trials, 256), seed)
    else:
        ranks = range(index.count)
        if index.count > trials:
            gen = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=_substream_seed(seed, 2)))
            )
            ranks = sorted(gen.choice(index.count, size=trials, replace=False))
        elements = [index.unrank(int(k)) for k in ranks]
    base, extra = divmod(trials, len(elements))
    counts = np.zeros(S_MAX + 2, dtype=np.int64)
    for idx, elem in enumerate(elements):
        n_alloc = base + (1 if idx < extra else 0)
        stream = [records[q] for q in elem.primes]
        counts += simulate_streams(initial, [stream], [n_alloc], [_substream_seed(seed, 3, idx)])
    return counts


class TestGroupedReplay:
    """fan_distribution replays each stream of prime kinds once; the per-element loop is the oracle."""

    @staticmethod
    def counted_row(monkeypatch, index, recs, initial, trials, seed):
        """The one count row fan_distribution builds its law from."""
        rows = []

        def spy(counts):
            rows.append(counts)
            return law_from_counts(counts)

        monkeypatch.setattr(fans, "law_from_counts", spy)
        fan_distribution(index, recs, initial, trials, seed)
        assert len(rows) == 1
        return rows[0]

    @pytest.mark.parametrize(
        "m, w, X, growth, bound, trials",
        [(2, 1, 14.0, "pow:1", 196, 50), (2, 1, 14.0, "pow:1", 196, 1000),
         (2, 2, 40.0, "pow:1", 1600, 400), (2, 2, 40.0, "pow:1", 1600, 3001),
         (4, 2, 1.0, "affine:0,40", 40, 30), (4, 2, 1.0, "affine:0,40", 40, 1000)],
        ids=["m2-w1-few", "m2-w1", "m2-w2-few", "m2-w2", "m4-w2-few", "m4-w2"],
    )
    @pytest.mark.parametrize("seed", [1, 11, 2**63 + 5])
    def test_law_is_the_per_element_law(self, monkeypatch, m, w, X, growth, bound, trials, seed):
        recs = records_upto(bound)
        index = FanIndex(FIX, ln_sequence(parse_growth(growth), X, m), w, recs)
        initial = RhoE(0.6).initial_distribution()
        got = self.counted_row(monkeypatch, index, recs, initial, trials, seed)
        want = fan_counts_per_element(index, recs, initial, trials, seed)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()

    @pytest.mark.parametrize("X", [14.0, 30.0])
    @pytest.mark.parametrize("trials", [300, 1000, 3001])
    def test_every_mass_is_its_count_over_the_kept_trials(self, monkeypatch, X, trials):
        # split class-1 steps always rise, so a trial of an element with a split class-1 prime
        # overflows from S_MAX and stays from S_MAX - 2: the few elements of these fans keep
        # uneven shares of their trials, and a mass is still exactly its count over all kept
        monkeypatch.setitem(chain._JUMPS, (1, True), np.array([[2], [2]]))
        recs = records_upto(196)
        index = FanIndex(FIX, ln_sequence(parse_growth("pow:1"), X, 1), 1, recs)
        start = Distribution({S_MAX - 2: 0.3, S_MAX: 0.7})
        for seed in (1, 2):
            got = fan_distribution(index, recs, start, trials, seed)
            counts = fan_counts_per_element(index, recs, start, trials, seed)
            lost = int(counts[S_MAX + 1])
            assert 0 < lost < trials
            kept = trials - lost
            want = [(s, int(c) / kept) for s, c in enumerate(counts[: S_MAX + 1]) if c]
            assert list(got.mass.items()) == want
            assert got.truncation_error == lost / trials

    def test_windows_of_elements_keep_the_law(self, monkeypatch):
        # 76 elements in windows of 7, each cutting across the 8 streams of prime kinds
        calls = []
        simulate_streams = fans.simulate_streams

        def spy(initial, prime_streams, trials, seeds):
            calls.append(len(trials))
            return simulate_streams(initial, prime_streams, trials, seeds)

        monkeypatch.setattr(fans, "_REPLAY_WINDOW", 7)
        monkeypatch.setattr(fans, "simulate_streams", spy)
        recs = records_upto(196)
        index = FanIndex(FIX, ln_sequence(parse_growth("pow:1"), 14.0, 2), 1, recs)
        initial = RhoE(0.6).initial_distribution()
        got = self.counted_row(monkeypatch, index, recs, initial, 1000, 3)
        want = fan_counts_per_element(index, recs, initial, 1000, 3)
        assert calls == [7] * 10 + [6]
        assert got.tolist() == want.tolist()

    def test_a_fan_raises_only_when_every_trial_overflows(self, monkeypatch):
        # real support primes have class 0 or 1, so s <= 1 + 2m and no real fan overflows; here
        # split class-1 steps always rise, so from S_MAX every trial of an element with a split
        # class-1 prime overflows, while one with an inert class-1 prime keeps its trials
        monkeypatch.setitem(chain._JUMPS, (1, True), np.array([[2], [2]]))
        recs = records_upto(196)
        index = FanIndex(FIX, ln_sequence(parse_growth("pow:1"), 14.0, 2), 1, recs)
        kinds = {recs[q].split_in_F for e in enumerate_fan(index) for q in e.primes
                 if recs[q].class_k == 1}
        assert kinds == {True, False}
        start = Distribution.point_mass(S_MAX)
        counts = fan_counts_per_element(index, recs, start, 300, 1)
        assert 0 < counts[S_MAX + 1] < 300
        law = fan_distribution(index, recs, start, 300, 1)
        assert law.truncation_error == counts[S_MAX + 1] / 300
        # weight 1 puts one class-1 prime in every element: once inert ones rise too, all overflow
        monkeypatch.setitem(chain._JUMPS, (1, False), np.array([[2], [2]]))
        with pytest.raises(ConsistencyError, match="every trial overflowed"):
            fan_distribution(index, recs, start, 300, 1)


class TestFanDistribution:
    def test_tracks_exact_law(self):
        growth = parse_growth("pow:1")
        recs = records_upto(1600)
        emp = fan_law(2, 2, 40.0, growth, recs, 30_000, seed=11)
        exact = evolve(Distribution.point_mass(0), 2)
        assert emp.tv_distance(exact) < 0.03

    def test_deterministic(self):
        growth = parse_growth("pow:1")
        recs = records_upto(1600)
        a = fan_law(2, 2, 40.0, growth, recs, 5000, seed=3)
        b = fan_law(2, 2, 40.0, growth, recs, 5000, seed=3)
        assert a.mass == b.mass

    def test_empty_fan_is_an_error(self):
        growth = parse_growth("log")
        recs = records_upto(150)
        with pytest.raises(ConfigError, match="empty fan"):
            fan_law(2, 2, 40.0, growth, recs, 1000, seed=1)

    def test_sampling_path_runs(self):
        # m above 3 goes through rejection sampling;
        # a constant bound keeps the support small
        growth = parse_growth("affine:0,30")
        recs = records_upto(30)
        emp = fan_law(4, 2, 1.0, growth, recs, 2000, seed=17)
        assert emp.total() + emp.truncation_error == pytest.approx(1.0, abs=1e-9)
        assert all(s % 2 == 0 for s in emp.support())
        # the exact draws of the rejection sampler at this seed
        assert emp.mass == {0: 0.669, 4: 0.331}

    def test_empty_large_fan_is_a_data_error(self):
        # only three of the eight support primes below 30 have dimension 0,
        # so no four of them have weight 0
        growth = parse_growth("affine:0,30")
        recs = records_upto(30)
        with pytest.raises(DataError, match="empty fan"):
            fan_law(4, 0, 1.0, growth, recs, 100, seed=1)
