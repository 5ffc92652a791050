"""Prime classification checked against brute-force group arithmetic.

The reference implementations here enumerate curve points and scan the
quadratic extension directly, so they are slow but unarguable; the library
must match them exactly on every prime where both run.
"""
import itertools
import os
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selmerfan.curves import (
    CurveQ,
    PrimeClassRecord,
    ReductionError,
    ap,
    classify_prime,
    classify_primes,
    density_report,
    dim3_fp,
    dim3_fp2,
    frobenius_class,
    good_primes,
    is_prime,
    primes_upto,
)
from selmerfan import curves
from selmerfan.errors import ConfigError, ConsistencyError

FIX = CurveQ(1, 1, "fix")


def pow_mod(xs, e, p):
    out = np.ones_like(xs)
    base = xs % p
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


# ---------------------------------------------------------------- reference

def division_poly_3(curve):
    """Coefficients of 3x^4 + 6Ax^2 + 12Bx - A^2, ascending."""
    A, B = curve.A, curve.B
    return (-A * A, 12 * B, 6 * A, 0, 3)


def psi3_roots(curve, p):
    """Roots of the 3-division polynomial in F_p, by a vectorised scan of all x."""
    c0, c1, c2, _, c4 = (c % p for c in division_poly_3(curve))
    xs = np.arange(p, dtype=np.int64)
    x2 = xs * xs % p
    return xs[((c4 * x2 + c2) % p * x2 + c1 * xs + c0) % p == 0]


def curve_points(a, b, p):
    pts = [None]
    for x in range(p):
        f = (x * x * x + a * x + b) % p
        for y in range(p):
            if y * y % p == f:
                pts.append((x, y))
    return pts


def legendre_ap(a, b, p):
    """a_p = -sum over x of the Legendre symbol of x^3 + ax + b, by Euler's criterion."""
    xs = np.arange(p, dtype=np.int64)
    chi = pow_mod((xs * xs % p * xs + a * xs + b) % p, (p - 1) // 2, p)
    return -int(np.where(chi == p - 1, -1, chi).sum())


def pt_add(P, Q, a, p):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def brute_order(P, a, p):
    """The order of P by adding P until infinity."""
    n, Q = 1, P
    while Q is not None:
        n, Q = n + 1, pt_add(Q, P, a, p)
    return n


def pt_triple(P, a, p):
    R = None
    for _ in range(3):
        R = pt_add(R, P, a, p)
    return R


def brute_dim3(a, b, p):
    """Torsion dimension by literally tripling every point."""
    pts = curve_points(a, b, p)
    t = sum(1 for P in pts if P is not None and pt_triple(P, a, p) is None)
    assert t in (0, 2, 8), t
    return {0: 0, 2: 1, 8: 2}[t], len(pts)


def brute_dim3_fp2(a, b, p):
    """Torsion dimension over the quadratic extension by full scan."""
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1

    def mul(z, w):
        return ((z[0] * w[0] + n * z[1] * w[1]) % p, (z[0] * w[1] + z[1] * w[0]) % p)

    def is_sq(z):
        if z == (0, 0):
            return True
        e = (p * p - 1) // 2
        r, base = (1, 0), z
        while e:
            if e & 1:
                r = mul(r, base)
            base = mul(base, base)
            e >>= 1
        return r == (1, 0)

    coeffs = [c % p for c in division_poly_3(CurveQ(a, b))]
    t = 0
    for a0, b0 in itertools.product(range(p), repeat=2):
        z = (a0, b0)
        acc = (0, 0)
        for coef in reversed(coeffs):
            acc = mul(acc, z)
            acc = ((acc[0] + coef) % p, acc[1])
        if acc == (0, 0):
            f = mul(mul(z, z), z)
            f = ((f[0] + a * z[0] + b) % p, (f[1] + a * z[1]) % p)
            if is_sq(f):
                t += 2
    assert t in (0, 2, 8), t
    return {0: 0, 2: 1, 8: 2}[t]


# ------------------------------------------------------------------- curves

class TestCurveQ:
    def test_discriminant(self):
        assert FIX.discriminant == -16 * 31
        assert CurveQ(0, 1).discriminant == -16 * 27

    def test_division_poly_discriminant_identity(self):
        # disc(3x^4 + 6Ax^2 + 12Bx - A^2) = -27 * disc(curve)^2, so for a
        # good prime p > 3 the quartic never has repeated roots mod p and
        # the repeated-root consistency guard is unreachable on valid input
        sympy = pytest.importorskip("sympy")
        x, A, B = sympy.symbols("x A B")
        quartic = 3 * x**4 + 6 * A * x**2 + 12 * B * x - A**2
        delta = -16 * (4 * A**3 + 27 * B**2)
        ratio = sympy.simplify(sympy.discriminant(quartic, x) / delta**2)
        assert ratio == -27

    def test_singular_rejected(self):
        with pytest.raises(ConfigError):
            CurveQ(0, 0)
        with pytest.raises(ConfigError):
            CurveQ(-3, 2)

    def test_division_poly_pins(self):
        assert division_poly_3(CurveQ(0, 1)) == (0, 12, 0, 0, 3)
        assert division_poly_3(CurveQ(1, -1)) == (-1, -12, 6, 0, 3)


class TestPrimeHelpers:
    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_prime(1)
        assert not is_prime(0)

    def test_max_stream_is_the_prime_count(self):
        assert len(primes_upto(curves.MAX_PRIME)) == curves.MAX_STREAM

    def test_primes_upto(self):
        assert list(primes_upto(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert len(primes_upto(10**4)) == 1229

    def test_good_primes_excludes_bad_and_tiny(self):
        gp = good_primes(FIX, 100)
        assert 2 not in gp and 3 not in gp and 31 not in gp
        assert 5 in gp and 97 in gp


class TestErrorTaxonomy:
    def test_small_prime_unsupported(self):
        with pytest.raises(ConfigError):
            ap(FIX, 2)
        with pytest.raises(ConfigError):
            dim3_fp(FIX, 3)

    def test_composite_rejected(self):
        with pytest.raises(ConfigError):
            ap(FIX, 91)

    def test_bad_reduction(self):
        with pytest.raises(ReductionError):
            ap(FIX, 31)
        with pytest.raises(ReductionError):
            classify_prime(FIX, 31)

    def test_reduction_error_is_config_error(self):
        assert issubclass(ReductionError, ConfigError)

    def test_oversized_prime(self):
        with pytest.raises(ConfigError):
            ap(FIX, 10**6 + 3)


class TestAgainstBruteForce:
    def test_ap_and_dim_match_group_enumeration(self):
        for p in primes_upto(200):
            if p <= 3 or FIX.discriminant % p == 0:
                continue
            d1 = dim3_fp(FIX, p)
            bd, npts = brute_dim3(1, 1, p)
            assert npts == p + 1 - ap(FIX, p), p
            assert d1 == bd, p

    @pytest.mark.parametrize("a,b", [(1, 1), (0, 1), (1, -1), (2, 3), (0, -432), (-3, 18)])
    def test_dim_fp2_matches_extension_scan(self, a, b):
        curve = CurveQ(a, b)
        for p in primes_upto(61)[2:]:
            if curve.discriminant % p == 0:
                continue
            assert dim3_fp2(curve, p) == brute_dim3_fp2(a, b, p), (a, b, p)

    def test_ap_by_hand_small(self):
        # x^3 + x + 1 over F_5: squares are {0,1,4}; count points directly
        npts = len(curve_points(1, 1, 5))
        assert ap(FIX, 5) == 5 + 1 - npts

    @pytest.mark.parametrize(
        "a,b,p",
        [
            pytest.param(1, 1, 9973, id="9973"),  # unipotent
            pytest.param(1, 1, 10007, id="10007"),  # order 2, det -1
            pytest.param(1, 1, 10009, id="10009"),  # -unipotent
            pytest.param(1, 1, 10037, id="10037"),  # order 8
            pytest.param(1, 1, 10111, id="10111"),  # -I
            pytest.param(1, 1, 10141, id="10141"),  # unipotent
            pytest.param(0, -432, 10009, id="cm-10009"),  # I
        ],
    )
    def test_root_counting_paths_agree(self, a, b, p):
        # the dimensions are read off the Frobenius class, with a cube test
        # on the discriminant only where a scalar and a unipotent class
        # share trace and determinant; check those classes and two others
        # against a plain vectorised scan of the 3-division roots, where a
        # root r gives two points of the curve when f(r) is a square and
        # two of the quadratic twist when it is not
        curve = CurveQ(a, b)
        torsion = {1: 1, p - 1: 1}
        for r in psi3_roots(curve, p):
            f = (int(r) ** 3 + a * int(r) + b) % p
            torsion[pow(f, (p - 1) // 2, p)] += 2
        dims = {1: 0, 3: 1, 9: 2}
        assert dim3_fp(curve, p) == dims[torsion[1]]
        assert dim3_fp2(curve, p) == dims[torsion[1]] + dims[torsion[p - 1]]
        x = ap(curve, p)
        assert ((p + 1) ** 2 - x * x) % 3 ** dim3_fp2(curve, p) == 0


SIX_CURVES = [(1, 1), (2, 3), (0, -432), (-3, 18), (0, 1), (1, 0)]


class TestBabyStepGiantStep:
    """a_p above the 229 cutoff comes from Shanks-Mestre, checked against a character sum."""

    @pytest.mark.parametrize("a,b", SIX_CURVES)
    def test_matches_character_sum_to_5000(self, a, b):
        # includes the CM curves with j = 0 and j = 1728
        curve = CurveQ(a, b)
        for p in good_primes(curve, 5000):
            assert ap(curve, p) == legendre_ap(a, b, p), (a, b, p)

    @pytest.mark.parametrize(
        "a,b,pins",
        [
            pytest.param(1, 1, {223: -20, 227: 0, 229: -2, 233: -3, 239: -22,
                                999953: -1140, 999983: -700}, id="fix"),
            pytest.param(0, -432, {223: -28, 227: 0, 229: -22, 233: 0, 239: 0,
                                   999953: 0, 999983: 0}, id="cm"),
        ],
    )
    def test_pinned_values_at_the_cutoff_and_near_the_cap(self, a, b, pins):
        curve = CurveQ(a, b)
        assert {p: ap(curve, p) for p in pins} == pins

    def test_below_the_cutoff_never_a_wrong_count(self, monkeypatch):
        # at small p a point order can leave several counts in the Hasse
        # interval on both curves; the walk must then raise, not guess
        monkeypatch.setattr(curves, "MESTRE_BOUND", 3)
        ambiguous = set()
        for a, b in itertools.product(range(-6, 7), repeat=2):
            if 4 * a**3 + 27 * b**2 == 0:
                continue
            curve = CurveQ(a, b)
            for p in good_primes(curve, 229):
                try:
                    assert ap(curve, p) == legendre_ap(a, b, p), (a, b, p)
                except ConsistencyError:
                    ambiguous.add(p)
        assert ambiguous and max(ambiguous) == 29


class TestPointOrder:
    """`_point_order` against the order found by repeated addition."""

    @staticmethod
    def points(a, b, p):
        # points at x = 0..15, every 2-torsion point, and the 3-torsion points
        # over the roots of the 3-division polynomial
        c0, c1, c2, _, c4 = division_poly_3(CurveQ(a, b))
        xs = [x for x in range(p)
              if x <= 15 or (x**3 + a * x + b) % p == 0
              or (c4 * x**4 + c2 * x**2 + c1 * x + c0) % p == 0]
        for x in xs:
            f = (x**3 + a * x + b) % p
            ys = [y for y in range(p) if y * y % p == f]
            if ys:
                yield (x, ys[0])

    def test_matches_repeated_addition(self):
        seen = set()
        for (a, b), p in itertools.product([(1, 1), (2, 3), (0, 1), (1, 0), (-3, 18)],
                                           [233, 499, 997, 1999]):
            if CurveQ(a, b).discriminant % p == 0:
                continue
            w = isqrt(4 * p)
            lo, hi = p + 1 - w, p + 1 + w
            m = isqrt(w) + 1
            for P in self.points(a % p, b % p, p):
                order = brute_order(P, a % p, p)
                multiples = [n for n in range(lo, hi + 1) if n % order == 0]
                # a lone multiple is returned as it is: it is the group's order
                expected = order if len(multiples) > 1 else multiples[0]
                assert curves._point_order(P, a % p, p, lo, hi) == expected, (a, b, p, P)
                if order <= 2 * m + 1:
                    seen.add(order if order <= 3 else "at most 2m + 1")
                else:
                    seen.add("one multiple" if len(multiples) == 1 else "several multiples")
        assert seen == {2, 3, "at most 2m + 1", "one multiple", "several multiples"}

    def test_multiples_below_the_interval_are_never_returned(self):
        # the giant steps start at the multiple c of 2m + 1 whose window
        # [c - m, c + m] covers lo, so the part [c - m, lo) of that window
        # lies below the Hasse interval; a multiple of the order there is a
        # hit the scan must drop
        lone = 0
        for (a, b), p in itertools.product([(1, 1), (2, 3), (0, 1), (1, 0), (-3, 18)],
                                           [p for p in primes_upto(300) if p > 229]):
            if CurveQ(a, b).discriminant % p == 0:
                continue
            w = isqrt(4 * p)
            lo, hi = p + 1 - w, p + 1 + w
            m = isqrt((hi - lo) // 2) + 1
            c = (lo + m) // (2 * m + 1) * (2 * m + 1)
            for x in range(40):
                f = (x**3 + a * x + b) % p
                ys = [y for y in range(p) if y * y % p == f]
                if not ys:
                    continue
                P = (x, ys[0])
                order = brute_order(P, a % p, p)
                below = [n for n in range(c - m, lo) if n % order == 0]
                if order <= 2 * m + 1 or not below:
                    continue
                multiples = [n for n in range(lo, hi + 1) if n % order == 0]
                got = curves._point_order(P, a % p, p, lo, hi)
                assert got not in below, (a, b, p, P)
                assert got == (order if len(multiples) > 1 else multiples[0]), (a, b, p, P)
                # with one multiple inside, keeping the one below would return the order
                lone += len(multiples) == 1
        assert lone > 0


@given(st.integers(-50, 50), st.integers(-50, 50),
       st.sampled_from([p for p in primes_upto(1000) if p > 229]))
@settings(max_examples=80, deadline=None)
def test_random_curves_match_legendre_count(A, B, p):
    if 4 * A**3 + 27 * B**2 == 0:
        return
    curve = CurveQ(A, B)
    if curve.discriminant % p == 0:
        return
    assert ap(curve, p) == legendre_ap(A, B, p)


def test_cube_test_matches_psi3_roots_to_10000():
    # where a scalar and a unipotent class share trace and determinant, the
    # class is scalar exactly when all four roots of the 3-division
    # polynomial lie in F_p; the library decides it by a cube test on the
    # discriminant instead
    scalar = {}
    for a, b in SIX_CURVES:
        curve = CurveQ(a, b)
        for p in good_primes(curve, 10_000):
            if p % 3 == 1 and ap(curve, p) % 3:
                is_scalar = frobenius_class(curve, p).size == 1
                assert is_scalar == (len(psi3_roots(curve, p)) == 4), (a, b, p)
                scalar[a, b, p] = is_scalar
    assert len(scalar) > 2000 and 0 < sum(scalar.values()) < len(scalar)


class TestStructuralInvariants:
    def test_dimension_monotone_under_extension(self):
        for p in good_primes(FIX, 500):
            assert dim3_fp(FIX, p) <= dim3_fp2(FIX, p)

    def test_full_flag_needs_split_prime(self):
        # a full 3-torsion plane over F_p forces the Weil pairing to land in
        # F_p, so p = 1 mod 3
        for A, B in [(1, 1), (0, 1), (1, 0), (2, 3), (-1, 1)]:
            curve = CurveQ(A, B)
            for p in good_primes(curve, 400):
                if dim3_fp(curve, p) == 2:
                    assert p % 3 == 1, (A, B, p)

    def test_inert_prime_dichotomy(self):
        # for p = 2 mod 3 the Frobenius has non-square determinant, so its
        # order is 2 or 8 and the dimension pair is (1,2) or (0,0)
        for A, B in [(1, 1), (0, 1), (2, 3)]:
            curve = CurveQ(A, B)
            for p in good_primes(curve, 600):
                if p % 3 == 2:
                    pair = (dim3_fp(curve, p), dim3_fp2(curve, p))
                    assert pair in {(1, 2), (0, 0)}, (A, B, p, pair)

    def test_quadratic_twist_same_extension_dim(self):
        # the twist by -3 becomes isomorphic over the quadratic extension,
        # where every rational number is a square
        twist = CurveQ(9 * 1, -27 * 1, "fix-twist")
        for p in good_primes(FIX, 300):
            if twist.discriminant % p == 0:
                continue
            assert dim3_fp2(twist, p) == dim3_fp2(FIX, p), p

    def test_torsion_divides_point_count(self):
        for p in good_primes(FIX, 300):
            npts = p + 1 - ap(FIX, p)
            assert npts % 3 ** dim3_fp(FIX, p) == 0


@given(st.integers(-8, 8), st.integers(-8, 8), st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29]))
@settings(max_examples=80, deadline=None)
def test_random_curves_match_brute_force(A, B, p):
    if 4 * A**3 + 27 * B**2 == 0:
        return
    curve = CurveQ(A, B)
    if curve.discriminant % p == 0:
        return
    bd, npts = brute_dim3(A % p, B % p, p)
    assert dim3_fp(curve, p) == bd
    assert dim3_fp2(curve, p) == brute_dim3_fp2(A, B, p)
    assert ap(curve, p) == p + 1 - npts


class TestClassification:
    def test_record_fields(self):
        rec = classify_prime(FIX, 7)
        assert isinstance(rec, PrimeClassRecord)
        assert rec.label == "fix"
        assert rec.p == 7
        assert rec.split_in_F == (7 % 3 == 1)
        assert rec.class_k == rec.dim_fp
        expected_f = rec.dim_fp if rec.split_in_F else rec.dim_fp2
        assert rec.class_F == expected_f
        assert rec.in_DB_support == (rec.dim_fp != 2)

    def test_classify_range_structure(self):
        recs = classify_primes(FIX, good_primes(FIX, 300))
        assert [r.p for r in recs] == good_primes(FIX, 300)
        for r in recs:
            assert r.dim_fp <= r.dim_fp2
            if not r.split_in_F:
                assert (r.dim_fp, r.dim_fp2) in {(1, 2), (0, 0)}

    def test_parallel_equals_serial(self):
        ps = good_primes(FIX, 400)
        assert classify_primes(FIX, ps, jobs=1) == classify_primes(FIX, ps, jobs=3)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The `processes` of every Pool classify_primes asks for; none is started."""
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return [fn(t) for t in tasks]

        monkeypatch.setattr("selmerfan.curves.Pool", RecordingPool)
        return sizes

    def test_pool_has_at_most_one_worker_per_prime(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        sizes = pool_sizes
        assert classify_primes(FIX, [], jobs=2) == []
        assert classify_primes(FIX, [5], jobs=4) == [classify_prime(FIX, 5)]
        assert sizes == []
        ps = [5, 7, 11]
        assert classify_primes(FIX, ps, jobs=8) == [classify_prime(FIX, p) for p in ps]
        assert sizes == [3]

    def test_pool_has_at_most_one_worker_per_cpu(self, pool_sizes, monkeypatch):
        ps = good_primes(FIX, 100)
        serial = classify_primes(FIX, ps)
        cpus = min(len(os.sched_getaffinity(0)), len(ps))
        assert classify_primes(FIX, ps, jobs=5000) == serial
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert classify_primes(FIX, ps, jobs=5000) == serial
        assert classify_primes(FIX, ps, jobs=2) == serial
        assert pool_sizes == [cpus] * (cpus > 1) + [3, 2]

    def test_frobenius_class_consistent_with_dims(self):
        for p in good_primes(FIX, 300):
            cls = frobenius_class(FIX, p)
            assert cls.det == p % 3
            assert cls.trace == ap(FIX, p) % 3
            assert cls.fixed_dim == dim3_fp(FIX, p)

    def test_frobenius_square_has_extension_dim(self):
        from selmerfan.gl2f3 import fixed_dim, mul

        for p in good_primes(FIX, 300):
            g = frobenius_class(FIX, p).representative
            assert fixed_dim(mul(g, g)) == dim3_fp2(FIX, p)


class TestDensityReport:
    def test_shape_and_mass(self):
        report = density_report(FIX, 2000, classify_primes(FIX, good_primes(FIX, 2000)))
        assert report["primes"] > 0
        split_rows = [r for r in report["rows"] if r["coset"] == "split"]
        assert sum(r["empirical"] for r in split_rows) == pytest.approx(1.0)
        preds = sorted(r["predicted"] for r in split_rows)
        assert preds == pytest.approx(sorted([15 / 24, 8 / 24, 1 / 24]))
        assert report["inert_order2"]["predicted"] == 0.5

    def test_reuses_supplied_records(self):
        # records above max_prime are ignored
        a = density_report(FIX, 1500, records=classify_primes(FIX, good_primes(FIX, 3000)))
        b = density_report(FIX, 1500, records=classify_primes(FIX, good_primes(FIX, 1500)))
        assert a == b

    def test_small_range_rejected(self):
        with pytest.raises(ConfigError):
            density_report(FIX, 50, [])
