"""Mod-3 torsion data and prime classification for elliptic curves over Q.

For a curve y^2 = x^3 + Ax + B and a good prime p > 3 this module computes
the Frobenius trace a_p by a quadratic character sum, the conjugacy class
of Frobenius on E[3] in GL2(F3), and what that class determines: the
F3-dimensions of the 3-torsion over F_p and over F_{p^2} (the fixed
dimensions of Frobenius and of its square), splitting in the quadratic
cyclotomic field and the support flags.

Trace a_p and determinant p mod 3 pick the class, except where a scalar
and a unipotent class both fit; one test, x^p = x modulo the 3-division
polynomial, tells those two apart. Point counting is the naive O(p) sum,
capped at p <= 10^6.
"""
from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .errors import ConfigError, ConsistencyError
from .gl2f3 import ConjClass, conjugacy_classes, fixed_dim, mul

MAX_PRIME = 10**6


class ReductionError(ConfigError):
    """The requested prime divides the discriminant."""


@dataclass(frozen=True)
class CurveQ:
    """Short Weierstrass curve y^2 = x^3 + Ax + B with integer coefficients."""

    A: int
    B: int
    label: str | None = None

    def __post_init__(self) -> None:
        if self.discriminant == 0:
            raise ConfigError("curve is singular: 4A^3 + 27B^2 = 0")

    @property
    def discriminant(self) -> int:
        return -16 * (4 * self.A**3 + 27 * self.B**2)


@dataclass(frozen=True)
class PrimeClassRecord:
    label: str
    p: int
    a_p: int
    dim_fp: int
    dim_fp2: int
    split_in_F: bool
    class_k: int
    class_F: int
    in_DB_support: bool


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending."""
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return [int(q) for q in np.nonzero(sieve)[0]]


def _check_prime(curve: CurveQ, p: int) -> None:
    if p <= 3:
        raise ConfigError(f"p = {p} is unsupported, primes must exceed 3")
    if p > MAX_PRIME:
        raise ConfigError(f"p = {p} exceeds the supported bound {MAX_PRIME}")
    if not is_prime(p):
        raise ConfigError(f"p = {p} is not prime")
    if curve.discriminant % p == 0:
        raise ReductionError(f"bad reduction at p = {p}")


def ap(curve: CurveQ, p: int) -> int:
    """Frobenius trace a_p = p + 1 - #E(F_p) via the character sum over x."""
    _check_prime(curve, p)
    A, B = curve.A % p, curve.B % p
    xs = np.arange(p, dtype=np.int64)
    x2 = xs * xs % p
    f = (x2 * xs + A * xs + B) % p
    squares = np.zeros(p, dtype=np.int8)
    squares[x2] = 1
    chi = np.where(f == 0, 0, np.where(squares[f] == 1, 1, -1))
    a = -int(chi.sum())
    if a * a > 4 * p:
        raise ConsistencyError(f"Hasse bound violated at p = {p}: a_p = {a}")
    return a


def division_poly_3(curve: CurveQ) -> tuple[int, int, int, int, int]:
    """Coefficients of 3x^4 + 6Ax^2 + 12Bx - A^2, ascending."""
    A, B = curve.A, curve.B
    return (-A * A, 12 * B, 6 * A, 0, 3)


def _pmulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """a * b modulo the monic mod over F_p; ascending lists of length deg(mod)."""
    n = len(mod) - 1
    r = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            r[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c = r[k] % p
        for i in range(n):
            r[k - n + i] -= c * mod[i]
    return [c % p for c in r[:n]]


def _psi3_splits(curve: CurveQ, p: int) -> bool:
    """Whether x^p = x modulo the 3-division polynomial over F_p.

    The quartic has distinct roots at a good prime, so this holds exactly
    when all four of its roots lie in F_p.
    """
    inv3 = pow(3, -1, p)
    psi = [c * inv3 % p for c in division_poly_3(curve)]
    x = [0, 1, 0, 0]
    result, base, e = [1, 0, 0, 0], x, p
    while e:
        if e & 1:
            result = _pmulmod(result, base, psi, p)
        base = _pmulmod(base, base, psi, p)
        e >>= 1
    return result == x


def _frobenius_class(curve: CurveQ, p: int, ap_value: int) -> ConjClass:
    """The conjugacy class of Frobenius on E[3] in GL2(F3).

    Trace a_p and determinant p mod 3 pin the class, except that a scalar
    (+-I) and a +-unipotent class share trace and determinant. A scalar
    fixes every line of E[3], so all four x-coordinates of its nonzero
    points are rational; a +-unipotent fixes exactly one line. The fixed
    dimensions of the class and of its square are checked against the
    point counts p + 1 - a_p of the curve and p + 1 + a_p of its
    quadratic twist.
    """
    _check_prime(curve, p)
    fits = [c for c in conjugacy_classes() if c.trace == ap_value % 3 and c.det == p % 3]
    if len(fits) > 1:
        scalar = _psi3_splits(curve, p)
        fits = [c for c in fits if (c.size == 1) == scalar]
    if len(fits) != 1:
        raise ConsistencyError(f"{len(fits)} Frobenius classes fit a_p = {ap_value} at p = {p}")
    cls = fits[0]
    g = cls.representative
    dim, dim2 = cls.fixed_dim, fixed_dim(mul(g, g))
    if (p + 1 - ap_value) % 3**dim:
        raise ConsistencyError(f"3^{dim} does not divide the point count at p = {p}")
    if (p + 1 + ap_value) % 3 ** (dim2 - dim):
        raise ConsistencyError(f"3^{dim2 - dim} does not divide the twist's point count at p = {p}")
    return cls


def _torsion_dims(curve: CurveQ, p: int, ap_value: int | None = None) -> tuple[int, int]:
    """F3-dimensions of the 3-torsion rational over F_p and over F_{p^2}:
    the fixed dimensions of Frobenius and of its square."""
    if ap_value is None:
        ap_value = ap(curve, p)
    cls = _frobenius_class(curve, p, ap_value)
    g = cls.representative
    return cls.fixed_dim, fixed_dim(mul(g, g))


def dim3_fp(curve: CurveQ, p: int, ap_value: int | None = None) -> int:
    """F3-dimension of the 3-torsion subgroup rational over F_p."""
    return _torsion_dims(curve, p, ap_value)[0]


def dim3_fp2(curve: CurveQ, p: int) -> int:
    """F3-dimension of the 3-torsion subgroup rational over F_{p^2}."""
    return _torsion_dims(curve, p)[1]


def classify_prime(curve: CurveQ, p: int) -> PrimeClassRecord:
    """Full local record at p: trace, torsion dimensions, class data."""
    a = ap(curve, p)
    d1, d2 = _torsion_dims(curve, p, a)
    split = p % 3 == 1
    return PrimeClassRecord(
        label=curve.label or "",
        p=p,
        a_p=a,
        dim_fp=d1,
        dim_fp2=d2,
        split_in_F=split,
        class_k=d1,
        class_F=d1 if split else d2,
        in_DB_support=d1 != 2,
    )


def frobenius_class(curve: CurveQ, p: int) -> ConjClass:
    """The conjugacy class of Frobenius acting on the 3-torsion.

    Read off the trace and determinant mod 3, with one test on the
    3-division polynomial where a scalar and a unipotent class both fit.
    """
    return _frobenius_class(curve, p, ap(curve, p))


def _classify_worker(args):
    A, B, label, p = args
    return classify_prime(CurveQ(A, B, label), p)


def classify_primes(curve: CurveQ, ps: list[int], jobs: int = 1) -> list[PrimeClassRecord]:
    """Records for the given primes, in the given order."""
    if jobs <= 1:
        return [classify_prime(curve, p) for p in ps]
    tasks = [(curve.A, curve.B, curve.label, p) for p in ps]
    with Pool(jobs) as pool:
        return pool.map(_classify_worker, tasks, chunksize=64)


def good_primes(curve: CurveQ, max_prime: int, exclude: tuple[int, ...] = ()) -> list[int]:
    """Good classification-eligible primes 3 < p <= max_prime, ascending."""
    skip = set(exclude)
    return [
        p
        for p in primes_upto(max_prime)
        if p > 3 and curve.discriminant % p != 0 and p not in skip
    ]


def classify_range(
    curve: CurveQ,
    max_prime: int,
    jobs: int = 1,
    exclude: tuple[int, ...] = (),
) -> list[PrimeClassRecord]:
    """Records for every good prime 3 < p <= max_prime, ascending."""
    return classify_primes(curve, good_primes(curve, max_prime, exclude), jobs)


def density_report(
    curve: CurveQ,
    max_prime: int,
    jobs: int = 1,
    records: list[PrimeClassRecord] | None = None,
) -> dict:
    """Empirical class frequencies against the group-theoretic predictions."""
    from .gl2f3 import fixed_dim_density

    if max_prime < 100:
        raise ConfigError("density report needs max_prime >= 100")
    if records is None:
        records = classify_range(curve, max_prime, jobs=jobs)
    else:
        records = sorted((r for r in records if r.p <= max_prime), key=lambda r: r.p)
    split = [r for r in records if r.split_in_F]
    inert = [r for r in records if not r.split_in_F]
    rows = []
    for coset_name, recs, d in (("split", split, 1), ("inert", inert, 2)):
        for i in (0, 1, 2):
            predicted = float(fixed_dim_density(d, i))
            empirical = (
                sum(1 for r in recs if r.class_k == i) / len(recs) if recs else 0.0
            )
            rows.append(
                {
                    "coset": coset_name,
                    "dim": i,
                    "empirical": empirical,
                    "predicted": predicted,
                    "deviation": abs(empirical - predicted),
                }
            )
    n_inert = len(inert)
    order2 = sum(1 for r in inert if r.dim_fp == 1) / n_inert if n_inert else 0.0
    order8 = sum(1 for r in inert if r.dim_fp == 0) / n_inert if n_inert else 0.0
    return {
        "label": curve.label or "",
        "max_prime": max_prime,
        "primes": len(records),
        "split_primes": len(split),
        "inert_primes": n_inert,
        "rows": rows,
        "inert_order2": {"empirical": order2, "predicted": 0.5, "deviation": abs(order2 - 0.5)},
        "inert_order8": {"empirical": order8, "predicted": 0.5, "deviation": abs(order8 - 0.5)},
    }
