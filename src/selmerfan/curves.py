"""Mod-3 torsion data and prime classification for elliptic curves over Q.

For a curve y^2 = x^3 + Ax + B and a good prime p > 3 this module computes
the Frobenius trace a_p, the conjugacy class of Frobenius on E[3] in
GL2(F3), and what that class determines: the F3-dimensions of the
3-torsion over F_p and over F_{p^2} (the fixed dimensions of Frobenius
and of its square), splitting in the quadratic cyclotomic field and the
support flags.

Trace a_p and determinant p mod 3 pick the class, except where a scalar
and a unipotent class both fit; one test, whether the discriminant is a
cube mod p, tells those two apart. Nothing here enumerates GL2(F3): the
class, both torsion dimensions and the predicted densities are read off
`gl2f3.conjugacy_classes()`. Point counting is a quadratic character sum
for p <= 229 and Shanks-Mestre baby-step giant-step above it, with
O(p^(1/4)) group operations per point; p is capped at 10^6.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from math import gcd, isqrt, lcm
from multiprocessing import Pool

import numpy as np

from .errors import ConfigError, ConsistencyError
from .gl2f3 import ConjClass, conjugacy_classes, fixed_dim_density

MAX_PRIME = 10**6
# pi(MAX_PRIME): no curve's prime stream is longer
MAX_STREAM = 78_498
# above this, E or its quadratic twist has a point whose order has exactly one
# multiple in the Hasse interval (Mestre's theorem, with Schoof's bound)
MESTRE_BOUND = 229


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
    """Frobenius trace a_p = p + 1 - #E(F_p).

    For p <= 229 this is the quadratic character sum over x. Above it,
    #E(F_p) comes from Shanks-Mestre baby-step giant-step: one scan of
    the whole Hasse interval per point, on E or on its quadratic twist,
    gives the point's order, or its group's order where the interval
    holds one multiple only, until the interval holds exactly one N that
    is a multiple of every value found on E with 2p + 2 - N a multiple of
    every value found on the twist. Mestre's theorem guarantees that for
    p > 229.
    The points are taken at x = 0, 1, 2, ... in turn, not drawn at
    random, so the work done, like the result, depends only on the curve
    and p: there is no seed.
    """
    _check_prime(curve, p)
    A, B = curve.A % p, curve.B % p
    if p > MESTRE_BOUND:
        a = p + 1 - _mestre_count(A, B, p)
    else:
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


def _add(P: tuple[int, int] | None, Q: tuple[int, int] | None, a: int, p: int
         ) -> tuple[int, int] | None:
    """P + Q on y^2 = x^3 + ax + b over F_p, in affine coordinates; None is infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _mul(n: int, P: tuple[int, int] | None, a: int, p: int) -> tuple[int, int] | None:
    """n * P for n >= 0, by left-to-right double and add."""
    R = None
    for bit in bin(n)[2:]:
        R = _add(R, R, a, p)
        if bit == "1":
            R = _add(R, P, a, p)
    return R


def _point_order(P: tuple[int, int], a: int, p: int, lo: int, hi: int) -> int:
    """The order of P, or, if [lo, hi] holds only one multiple of it, that multiple.

    Baby steps j * P for j <= m are keyed by x. An order of at most
    2m + 1 shows up while stepping to (m + 1) * P, as infinity or as an x
    already keyed, and is read off there. Otherwise giant steps by
    G = (2m + 1) * P, from the multiple c of 2m + 1 with c - m <= lo <= c + m,
    scan the disjoint windows [c - m, c + m] covering [lo, hi]; a step
    equal to +-j * P, or to infinity, lists the one multiple of the order
    in its window, and those in [lo, hi] are kept. Two multiples differ by
    the order; a single one is the order of the group P lies in, which the
    caller's Hasse interval contains.
    The chord additions by P and by G are written out here; `_add` does
    the doublings and the other steps with equal x.
    """
    m = isqrt((hi - lo) // 2) + 1
    baby: dict[int, tuple[int, int]] = {}
    px, py = Q = P
    for j in range(1, m + 2):
        if Q is None:
            return j
        x, y = Q
        if x in baby:
            # the first repeated x: j * P = -i * P with i < j, so the order is i + j
            return j + baby[x][0]
        if j > m:
            break
        baby[x] = (j, y)
        mP = Q
        if x == px:
            Q = _add(Q, P, a, p)
        else:
            lam = (y - py) * pow(x - px, -1, p) % p
            x3 = (lam * lam - x - px) % p
            Q = x3, (lam * (x - x3) - y) % p
    step = 2 * m + 1
    c = (lo + m) // step * step
    G = _add(mP, Q, a, p)
    gx, gy = G
    R = _mul(c // step, G, a, p)
    hits = []
    while c - m <= hi:
        if R is None:
            hits.append(c)
        else:
            x, y = R
            if x in baby:
                j, yj = baby[x]
                hits.append(c - j if y == yj else c + j)
        if R is None or x == gx:
            R = _add(R, G, a, p)
        else:
            lam = (y - gy) * pow(x - gx, -1, p) % p
            x3 = (lam * lam - x - gx) % p
            R = x3, (lam * (x - x3) - y) % p
        c += step
    hits = [n for n in hits if lo <= n <= hi]
    if not hits:
        raise ConsistencyError(f"no multiple of a point's order in [{lo}, {hi}] at p = {p}")
    return hits[1] - hits[0] if len(hits) > 1 else hits[0]


def _mestre_count(A: int, B: int, p: int) -> int:
    """#E(F_p) for E: y^2 = x^3 + Ax + B and p > 229, by Shanks-Mestre.

    At each x with d = f(x) != 0, the point (dx, d^2) lies on
    Y^2 = X^3 + Ad^2 X + Bd^3, which is E when d is a square and its
    quadratic twist when it is not, so no square root is taken. The lcms
    of the values `_point_order` returns divide #E and 2p + 2 - #E; the
    candidates in the Hasse interval are one residue class, by the Chinese
    remainder theorem, and the walk stops when that class meets the
    interval once.
    """
    w = isqrt(4 * p)
    lo, hi = p + 1 - w, p + 1 + w
    lcm_e, lcm_twist = 1, 1
    for x in range(p):
        d = (x * x * x + A * x + B) % p
        if d == 0:
            continue
        order = _point_order((d * x % p, d * d % p), A * d * d % p, p, lo, hi)
        if pow(d, (p - 1) // 2, p) == 1:
            lcm_e = lcm(lcm_e, order)
        else:
            lcm_twist = lcm(lcm_twist, order)
        # #E = 0 mod lcm_e and #E = 2p + 2 mod lcm_twist
        g = gcd(lcm_e, lcm_twist)
        modulus = lcm_e * (lcm_twist // g)
        if (2 * p + 2) % g:
            raise ConsistencyError(f"point orders on E and its twist disagree at p = {p}")
        k = (2 * p + 2) // g * pow(lcm_e // g, -1, lcm_twist // g) % (lcm_twist // g)
        first = lo + (lcm_e * k - lo) % modulus
        if first > hi:
            raise ConsistencyError(f"no group order in the Hasse interval fits at p = {p}")
        if first + modulus > hi:
            return first
    raise ConsistencyError(f"no point fixes #E in the Hasse interval at p = {p}")


def _frobenius_class(curve: CurveQ, p: int, ap_value: int) -> ConjClass:
    """The conjugacy class of Frobenius on E[3] in GL2(F3).

    Trace a_p and determinant p mod 3 pin the class, except that a scalar
    (+-I) and a +-unipotent class share trace and determinant, which
    happens only for p = 1 mod 3. Frobenius permutes the four lines of
    E[3] through PGL2(F3) = S4, and the quotient S4 -> S3 is the Galois
    group of Q(zeta_3, disc^(1/3)) (Serre, Invent. Math. 15, 1972). A
    scalar maps to the identity there and a +-unipotent to a 3-cycle, so
    with zeta_3 in F_p the class is scalar exactly when the discriminant
    is a cube mod p. The fixed dimensions of the class and of its square
    are checked against the point counts p + 1 - a_p of the curve and
    p + 1 + a_p of its quadratic twist. Callers have checked p through
    `ap`.
    """
    fits = [c for c in conjugacy_classes() if c.trace == ap_value % 3 and c.det == p % 3]
    if len(fits) > 1:
        scalar = pow(curve.discriminant % p, (p - 1) // 3, p) == 1
        fits = [c for c in fits if (c.size == 1) == scalar]
    if len(fits) != 1:
        raise ConsistencyError(f"{len(fits)} Frobenius classes fit a_p = {ap_value} at p = {p}")
    cls = fits[0]
    dim, dim2 = cls.fixed_dim, cls.square_fixed_dim
    if (p + 1 - ap_value) % 3**dim:
        raise ConsistencyError(f"3^{dim} does not divide the point count at p = {p}")
    if (p + 1 + ap_value) % 3 ** (dim2 - dim):
        raise ConsistencyError(f"3^{dim2 - dim} does not divide the twist's point count at p = {p}")
    return cls


def dim3_fp(curve: CurveQ, p: int) -> int:
    """F3-dimension of the 3-torsion subgroup rational over F_p."""
    return frobenius_class(curve, p).fixed_dim


def dim3_fp2(curve: CurveQ, p: int) -> int:
    """F3-dimension of the 3-torsion subgroup rational over F_{p^2}."""
    return frobenius_class(curve, p).square_fixed_dim


def classify_prime(curve: CurveQ, p: int) -> PrimeClassRecord:
    """Full local record at p: trace, torsion dimensions, class data."""
    a = ap(curve, p)
    cls = _frobenius_class(curve, p, a)
    d1, d2 = cls.fixed_dim, cls.square_fixed_dim
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

    Read off the trace and determinant mod 3, with one cube test on the
    discriminant where a scalar and a unipotent class both fit.
    """
    return _frobenius_class(curve, p, ap(curve, p))


def _classify_worker(args):
    A, B, label, p = args
    return classify_prime(CurveQ(A, B, label), p)


def classify_primes(curve: CurveQ, ps: list[int], jobs: int = 1) -> list[PrimeClassRecord]:
    """Records for the given primes, in order; at most one worker per prime and per usable CPU."""
    workers = min(jobs, len(ps), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [classify_prime(curve, p) for p in ps]
    tasks = [(curve.A, curve.B, curve.label, p) for p in ps]
    with Pool(workers) as pool:
        return pool.map(_classify_worker, tasks, chunksize=64)


def good_primes(curve: CurveQ, max_prime: int) -> list[int]:
    """Good classification-eligible primes 3 < p <= max_prime, ascending."""
    if max_prime > MAX_PRIME:
        raise ConfigError(f"max_prime = {max_prime} exceeds the supported bound {MAX_PRIME}")
    return [p for p in primes_upto(max_prime) if p > 3 and curve.discriminant % p != 0]


def check_density_bound(max_prime: int) -> None:
    """Refuse a density report below 100, where too few primes are counted."""
    if max_prime < 100:
        raise ConfigError("density report needs max_prime >= 100")


def density_report(curve: CurveQ, max_prime: int, records: list[PrimeClassRecord]) -> dict:
    """Class frequencies of the records up to max_prime against the GL2(F3) predictions."""
    check_density_bound(max_prime)
    records = sorted((r for r in records if r.p <= max_prime), key=lambda r: r.p)
    split = [r for r in records if r.split_in_F]
    inert = [r for r in records if not r.split_in_F]
    rows = []
    for coset_name, recs, d in (("split", split, 1), ("inert", inert, 2)):
        for i in (0, 1, 2):
            predicted = float(fixed_dim_density(d, i))
            empirical = sum(1 for r in recs if r.class_k == i) / len(recs) if recs else 0.0
            rows.append({"coset": coset_name, "dim": i, "empirical": empirical,
                         "predicted": predicted, "deviation": abs(empirical - predicted)})
    # in the det = 2 coset, Frobenius of order 2 fixes a line and of order 8 fixes none
    inert_by_dim = {
        row["dim"]: {k: row[k] for k in ("empirical", "predicted", "deviation")} for row in rows[3:]
    }
    return {
        "label": curve.label or "",
        "max_prime": max_prime,
        "primes": len(records),
        "split_primes": len(split),
        "inert_primes": len(inert),
        "rows": rows,
        "inert_order2": inert_by_dim[1],
        "inert_order8": inert_by_dim[0],
    }
