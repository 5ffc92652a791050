"""Mod-3 torsion data and prime classification for elliptic curves over Q.

For a curve y^2 = x^3 + Ax + B and a good prime p > 3 this module computes
the Frobenius trace a_p by a quadratic character sum, the F3-dimension of
the 3-torsion over F_p and over F_{p^2} from the F_p roots of the 3-division
polynomial, and the derived class data (splitting in the quadratic
cyclotomic field, support flags, Frobenius conjugacy class).

All polynomial work stays in F_p[x]. The quadratic extension needs no
arithmetic of its own: its 3-torsion is that of the curve plus that of
the quadratic twist over F_p, and both are read from the same roots.
Point counting is the naive O(p) sum, capped at p <= 10^6.
"""
from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .errors import ConfigError, ConsistencyError
from .gl2f3 import ConjClass, match_class

MAX_PRIME = 10**6
DIRECT_SCAN_LIMIT = 10**4


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


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p, ascending coefficient lists


def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _padd(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % p
    return _ptrim(out)


def _psub(a, b, p):
    return _padd(a, [(-y) % p for y in b], p)


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pdivmod(a, b, p):
    r = _ptrim([x % p for x in a])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(0, len(r) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        coef = r[-1] * inv_lead % p
        q[shift] = coef
        for i, y in enumerate(b):
            r[i + shift] = (r[i + shift] - coef * y) % p
        _ptrim(r)
    return _ptrim(q), r


def _pgcd(a, b, p):
    """Monic gcd in F_p[x]."""
    a = _ptrim([x % p for x in a])
    b = _ptrim([x % p for x in b])
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _pmulmod(a, b, mod, p):
    return _pdivmod(_pmul(a, b, p), mod, p)[1]


def _ppowmod(base, e, mod, p):
    result = [1]
    base = _pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _pmulmod(result, base, mod, p)
        base = _pmulmod(base, base, mod, p)
        e >>= 1
    return result


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the residue a mod p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if _legendre(a, p) != 1:
        raise ConsistencyError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _roots_of_split_poly(g, p):
    """Roots of a monic product of distinct linear factors over F_p."""
    deg = len(g) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [(-g[0]) % p]
    if deg == 2:
        disc = (g[1] * g[1] - 4 * g[0]) % p
        s = _sqrt_mod(disc, p)
        inv2 = pow(2, -1, p)
        return sorted({(-g[1] + s) * inv2 % p, (-g[1] - s) * inv2 % p})
    e = (p - 1) // 2
    for c in range(min(p, 512)):
        w = _ppowmod([c, 1], e, g, p)
        d = _pgcd(_psub(w, [1], p), g, p)
        if 0 < len(d) - 1 < deg:
            rest = _pdivmod(g, d, p)[0]
            return sorted(_roots_of_split_poly(d, p) + _roots_of_split_poly(rest, p))
    raise ConsistencyError(f"could not split a degree-{deg} polynomial mod {p}")


def _monic_psi3(curve: CurveQ, p: int) -> list[int]:
    inv3 = pow(3, -1, p)
    return [c % p * inv3 % p for c in division_poly_3(curve)]


def _psi3_fp_roots(curve: CurveQ, p: int) -> list[int]:
    """Distinct F_p roots of the 3-division polynomial, ascending."""
    if p <= DIRECT_SCAN_LIMIT:
        c0, c1, c2, _, c4 = (c % p for c in division_poly_3(curve))
        xs = np.arange(p, dtype=np.int64)
        x2 = xs * xs % p
        val = (c4 * (x2 * x2 % p) + c2 * x2 + c1 * xs + c0) % p
        roots = [int(r) for r in np.nonzero(val == 0)[0]]
    else:
        psi = _monic_psi3(curve, p)
        xp = _ppowmod([0, 1], p, psi, p)
        g = _pgcd(_psub(xp, [0, 1], p), psi, p)
        roots = _roots_of_split_poly(g, p)
    if len(roots) not in (0, 1, 2, 4):
        raise ConsistencyError(
            f"3-division polynomial has {len(roots)} roots mod {p}, expected 0/1/2/4"
        )
    return roots


def _torsion_count_to_dim(t: int, p: int) -> int:
    if t not in (0, 2, 8):
        raise ConsistencyError(f"nonzero 3-torsion point count {t} at p = {p} not in {{0, 2, 8}}")
    return {0: 0, 2: 1, 8: 2}[t]


def _torsion_dims(curve: CurveQ, p: int, ap_value: int | None = None) -> tuple[int, int]:
    """F3-dimensions of the 3-torsion rational over F_p and over F_{p^2}.

    Frobenius g has eigenvalues +1 and -1 on E[3], distinct mod 3, so the
    F_{p^2}-rational part ker(g^2 - 1) is ker(g - 1) + ker(g + 1). An F_p
    root r of the division polynomial gives two points of ker(g - 1) when
    r^3 + Ar + B is a square mod p, and two of ker(g + 1), the 3-torsion
    of the quadratic twist, when it is not. Both dimensions are checked
    against the point counts p + 1 - a_p and p + 1 + a_p.
    """
    _check_prime(curve, p)
    A, B = curve.A % p, curve.B % p
    t = t_twist = 0
    for r in _psi3_fp_roots(curve, p):
        fr = (pow(r, 3, p) + A * r + B) % p
        ls = _legendre(fr, p)
        if ls == 0:
            raise ConsistencyError(f"3-division root {r} mod {p} lies on the 2-torsion locus")
        if ls == 1:
            t += 2
        else:
            t_twist += 2
    dim = _torsion_count_to_dim(t, p)
    dim_twist = _torsion_count_to_dim(t_twist, p)
    if ap_value is None:
        ap_value = ap(curve, p)
    if (p + 1 - ap_value) % 3**dim:
        raise ConsistencyError(f"3^{dim} does not divide the point count at p = {p}")
    if (p + 1 + ap_value) % 3**dim_twist:
        raise ConsistencyError(f"3^{dim_twist} does not divide the twist's point count at p = {p}")
    return dim, dim + dim_twist


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
    if d1 == 2 and p % 3 != 1:
        raise ConsistencyError(f"full 3-torsion over F_{p} but p != 1 mod 3")
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

    Pinned by four data points: trace and determinant mod 3 and the fixed
    dimensions of the action and of its square. Exactly one class matches
    on every good prime; anything else raises.
    """
    rec = classify_prime(curve, p)
    return match_class(rec.a_p % 3, p % 3, rec.dim_fp, rec.dim_fp2)


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
