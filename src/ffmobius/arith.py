"""Multiplicative number theory on F_q[T]: Mobius (discriminant route and
factorization route), von Mangoldt, Euler phi, Jacobi symbols, modular
inverses, and the twin-pair singular series.

mobius() is the discriminant route - sign times the quadratic character
of the discriminant - which needs no factoring and is the default for
consumers; in characteristic 2, where that route does not exist, it falls
back to the factorization oracle.  mobius_oracle() recomputes the value from
the factorization oracle and exists so the two can be checked against each
other.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .config import FACTOR_CACHE_SIZE
from .factor import distinct_degree_split
from .field import _int_factorization
from .poly import Poly, discriminant, ext_gcd, gcd, monics, resultant
from .poly import _pow_qsum  # tuple kernel

__all__ = [
    "mobius_pellet",
    "mobius",
    "mobius_oracle",
    "von_mangoldt",
    "euler_phi",
    "jacobi",
    "jacobi_oracle",
    "inverse_mod",
    "SingularSeriesApprox",
    "singular_series",
]


def mobius_pellet(f: Poly) -> int:
    """mu(f) = (-1)^deg(f) * psi(Disc(f)) for monic f, odd characteristic."""
    ctx = f.ctx
    if ctx.p == 2:
        raise ValueError("discriminant route needs odd characteristic")
    if f.is_zero or not f.is_monic:
        raise ValueError("mobius is defined on monic nonzero polynomials")
    d = f.degree
    if d == 0:
        return 1
    sign = -1 if d % 2 else 1
    return sign * ctx.quad_char(discriminant(f))


def mobius(f: Poly) -> int:
    """mu(f) for monic f: the discriminant route in odd characteristic, the
    factorization oracle in characteristic 2."""
    if f.ctx.p == 2:
        return mobius_oracle(f)
    return mobius_pellet(f)


def mobius_oracle(f: Poly) -> int:
    """mu via the factorization oracle: 0 on non-squarefree, else parity of
    the number of irreducible factors, read off the distinct-degree split."""
    if f.is_zero or not f.is_monic:
        raise ValueError("mobius is defined on monic nonzero polynomials")
    split = distinct_degree_split(f)
    if any(mult > 1 for _, _, mult in split):
        return 0
    return -1 if sum(prod.degree // d for prod, d, _ in split) % 2 else 1


def von_mangoldt(f: Poly) -> int:
    """deg(P) when f = P^n for an irreducible P (the split is P alone), else 0."""
    if f.is_zero or not f.is_monic:
        raise ValueError("von Mangoldt is defined on monic nonzero polynomials")
    split = distinct_degree_split(f)
    if len(split) == 1 and split[0][0].degree == split[0][1]:
        return split[0][1]
    return 0


def euler_phi(M: Poly) -> int:
    """Number of units of F_q[T]/(M)."""
    if M.is_zero:
        raise ValueError("euler_phi of zero is undefined")
    q = M.ctx.q
    out = 1
    for prod, d, mult in distinct_degree_split(M.monic()):
        np = q**d
        out *= (np ** (mult - 1) * (np - 1)) ** (prod.degree // d)
    return out


def jacobi(f: Poly, g: Poly) -> int:
    """The real Jacobi symbol (f/g) for nonconstant g, odd q.

    Computed without factoring, as psi(lc(g))^max(deg f, 0) * psi(Res(g, f));
    zero exactly when gcd(f, g) is nonconstant.
    """
    ctx = g.ctx
    if ctx.p == 2:
        raise ValueError("Jacobi symbol needs odd q")
    if g.is_zero or g.degree < 1:
        raise ValueError("Jacobi symbol needs nonconstant denominator")
    if f.is_zero:
        return 0
    value = ctx.quad_char(resultant(g, f))
    if f.degree % 2:
        value *= ctx.quad_char(g.lc)
    return value


def jacobi_oracle(f: Poly, g: Poly) -> int:
    """(f/g) by the Euler criterion on each part G of the distinct-degree
    split of g, the primes of one degree d; the independent check for
    :func:`jacobi`.  r = f mod G must be a unit, s = r^((q^d - 1) / 2) is
    then +-1 mod each prime of G, and r is a non-residue at exactly the
    primes of gcd(G, s + 1), while gcd(G, s - 1) holds the rest."""
    ctx = g.ctx
    if ctx.p == 2:
        raise ValueError("Jacobi symbol needs odd q")
    if g.is_zero or g.degree < 1:
        raise ValueError("Jacobi symbol needs nonconstant denominator")
    one = Poly.one(ctx)
    out = 1
    for G, d, mult in distinct_degree_split(g.monic()):
        if gcd(f, G).degree:
            return 0
        if mult % 2:
            s = Poly._raw(ctx, _pow_qsum(ctx, (f % G).coeffs, (ctx.q - 1) // 2, d, G.coeffs))
            nonresidue = gcd(G, s + one).degree
            if gcd(G, s - one).degree + nonresidue != G.degree:  # pragma: no cover - would mean a broken residue field
                raise AssertionError("Euler criterion value outside {1,-1}")
            out *= (-1) ** (nonresidue // d)
    return out


# decomposition.decompose inverts M mod E at every derivative class, and a
# sweep over classes meets few distinct (M, E), so each is computed once.
@functools.lru_cache(maxsize=FACTOR_CACHE_SIZE)
def inverse_mod(f: Poly, M: Poly) -> Poly:
    """Canonical representative r, deg r < deg M, with f*r = 1 mod M."""
    if M.degree < 1:
        raise ValueError("modulus must be nonconstant")
    g, u, _ = ext_gcd(f, M)
    if g.degree != 0:
        raise ValueError("inverse does not exist: inputs share a factor")
    # ext_gcd returns monic g, i.e. g = 1, so u is already the inverse.
    return u % M


@dataclass(frozen=True)
class SingularSeriesApprox:
    """Truncated twin-pair constant; exact rational, never a float."""

    value: Fraction
    truncation_degree: int
    method: str

    def __float__(self) -> float:
        return float(self.value)


def _mobius_int(n: int) -> int:
    exponents = _int_factorization(n).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def _irreducible_count(q: int, n: int) -> int:
    """Monic irreducibles of degree n over GF(q), by necklace counting."""
    total = 0
    for j in range(1, n + 1):
        if n % j == 0:
            total += _mobius_int(j) * q ** (n // j)
    return total // n


@functools.lru_cache(maxsize=256)
def _euler_product(q: int, N: int, histogram: tuple[tuple[int, int], ...]) -> Fraction:
    """The truncated Euler product of singular_series, which depends on the
    shift only through histogram, the sorted (deg P, count) histogram of its
    prime divisors of degree <= N.

    A dividing prime of degree d contributes q^d / (q^d - 1), a generic one
    q^d (q^d - 2) / (q^d - 1)^2, so the exponents of the primes of q^d,
    q^d - 1 and q^d - 2 cancel to the reduced value: no gcd of the products
    of tens of thousands of bits is taken."""
    by_degree = dict(histogram)
    exponents: Counter[int] = Counter()
    for d in range(1, N + 1):
        npow = q**d
        dividing = by_degree.get(d, 0)
        generic = _irreducible_count(q, d) - dividing
        if npow == 2 and generic:
            return Fraction(0)  # 1 - (2 - 1)^-2 for T or T + 1 over GF(2)
        for n, e in ((npow, dividing + generic), (npow - 1, -dividing - 2 * generic), (npow - 2, generic)):
            for ell, k in _int_factorization(n).items():
                exponents[ell] += k * e
    num = math.prod(ell**e for ell, e in exponents.items() if e > 0)
    den = math.prod(ell**-e for ell, e in exponents.items() if e < 0)
    # num and den are coprime: set the slots, which every Python from 3.10
    # on has, since Fraction(num, den) would take their gcd all the same
    value = Fraction.__new__(Fraction)
    value._numerator, value._denominator = num, den
    return value


def singular_series(a: Poly, N: int, method: str = "euler-product") -> SingularSeriesApprox:
    """Twin-pair singular series for shift a, truncated at degree N.

    euler-product: product over monic irreducibles P with deg P <= N of
    (1 - |P|^-1)^-1 when P | a and 1 - (|P|-1)^-2 otherwise.  The generic
    factor only depends on deg P, so it enters as a power of the per-degree
    irreducible count and only the divisors of a are handled one by one.

    coefficient-sum: -(sum_{k<=N} k sum_{M monic deg k, (M,a)=1} mu(M)/phi(M)),
    which converges to the same limit with tail O((q-1)^-N).
    """
    if a.is_zero:
        raise ValueError("singular series needs a nonzero shift")
    if N < 1:
        raise ValueError("truncation degree must be >= 1")
    ctx = a.ctx
    q = ctx.q
    if method == "euler-product":
        by_degree: dict[int, int] = {}
        for prod, d, _ in distinct_degree_split(a.monic()):
            if d <= N:
                by_degree[d] = by_degree.get(d, 0) + prod.degree // d
        value = _euler_product(q, N, tuple(sorted(by_degree.items())))
    elif method == "coefficient-sum":
        total = Fraction(0)
        for k in range(1, N + 1):
            inner = Fraction(0)
            for M in monics(ctx, k):
                if gcd(M, a).degree != 0:
                    continue
                mu = mobius(M)
                if mu:
                    inner += Fraction(mu, euler_phi(M))
            total += k * inner
        value = -total
    else:
        raise ValueError(f"unknown method {method!r}")
    return SingularSeriesApprox(value, N, method)
