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

from dataclasses import dataclass
from fractions import Fraction

from .factor import distinct_degree_split, factor
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
    """deg(P) when f = P^n for an irreducible P, else 0."""
    if f.is_zero or not f.is_monic:
        raise ValueError("von Mangoldt is defined on monic nonzero polynomials")
    fac = factor(f)
    if fac.omega != 1:
        return 0
    return fac.factors[0][0].degree


def euler_phi(M: Poly) -> int:
    """Number of units of F_q[T]/(M)."""
    if M.is_zero:
        raise ValueError("euler_phi of zero is undefined")
    q = M.ctx.q
    out = 1
    for prime, mult in factor(M).factors:
        np = q**prime.degree
        out *= np ** (mult - 1) * (np - 1)
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
    """(f/g) through the factorization of g and the Euler criterion in each
    residue field; the independent check for :func:`jacobi`."""
    ctx = g.ctx
    if ctx.p == 2:
        raise ValueError("Jacobi symbol needs odd q")
    if g.is_zero or g.degree < 1:
        raise ValueError("Jacobi symbol needs nonconstant denominator")
    out = 1
    for prime, mult in factor(g).factors:
        r = f % prime
        if r.is_zero:
            return 0
        if mult % 2 == 0:
            continue
        # r^((q^deg P - 1) / 2) mod P
        s = _pow_qsum(ctx, r.coeffs, (ctx.q - 1) // 2, prime.degree, prime.coeffs)
        if s == (1,):
            continue
        if s == (ctx.neg_table[1],):
            out = -out
        else:  # pragma: no cover - would mean a broken residue field
            raise AssertionError("Euler criterion value outside {1,-1}")
    return out


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
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def _irreducible_count(q: int, n: int) -> int:
    """Monic irreducibles of degree n over GF(q), by necklace counting."""
    total = 0
    for j in range(1, n + 1):
        if n % j == 0:
            total += _mobius_int(j) * q ** (n // j)
    return total // n


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
        for prime, _ in factor(a).factors:
            if prime.degree <= N:
                by_degree[prime.degree] = by_degree.get(prime.degree, 0) + 1
        num = 1
        den = 1
        for d in range(1, N + 1):
            npow = q**d
            dividing = by_degree.get(d, 0)
            generic = _irreducible_count(q, d) - dividing
            if dividing:
                num *= npow**dividing
                den *= (npow - 1) ** dividing
            if generic:
                base = (npow - 1) ** 2
                num *= (base - 1) ** generic
                den *= base**generic
        value = Fraction(num, den)
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
