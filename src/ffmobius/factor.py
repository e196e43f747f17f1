"""Factorization over GF(q): squarefree split, distinct-degree split,
then equal-degree (Cantor-Zassenhaus) splitting.

This is the brute-force oracle the arithmetic functions are checked
against.  The deterministic distinct_degree_split, the product of the
primes of each degree and multiplicity, is all that mu, Lambda, phi, d_2,
rad, rad1, the Jacobi oracle and the other degree-only answers read.  Only
factor runs equal-degree splitting, for the callers that need the primes
named: divisors, the moduli of characters and the residue logs of the
interval sums.  It draws from a stream seeded by (CZ_SEED, input encoding)
on its first draw, so every factorization is reproducible and independent
of call order; degree-1 parts are split by root scan, with no randomness.
factor and distinct_degree_split are memoised by the polynomial in LRUs
bounded by config.FACTOR_CACHE_SIZE, so the routes that ask about the same
polynomial factor or split it once; arith.inverse_mod,
characters.quadratic_character_mod, poly._frobenius and
experiments._pair_histogram share that bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .config import CZ_SEED, FACTOR_CACHE_SIZE
from .field import FieldCtx
from .poly import (
    Poly,
    gcd,
    monics,
    poly_index,
)
from .poly import (  # tuple kernels
    _deriv, _divmod, _frob, _frobenius, _gcd, _is_irreducible, _mod, _pow_qsum, _trim,
)

__all__ = [
    "Factorization",
    "factor",
    "distinct_degree_split",
    "is_irreducible",
    "irreducibles",
    "rad",
    "rad1",
    "divisors",
    "divisor_count",
    "pth_root",
]


@dataclass(frozen=True)
class Factorization:
    """leading * prod(P**e) over monic irreducible P, sorted canonically."""

    leading: int
    factors: tuple[tuple[Poly, int], ...]

    def reconstruct(self, ctx: FieldCtx) -> Poly:
        out = Poly.constant(ctx, self.leading)
        for prime, mult in self.factors:
            out = out * prime**mult
        return out

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


def pth_root(f: Poly) -> Poly:
    """The g with g^p = f, for f whose derivative vanishes."""
    ctx = f.ctx
    step = ctx.p
    root_exp = ctx.p ** (ctx.k - 1)  # c -> c^(q/p) inverts Frobenius
    coeffs = []
    for i in range(0, len(f.coeffs), step):
        coeffs.append(ctx.pow(f.coeffs[i], root_exp) if f.coeffs[i] else 0)
    return Poly(ctx, coeffs)


def _squarefree_parts(f: Poly) -> dict[Poly, int]:
    """Map of pairwise-coprime monic squarefree parts to multiplicities,
    with prod part^mult = f.  Standard characteristic-p routine with
    p-th-root descent for vanishing derivatives."""
    ctx = f.ctx
    result: dict[Poly, int] = {}
    n = 1
    while f.degree >= 1:
        fp = _deriv(ctx, f.coeffs)
        if not fp:
            f = pth_root(f)
            n *= ctx.p
            continue
        g = _gcd(ctx, f.coeffs, fp)
        if g == (1,):  # f is squarefree, the common case
            result[f] = n
            break
        g = Poly._raw(ctx, g)
        w = f // g
        i = 1
        while w.degree >= 1:
            y = gcd(w, g)
            z = w // y
            if z.degree >= 1:
                result[z] = result.get(z, 0) + i * n
            i += 1
            w = y
            g = g // y
        f = g
    return result


def _ddf(f: Poly) -> list[tuple[Poly, int]]:
    """Distinct-degree split of a monic squarefree f: list of (product of
    all irreducible factors of degree d, d)."""
    ctx = f.ctx
    out = []
    fc = f.coeffs
    h = (0, 1)
    d = 1
    rows = _frobenius(ctx, fc) if len(fc) > 2 else ()
    while len(fc) - 1 >= 2 * d:
        # h = T^(q^d) mod fc; the rows of f serve because fc divides f
        h = _frob(ctx, h, rows)
        diff = list(h)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = ctx.sub(diff[1], 1)
        g = _gcd(ctx, fc, _trim(diff))
        if len(g) > 1:
            out.append((Poly._raw(ctx, g), d))
            fc = _divmod(ctx, fc, g)[0]
            h = _mod(ctx, h, fc)
        d += 1
    if len(fc) > 1:
        out.append((Poly._raw(ctx, fc), len(fc) - 1))
    return out


def _split_linear(f: Poly) -> list[Poly]:
    """All monic linear factors of f (which is a product of linears)."""
    ctx = f.ctx
    roots = [x for x in range(ctx.q) if f(x) == 0]
    assert len(roots) == f.degree
    return [Poly(ctx, (ctx.neg_table[r], 1)) for r in sorted(roots)]


def _draws(f: Poly):
    """Uniform field elements from the stream of monic f, seeded by
    (CZ_SEED, field, encoding of f) on the first draw: most factorizations
    draw nothing."""
    ctx = f.ctx
    rng = random.Random(f"{CZ_SEED}:{ctx.key}:{poly_index(f)}")
    while True:
        yield rng.randrange(ctx.q)


def _edf(f: Poly, d: int, draws) -> list[Poly]:
    """Equal-degree split: f monic squarefree, every factor of degree d."""
    ctx = f.ctx
    n = f.degree
    if n == d:
        return [f]
    if d == 1:
        return _split_linear(f)
    q = ctx.q
    stack = [f]
    out = []
    while stack:
        g = stack.pop()
        if g.degree == d:
            out.append(g)
            continue
        while True:
            r = Poly(g.ctx, [next(draws) for _ in range(g.degree)])
            if r.degree < 1:
                continue
            if q % 2:  # r^((q^d - 1) / 2) - 1
                s = Poly._raw(ctx, _pow_qsum(ctx, r.coeffs, (q - 1) // 2, d, g.coeffs)) - Poly.one(ctx)
            else:
                # Characteristic 2: use the trace map sum r^(2^i).
                s = Poly.zero(ctx)
                t = r
                for _ in range(d * ctx.k):
                    s = (s + t) % g
                    t = (t * t) % g
            h = gcd(s, g)
            if 0 < h.degree < g.degree:
                stack.append(h)
                stack.append(g // h)
                break
    out.sort(key=Poly.sort_key)
    return out


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def factor(f: Poly) -> Factorization:
    """Factor nonzero f into monic irreducibles with multiplicities.

    Memoised by f (its field key and coefficients): the last
    FACTOR_CACHE_SIZE distinct inputs are kept, so a polynomial that several
    routes ask about is factored once."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    leading = f.lc
    fm = f.monic()
    if fm.degree == 0:
        return Factorization(leading, ())
    draws = _draws(fm)
    found = [(prime, mult) for prod, d, mult in distinct_degree_split(fm) for prime in _edf(prod, d, draws)]
    found.sort(key=lambda pe: pe[0].sort_key())
    return Factorization(leading, tuple(found))


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def distinct_degree_split(f: Poly) -> tuple[tuple[Poly, int, int], ...]:
    """(P, d, e) triples for monic f: P is the product of the irreducible
    factors of degree d that divide f exactly e times, so f is the product
    of the P^e and P has deg(P) / d prime factors.  No equal-degree
    splitting runs.  Memoised like factor."""
    if not f.is_monic:
        raise ValueError("distinct-degree split needs a monic polynomial")
    parts = _squarefree_parts(f)
    return tuple((prod, d, mult) for part, mult in parts.items() for prod, d in _ddf(part))


def is_irreducible(f: Poly) -> bool:
    """Independent irreducibility check: no factor of degree <= deg(f)/2,
    via gcd(T^(q^j) - T, f)."""
    return _is_irreducible(f.ctx, f.coeffs)


def irreducibles(ctx: FieldCtx, d: int):
    """Monic irreducibles of degree d, in encoding order."""
    for f in monics(ctx, d):
        if is_irreducible(f):
            yield f


def rad(f: Poly) -> Poly:
    """Product of the distinct monic irreducible divisors of f."""
    if f.is_zero:
        raise ValueError("rad of zero is undefined")
    out = Poly.one(f.ctx)
    for prod, _, _ in distinct_degree_split(f.monic()):
        out = out * prod
    return out


def rad1(f: Poly) -> Poly:
    """Product of the monic irreducible divisors of odd multiplicity."""
    if f.is_zero:
        raise ValueError("rad1 of zero is undefined")
    out = Poly.one(f.ctx)
    for prod, _, mult in distinct_degree_split(f.monic()):
        if mult % 2:
            out = out * prod
    return out


def divisors(f: Poly) -> list[Poly]:
    """All monic divisors of nonzero f, canonically sorted."""
    out = [Poly.one(f.ctx)]
    for prime, mult in factor(f).factors:
        grown = []
        power = Poly.one(f.ctx)
        for _ in range(mult + 1):
            grown.extend(d * power for d in out)
            power = power * prime
        out = grown
    out.sort(key=Poly.sort_key)
    return out


def divisor_count(f: Poly) -> int:
    """Number of monic divisors (the d_2 function)."""
    n = 1
    for prod, d, mult in distinct_degree_split(f.monic()):
        n *= (mult + 1) ** (prod.degree // d)
    return n
