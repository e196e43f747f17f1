"""Full factorization over GF(q): squarefree split, distinct-degree split,
then equal-degree (Cantor-Zassenhaus) splitting.

This is the brute-force oracle the arithmetic functions are checked
against.  Equal-degree splitting draws its randomness from a stream
seeded by (CZ_SEED, input encoding) on its first draw, so every
factorization is reproducible and independent of call order; degree-1
parts are split by root scan instead, which needs no randomness at all.
Results are memoised in a bounded LRU (config.FACTOR_CACHE_SIZE), so the
routes that ask about the same polynomial factor it once.
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
from .poly import _deriv, _divmod, _gcd, _is_irreducible, _mod, _powmod, _trim  # tuple kernels

__all__ = [
    "Factorization",
    "factor",
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

    @property
    def omega(self) -> int:
        """Number of distinct irreducible factors."""
        return len(self.factors)


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
    fp = _deriv(ctx, f.coeffs)
    if fp and _gcd(ctx, f.coeffs, fp) == (1,):
        return {f: 1}  # already squarefree, the common case
    p = ctx.p
    result: dict[Poly, int] = {}
    n = 1
    while f.degree >= 1:
        fp = f.derivative()
        if fp.is_zero:
            f = pth_root(f)
            n *= p
            continue
        g = gcd(f, fp)
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
    q = ctx.q
    out = []
    fc = f.coeffs
    h = (0, 1)
    d = 1
    while len(fc) - 1 >= 2 * d:
        h = _powmod(ctx, h, q, fc)  # T^(q^d) mod fc
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
    exponent = (q**d - 1) // 2 if q % 2 else None
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
            if q % 2:
                s = r.powmod(exponent, g) - Poly.one(ctx)
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


def factor(f: Poly) -> Factorization:
    """Factor nonzero f into monic irreducibles with multiplicities.

    Memoised per field and coefficient tuple: the last FACTOR_CACHE_SIZE
    distinct inputs are kept, so a polynomial that several routes ask about
    is factored once."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    return _factor(f.ctx, f.coeffs)


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _factor(ctx, coeffs) -> Factorization:
    f = Poly._raw(ctx, coeffs)
    leading = f.lc
    fm = f.monic()
    if fm.degree == 0:
        return Factorization(leading, ())
    draws = _draws(fm)
    found: list[tuple[Poly, int]] = []
    for part, mult in _squarefree_parts(fm).items():
        for prod, d in _ddf(part):
            for prime in _edf(prod, d, draws):
                found.append((prime, mult))
    found.sort(key=lambda pe: pe[0].sort_key())
    return Factorization(leading, tuple(found))


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
    for prime, _ in factor(f).factors:
        out = out * prime
    return out


def rad1(f: Poly) -> Poly:
    """Product of the monic irreducible divisors of odd multiplicity."""
    if f.is_zero:
        raise ValueError("rad1 of zero is undefined")
    out = Poly.one(f.ctx)
    for prime, mult in factor(f).factors:
        if mult % 2:
            out = out * prime
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
    for _, mult in factor(f).factors:
        n *= mult + 1
    return n
