"""Enumeration over all monic polynomials of one degree.

Monic degree-e polynomials are indexed by the base-q encoding of their low
coefficient vector, matching poly.monic_from_index.  On that index space:

- _affine_index gives the index of a + g*M for every monic g of degree e,
  for a batch of moduli M of one degree.  Each digit of the result
  depends on at most deg M + 1 axes of the (q,)*e grid of g, plus the
  batch axis, so it is built there by broadcast gathers from the pair
  tables; the index is the sum of the digits times q^k.
- _sieve is one Eratosthenes-style pass per degree: it marks the multiples
  of every P^j with deg P <= d/2 in one packed int16 counter, the primes
  of one degree together in batches of at most q^(d-1) entries, and
  decodes the prime mask, the Mobius table and the von Mangoldt table
  from it by table lookup.
- progression_values is the one path every mu/Lambda sum over a
  progression takes: table gathers under the caps, one loop above them.

The tables are an optimization layer: results are cross-checked in the
test suite against the per-polynomial exact routes (discriminant Mobius,
factorization oracle).  Table kernels refuse to run above the configured
caps.  Tables are cached per interned field context and read-only.
"""

from __future__ import annotations

import functools

import numpy as np

from .arith import mobius, von_mangoldt
from .config import BULK_Q_CAP, BULK_SIZE_CAP
from .errors import ResourceLimitError
from .field import FieldCtx, pair_tables
from .poly import Poly, _digits, monics
from .poly import _mul as _poly_mul

__all__ = [
    "bulk_available",
    "prime_mask",
    "primes_of_degree",
    "mobius_table",
    "lambda_table",
    "affine_index_map",
    "progression_values",
    "mobius_degree_sum",
    "lambda_degree_sum",
]


def bulk_available(ctx: FieldCtx, degree: int) -> bool:
    return ctx.q <= BULK_Q_CAP and ctx.q**degree <= BULK_SIZE_CAP


def _require(ctx: FieldCtx, degree: int):
    if not bulk_available(ctx, degree):
        raise ResourceLimitError(
            f"bulk kernel over {ctx.q}^{degree} monic polynomials exceeds the cap"
        )


def _affine_index(ctx: FieldCtx, a: tuple, Ms: list, e: int, d_out: int) -> np.ndarray:
    """Index of a + g*M in the degree-d_out monics, for every monic g of degree e
    and every M of Ms, one block of q^e entries per M in list order.

    a and the M are coefficient tuples, low first; the M share one degree.
    The g form a grid of shape (q,)*e with digit j on axis e-1-j, so C order
    is index order, and a batch of several M adds a leading axis.  Digit k
    of the result, a_k + sum_i M_i g_{k-i} with g_e = 1, varies along at
    most deg M + 1 grid axes (and the batch axis): it is built there by
    broadcast gathers from the pair tables, and the index is the sum of the
    digits times q^k.
    """
    q = ctx.q
    add2, mul2 = pair_tables(ctx)
    g = [np.arange(q).reshape((q,) + (1,) * j) for j in range(e)]
    single = len(Ms) == 1
    if single:  # Python scalars: mul2[Mi] is a row view, so one gather per digit
        cols = [(i, c) for i, c in enumerate(Ms[0]) if c]
    else:  # coefficient i of every M, on the batch axis
        cols = [(i, c.reshape((-1,) + (1,) * e)) for i, c in enumerate(np.array(Ms).T) if c.any()]
    terms = []
    for k in range(d_out):
        digit = a[k] if k < len(a) else 0
        for i, Mi in cols:
            j = k - i
            if j == e:
                x = Mi
            elif 0 <= j < e:
                x = mul2[Mi][g[j]] if single else mul2[Mi, g[j]]
            else:
                continue
            # a scalar digit gathers from its row view, not by a mixed index
            digit = add2[digit, x] if isinstance(digit, np.ndarray) else add2[digit][x]
        terms.append(np.asarray(digit, dtype=np.int64) * q**k)
    # summed inwards from both ends, each partial sum spans one more axis
    # than the last, so only the final addition touches every entry
    h = (e + len(Ms[0])) // 2
    return np.ravel(sum(terms[:h]) + sum(reversed(terms[h:])))


@functools.cache
def _sieve(ctx: FieldCtx, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prime mask, mu as int8, Lambda as int16) over the monics of degree d.

    One pass marks every multiple of P^j for each prime P of degree <= d/2.
    The primes of one degree go through _affine_index in batches of
    q^(d-1-deg P^j) moduli, so no batch has more than q^(d-1) entries (the
    size of the multiples of one linear prime).  One int16 counter per f
    packs, with b = d + 1,

        code = sdeg + b*omega + b^2*Omega

    where sdeg is the degree the small primes account for, omega the number
    of distinct ones dividing f and Omega that number with multiplicity: a
    hit of P^j adds deg P + b^2, plus b when j = 1.  Moduli in one batch
    share multiples, so the hits are scattered with np.add.at.  Whatever
    degree is left over is one large prime factor, so the three tables are
    gathers from lookup tables over the (d+1)^3 codes: f is prime when
    sdeg = 0; mu(f) = 0 when Omega > omega, else the parity of the factor
    count; Lambda(f) = d on primes, and d // Omega when one small P covers
    the whole degree (f = P^Omega).  The tables are read-only.
    """
    _require(ctx, d)
    q, b = ctx.q, d + 1
    # every degree is at most 24 under BULK_SIZE_CAP, so code < 25^3 < 2^15
    code = np.zeros(q**d, dtype=np.int16)
    for dp in range(1, d // 2 + 1):
        primes = primes_of_degree(ctx, dp)
        powers = [(1,)] * len(primes)
        for j in range(1, d // dp + 1):
            powers = [_poly_mul(ctx, w, pc) for w, pc in zip(powers, primes)]
            e = d - j * dp
            step = q ** (d - 1 - e)
            for s in range(0, len(powers), step):
                idx = _affine_index(ctx, (), powers[s:s + step], e, d)
                # an int16 scalar, not a Python int, keeps ufunc.at on its fast path
                np.add.at(code, idx, np.int16(dp + b * b + (b if j == 1 else 0)))
    c = np.arange(b**3)
    sdeg, omega, Omega = c % b, c // b % b, c // (b * b)
    prime = sdeg == 0
    mu = np.where(Omega > omega, 0, 1 - 2 * ((omega + (sdeg < d)) & 1)).astype(np.int8)
    lam = np.where(prime, d, np.where((omega == 1) & (sdeg == d), d // np.maximum(Omega, 1), 0))
    tables = prime[code], mu[code], lam.astype(np.int16)[code]
    for t in tables:
        t.setflags(write=False)
    return tables


def prime_mask(ctx: FieldCtx, d: int) -> np.ndarray:
    """Boolean mask over monics of degree d marking the irreducibles."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return _sieve(ctx, d)[0]


@functools.cache
def primes_of_degree(ctx: FieldCtx, d: int) -> list[tuple[int, ...]]:
    """Coefficient tuples of the monic irreducibles of degree d."""
    mask = prime_mask(ctx, d)
    return [tuple(_digits(ctx.q, int(idx), d)) + (1,) for idx in np.nonzero(mask)[0]]


def mobius_table(ctx: FieldCtx, d: int) -> np.ndarray:
    """mu over all monics of degree d, as int8."""
    return _sieve(ctx, d)[1]


def lambda_table(ctx: FieldCtx, d: int) -> np.ndarray:
    """von Mangoldt over all monics of degree d, as int16."""
    return _sieve(ctx, d)[2]


def affine_index_map(ctx: FieldCtx, a: Poly, M: Poly, e: int) -> tuple[int, np.ndarray]:
    """(degree, index array) of f = a + g*M over all monic g of degree e.

    Requires deg(a) != e + deg(M) and a monic result, so every f is monic of
    one fixed degree and indexes directly into the degree tables.
    """
    _require(ctx, e)
    if not M.is_monic:
        raise ValueError("M must be monic")
    m = M.degree
    da = a.degree if not a.is_zero else -1
    if da == e + m:
        raise ValueError("degree collision deg(a) = e + deg(M)")
    d_out = max(da, e + m)
    if da > e + m and a.lc != 1:
        raise ValueError("a must be monic when it dominates the degree")
    _require(ctx, d_out)
    return d_out, _affine_index(ctx, a.coeffs, [M.coeffs], e, d_out)


def progression_values(ctx: FieldCtx, e: int, terms) -> np.ndarray:
    """prod_i F_i(a_i + g M_i) for every monic g of degree e, in index order.

    terms lists (kind, a, M) with kind "mu" or "lambda" and M monic; each
    a + g*M must be monic of one degree.  Within the caps every factor is
    a gather from the sieve tables; above them one loop evaluates mobius
    or von_mangoldt per polynomial, stopping at the first zero factor.
    """
    # looked up per call, so wrappers installed on the module attributes see these calls
    routes = {"mu": (mobius_table, mobius), "lambda": (lambda_table, von_mangoldt)}
    factors = [(*routes[kind], a, M) for kind, a, M in terms]
    if not (bulk_available(ctx, e) and all(
            bulk_available(ctx, max(a.degree, e + M.degree)) for _, a, M in terms)):
        out = np.zeros(ctx.q**e, dtype=np.int64)
        for i, g in enumerate(monics(ctx, e)):
            value = 1
            for _, fn, a, M in factors:
                value *= fn(a + g * M)
                if value == 0:
                    break
            out[i] = value
        return out
    # products stay in the tables' int8/int16: under BULK_SIZE_CAP every
    # degree is at most 24, so |mu| <= 1 and the two Lambda factors of
    # twin_count give |product| <= 24^2; even three stay below 2^15
    out = None
    for table, _, a, M in factors:
        if a.is_zero and M.degree == 0:
            vals = table(ctx, e)
        else:
            deg, idx = affine_index_map(ctx, a, M, e)
            vals = table(ctx, deg)[idx]
            del idx  # freed before the next term builds its own index array
        out = vals if out is None else out * vals
    return out


def mobius_degree_sum(ctx: FieldCtx, d: int) -> int:
    """Exact sum of mu over all monics of degree d."""
    return int(progression_values(ctx, d, [("mu", Poly.zero(ctx), Poly.one(ctx))]).sum())


def lambda_degree_sum(ctx: FieldCtx, d: int) -> int:
    """Exact sum of the von Mangoldt function over monics of degree d."""
    return int(progression_values(ctx, d, [("lambda", Poly.zero(ctx), Poly.one(ctx))]).sum())
