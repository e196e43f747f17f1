"""Enumeration over all monic polynomials of one degree.

Monic degree-e polynomials are indexed by the base-q encoding of their low
coefficient vector, matching poly.monic_from_index.  On that index space:

- _affine_index gives the index of a + g*M for every monic g of degree e.
  Each digit of the result depends on at most deg M + 1 axes of the
  (q,)*e grid of g, so it is built there by broadcast gathers from the
  pair tables; the index is the sum of the digits times q^k.
- _sieve is one Eratosthenes-style pass per degree: it marks the multiples
  of every P^j with deg P <= d/2 and reads the prime mask, the Mobius
  table and the von Mangoldt table off what it recorded.
- progression_values is the one path every mu/Lambda sum over a
  progression takes: table gathers under the caps, one loop above them.

The tables are an optimization layer: results are cross-checked in the
test suite against the per-polynomial exact routes (discriminant Mobius,
factorization oracle).  Table kernels refuse to run above the configured
caps.  Tables are cached per interned field context.
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

_tables = functools.cache(pair_tables)


def bulk_available(ctx: FieldCtx, degree: int) -> bool:
    return ctx.q <= BULK_Q_CAP and ctx.q**degree <= BULK_SIZE_CAP


def _require(ctx: FieldCtx, degree: int):
    if not bulk_available(ctx, degree):
        raise ResourceLimitError(
            f"bulk kernel over {ctx.q}^{degree} monic polynomials exceeds the cap"
        )


def _affine_index(ctx: FieldCtx, a: tuple, M: tuple, e: int, d_out: int) -> np.ndarray:
    """Index of a + g*M in the degree-d_out monics, for every monic g of degree e.

    a and M are coefficient tuples, low first.  The g form a grid of shape
    (q,)*e with digit j on axis e-1-j, so C order is index order.  Digit k
    of the result, a_k + sum_i M_i g_{k-i} with g_e = 1, varies along at
    most deg M + 1 axes: it is built there by broadcast gathers from the
    pair tables, and the index is the sum of the digits times q^k.
    """
    q = ctx.q
    add2, mul2 = _tables(ctx)
    g = [np.arange(q).reshape((q,) + (1,) * j) for j in range(e)]
    terms = []
    for k in range(d_out):
        digit = a[k] if k < len(a) else 0
        for i, Mi in enumerate(M):
            j = k - i
            if Mi and 0 <= j <= e:
                digit = add2[digit, Mi if j == e else mul2[Mi][g[j]]]
        terms.append(np.asarray(digit, dtype=np.int64) * q**k)
    # summed inwards from both ends, each partial sum spans one more axis
    # than the last, so only the final addition touches all q^e entries
    h = (e + len(M)) // 2
    return np.ravel(sum(terms[:h]) + sum(reversed(terms[h:])))


@functools.cache
def _sieve(ctx: FieldCtx, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prime mask, mu as int8, Lambda as int16) over the monics of degree d.

    One pass marks every multiple of P^j for each prime P of degree <= d/2,
    recording the degree the small primes account for (sdeg), how many
    distinct ones divide f (omega), whether some P^2 divides f (square) and
    deg P (pdeg).  Whatever degree is left over is one large prime factor,
    so f is prime when sdeg == 0, and f = P^n exactly when a single small P
    accounts for all of it.
    """
    _require(ctx, d)
    n = ctx.q**d
    sdeg = np.zeros(n, dtype=np.int8)
    omega = np.zeros(n, dtype=np.int8)
    pdeg = np.zeros(n, dtype=np.int8)
    square = np.zeros(n, dtype=bool)
    for dp in range(1, d // 2 + 1):
        for pc in primes_of_degree(ctx, dp):
            power = (1,)
            for j in range(1, d // dp + 1):
                power = _poly_mul(ctx, power, pc)
                idx = _affine_index(ctx, (), power, d - j * dp, d)
                sdeg[idx] += dp
                if j == 1:
                    omega[idx] += 1
                    pdeg[idx] = dp
                elif j == 2:
                    square[idx] = True
    prime = sdeg == 0
    mu = np.where(square, 0, 1 - 2 * ((omega + (sdeg < d)) & 1)).astype(np.int8)
    lam = np.where(prime, d, np.where((omega == 1) & (sdeg == d), pdeg, 0)).astype(np.int16)
    return prime, mu, lam


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
    return d_out, _affine_index(ctx, a.coeffs, M.coeffs, e, d_out)


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
        out = vals if out is None else out * vals
    return out


def mobius_degree_sum(ctx: FieldCtx, d: int) -> int:
    """Exact sum of mu over all monics of degree d."""
    return int(progression_values(ctx, d, [("mu", Poly.zero(ctx), Poly.one(ctx))]).sum())


def lambda_degree_sum(ctx: FieldCtx, d: int) -> int:
    """Exact sum of the von Mangoldt function over monics of degree d."""
    return int(progression_values(ctx, d, [("lambda", Poly.zero(ctx), Poly.one(ctx))]).sum())
