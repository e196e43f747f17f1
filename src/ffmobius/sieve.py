"""Enumeration over all monic polynomials of one degree.

Monic degree-e polynomials are indexed by the base-q encoding of their low
coefficient vector, matching poly.monic_from_index.  On top of that index
space this module provides an Eratosthenes-style sieve (irreducibility
masks, Mobius and von Mangoldt value tables), affine index maps
g -> a + g*M, and progression_values, the one path every mu/Lambda sum over
a progression takes: a few numpy gathers under the caps, one loop over the
monic polynomials above them.

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
from .poly import Poly, _digits, _index, monics
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
_columns: dict = {}


def bulk_available(ctx: FieldCtx, degree: int) -> bool:
    return ctx.q <= BULK_Q_CAP and ctx.q**degree <= BULK_SIZE_CAP


def _require(ctx: FieldCtx, degree: int):
    if not bulk_available(ctx, degree):
        raise ResourceLimitError(
            f"bulk kernel over {ctx.q}^{degree} monic polynomials exceeds the cap"
        )


def _digit_columns(ctx: FieldCtx, e: int) -> list[np.ndarray]:
    """Digit j of arange(q^e), for j < e."""
    hit = _columns.get((ctx, e))
    if hit is not None:
        return hit
    q = ctx.q
    idx = np.arange(q**e, dtype=np.int64)
    cols = [(idx // q**j) % q for j in range(e)]
    # only small widths are worth keeping around: e = 13 over GF(3) is 160 MB
    if e <= 6:
        _columns[(ctx, e)] = cols
    return cols


def _mul_fixed_monic(ctx: FieldCtx, a_coeffs: tuple[int, ...], e: int) -> np.ndarray:
    """Index of A*B over all monic B of degree e, A monic fixed."""
    q = ctx.q
    da = len(a_coeffs) - 1
    if e == 0:
        return np.array([_index(q, a_coeffs[:da])], dtype=np.int64)
    add2, mul2 = _tables(ctx)
    digs = _digit_columns(ctx, e)
    n = q**e
    out_digits = [None] * (da + e)
    for i, ai in enumerate(a_coeffs):
        if ai == 0:
            continue
        row = mul2[ai]
        for ip in range(e + 1):
            j = i + ip
            if j >= da + e:
                continue  # the leading 1*1 term is implicit in monic indexing
            contrib = row[digs[ip]] if ip < e else np.full(n, ai, dtype=np.int64)
            cur = out_digits[j]
            out_digits[j] = contrib.copy() if cur is None else add2[cur, contrib]
    idx = np.zeros(n, dtype=np.int64)
    for j in range(da + e):
        col = out_digits[j]
        if col is not None:
            idx += col * q**j
    return idx


@functools.cache
def prime_mask(ctx: FieldCtx, d: int) -> np.ndarray:
    """Boolean mask over monics of degree d marking the irreducibles."""
    _require(ctx, d)
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d == 1:
        return np.ones(ctx.q, dtype=bool)
    composite = np.zeros(ctx.q**d, dtype=bool)
    for dp in range(1, d // 2 + 1):
        for pc in primes_of_degree(ctx, dp):
            composite[_mul_fixed_monic(ctx, pc, d - dp)] = True
    return ~composite


@functools.cache
def primes_of_degree(ctx: FieldCtx, d: int) -> list[tuple[int, ...]]:
    """Coefficient tuples of the monic irreducibles of degree d."""
    mask = prime_mask(ctx, d)
    return [tuple(_digits(ctx.q, int(idx), d)) + (1,) for idx in np.nonzero(mask)[0]]


@functools.cache
def mobius_table(ctx: FieldCtx, d: int) -> np.ndarray:
    """mu over all monics of degree d, as int8, via the factor-counting sieve.

    Primes of degree <= d/2 are marked with multiplicity; any residual
    degree not accounted for must be a single large prime factor.
    """
    _require(ctx, d)
    if d == 0:
        return np.array([1], dtype=np.int8)
    n = ctx.q**d
    nonsq = np.zeros(n, dtype=bool)
    omega = np.zeros(n, dtype=np.int8)
    sdeg = np.zeros(n, dtype=np.int8)
    for dp in range(1, d // 2 + 1):
        for pc in primes_of_degree(ctx, dp):
            power = pc
            j = 1
            while j * dp <= d:
                idx = _mul_fixed_monic(ctx, power, d - j * dp)
                sdeg[idx] += dp
                if j == 1:
                    omega[idx] += 1
                elif j == 2:
                    nonsq[idx] = True
                j += 1
                if j * dp <= d:
                    power = _poly_mul(ctx, power, pc)
    total_omega = omega + (sdeg < d)
    return np.where(nonsq, 0, 1 - 2 * (total_omega & 1)).astype(np.int8)


@functools.cache
def lambda_table(ctx: FieldCtx, d: int) -> np.ndarray:
    """von Mangoldt over all monics of degree d, as int16."""
    _require(ctx, d)
    if d == 0:
        return np.array([0], dtype=np.int16)
    table = np.zeros(ctx.q**d, dtype=np.int16)
    table[prime_mask(ctx, d)] = d
    for dp in range(1, d // 2 + 1):
        if d % dp:
            continue
        npow = d // dp
        for pc in primes_of_degree(ctx, dp):
            power = pc
            for _ in range(npow - 1):
                power = _poly_mul(ctx, power, pc)
            table[_index(ctx.q, power[:d])] = dp
    return table


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
    q = ctx.q
    add2, _ = _tables(ctx)
    if m == 0:
        out = np.arange(q**e, dtype=np.int64)
    else:
        out = _mul_fixed_monic(ctx, M.coeffs, e)
    if e + m < d_out:
        out = out + q ** (e + m)  # the product's leading 1 is a real digit here
    # fold in a's digits below the output leading coefficient, position by
    # position; each adjustment stays inside its own digit, so no carries
    for j in range(min(len(a.coeffs), d_out)):
        aj = a.coeffs[j]
        if aj:
            step = q**j
            digit = (out // step) % q
            out = out + (add2[digit, aj] - digit) * step
    return d_out, out


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
