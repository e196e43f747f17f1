"""Enumeration over all monic polynomials of one degree.

Monic degree-e polynomials are indexed by the base-q encoding of their low
coefficient vector, matching poly.monic_from_index.  On that index space:

- _affine_index gives the index of a + g*M for every monic g of degree e,
  for a batch of rows (a, M), the M of one degree.  A coefficient every
  row shares stays a scalar; any other lies on a leading row axis.  Each
  digit of the result depends on at most deg M + 1 axes of the (q,)*e
  grid of g, plus the row axis, so it is built there by broadcast gathers
  from the pair tables; the index is the sum of the digits times q^k.
- _sieve is one Eratosthenes-style pass per degree, in one byte per
  monic: it marks the multiples of every P with deg P <= d/2 in a uint8
  counter, slab by slab.  It caches two int8 tables, 2 bytes per monic:
  Mobius, a lookup of the counter, and von Mangoldt, decoded into the
  counter's own bytes, d where it is 0 (the primes) with deg P written at
  each pure power P^(d/deg P).  The multiples of each P^2 then clear mu.
  The prime mask is read off Lambda: Lambda = d only on primes.
- _index_slabs and _shift_slabs walk g in index order in slabs of at most
  _SLAB entries, with the top t digits of g fixed (t = 0 when q^e fits in
  a slab).  _index_slabs folds those digits into the offset of one kernel
  row per modulus and prefix, and sends as many rows per call as fit in a
  slab; for a shift a + g they pick which slab of the table to read, while
  the low digits of a permute within it.
- progression_slabs is the one path every mu/Lambda product over a
  progression takes: table gathers under the caps, one loop above them,
  slab by slab.  A shift a + g (M = 1, deg a < e) is read through a small
  permutation of the low digits with no index array; other terms gather
  through index slabs.  progression_sum adds the slabs up, reading one
  shift fewer when every term is a shift; every mu/Lambda sum over a
  degree calls it, the progression main term and mu against an additive
  character of the inverse included.  It checks every term before it
  picks a route, so the table gathers and the loop accept the same terms.

Apart from the cached tables, which a build holds from the start since the
counter becomes Lambda, every index array, gather and product has at most
_SLAB entries.  A kernel call whose rows differ in M also holds int64
digit terms of its full shape beside its result: the worst batch of a cold
GF(3) degree-14 build, 119 moduli, traces 6.7 MiB against a 2.0 MiB result.

The tables are an optimization layer: results are cross-checked in the
test suite against the per-polynomial exact routes (discriminant Mobius,
factorization oracle).  Table kernels refuse to run above the configured
caps.  Tables are read-only, and cached per interned field context and
degree in a cache bounded in bytes that evicts before it builds (_pair_cache).
"""

from __future__ import annotations

import collections
import functools
import itertools

import numpy as np

from .arith import mobius, von_mangoldt
from .config import BULK_Q_CAP, BULK_SIZE_CAP, SIEVE_CACHE_BYTES
from .errors import ResourceLimitError
from .field import FieldCtx, pair_tables
from .poly import Poly, _add, _digits, _index, _pow, _sub, _trim, monics
from .poly import _mul as _poly_mul

__all__ = [
    "bulk_available",
    "prime_mask",
    "primes_of_degree",
    "mobius_table",
    "lambda_table",
    "affine_index_map",
    "progression_slabs",
    "progression_sum",
    "mobius_degree_sum",
    "lambda_degree_sum",
]


# Entries per slab: the bound on every index array, gather and product the
# sieve and the progression sums build (2 MiB as int64).
_SLAB = 1 << 18


def bulk_available(ctx: FieldCtx, degree: int) -> bool:
    return degree >= 0 and ctx.q <= BULK_Q_CAP and ctx.q**degree <= BULK_SIZE_CAP


def _require(ctx: FieldCtx, degree: int):
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if not bulk_available(ctx, degree):
        raise ResourceLimitError(
            f"bulk kernel over {ctx.q}^{degree} monic polynomials exceeds the cap"
        )


def _affine_index(ctx: FieldCtx, rows: list, e: int, d_out: int) -> np.ndarray:
    """Index of a + g*M in the degree-d_out monics, for every monic g of degree e
    and every row (a, M) of rows, one block of q^e entries per row in order.

    a and M are coefficient tuples, low first; the M share one degree.  The
    g form a grid of shape (q,)*e with digit j on axis e-1-j, so C order is
    index order, and the rows add a leading axis.  A coefficient of a or M
    that every row shares stays a Python scalar, so mul2[Mi] and add2[a_k]
    are row views; any other coefficient lies on the row axis.  Digit k of
    the result, a_k + sum_i M_i g_{k-i} with g_e = 1, varies along at most
    deg M + 1 grid axes (and the row axis): it is built there by broadcast
    gathers from the pair tables, and the index is the sum of the digits
    times q^k.
    """
    q = ctx.q
    add2, mul2 = pair_tables(ctx)
    g = [np.arange(q).reshape((q,) + (1,) * j) for j in range(e)]

    def column(cs):  # one coefficient of every row: a scalar if they all share it
        return cs[0] if cs.count(cs[0]) == len(cs) else np.array(cs).reshape((-1,) + (1,) * e)

    As, Ms = zip(*rows)
    offsets = [column(cs) for cs in zip(*(a + (0,) * (d_out - len(a)) for a in As))]
    cols = [(i, c) for i, c in enumerate(map(column, zip(*Ms))) if isinstance(c, np.ndarray) or c]

    def term(k):  # digit k of the result times q^k
        digit = offsets[k]
        for i, Mi in cols:
            j = k - i
            if j == e:
                x = Mi
            elif 0 <= j < e:
                x = mul2[Mi, g[j]] if isinstance(Mi, np.ndarray) else mul2[Mi][g[j]]
            else:
                continue
            digit = add2[digit, x] if isinstance(digit, np.ndarray) else add2[digit][x]
        return np.asarray(digit, dtype=np.int64) * q**k

    # summed inwards from both ends, each partial sum spans one more axis
    # than the last, so only the final addition touches every entry; each
    # term is built when it is added and dropped right after
    h = (e + len(Ms[0])) // 2
    return np.ravel(sum(map(term, range(h))) + sum(map(term, reversed(range(h, d_out)))))


def _slab_split(q: int, e: int) -> tuple[int, int]:
    """(t, n): a slab over the monic g of degree e fixes the top t digits of
    g and runs over the other n = q^(e-t) <= _SLAB, in index order."""
    t = 0
    while t < e and q ** (e - t) > _SLAB:
        t += 1
    return t, q ** (e - t)


def _index_slabs(ctx: FieldCtx, a: tuple, Ms: list, e: int, d_out: int):
    """The index of a + g*M for every M of Ms and every monic g of degree e,
    M by M in index order of g, yielded in slabs of at most _SLAB entries.

    Each slab is one _affine_index call on _SLAB // n rows, n = q^(e-t) from
    _slab_split: one row per M and per monic G of degree t, the top t digits
    of g (G = 1 when t = 0).  With g = T^(e-t) G + h, deg h < e - t,

        a + g*M = (a + T^(e-t) (G - 1) M) + (T^(e-t) + h) M,

    the kernel at degree e - t with the fixed digits in the row's offset.
    """
    t, n = _slab_split(ctx.q, e)
    prefixes = [(0,) * (e - t) + _sub(ctx, G.coeffs, (1,)) for G in monics(ctx, t)]  # T^(e-t) (G - 1)
    rows = ((_add(ctx, a, _poly_mul(ctx, P, M)), M) for M in Ms for P in prefixes)
    for batch in iter(lambda: list(itertools.islice(rows, _SLAB // n)), []):
        yield _affine_index(ctx, batch, e - t, d_out)


def _pair_cache(build):
    """Least-recently-used memo of (ctx, d) -> (mu, Lambda) pairs in SIEVE_CACHE_BYTES.
    A miss drops the oldest pairs until the new pair's 2 q^d bytes fit, or none is
    left, then builds; the new pair is kept even if it alone does not fit."""
    pairs, info = collections.OrderedDict(), collections.Counter()

    def fit(size: int, keep: int):
        while len(pairs) > keep and info["bytes"] + size > SIEVE_CACHE_BYTES:
            info["bytes"] -= sum(t.nbytes for t in pairs.popitem(last=False)[1])
            info["evictions"] += 1

    @functools.wraps(build)  # cached.__wrapped__ is the uncached builder
    def cached(ctx: FieldCtx, d: int) -> tuple[np.ndarray, np.ndarray]:
        key = (ctx, d)
        if key in pairs:
            info["hits"] += 1
            pairs.move_to_end(key)
        else:
            info["misses"] += 1
            _require(ctx, d)  # before any eviction, and before q^d is taken
            fit(2 * ctx.q**d, 0)
            pairs[key] = cached.__wrapped__(ctx, d)
            info["bytes"] += 2 * ctx.q**d
            fit(0, 1)  # drop what nested builds of the primes added, never the new pair
        return pairs[key]

    cached.cache_clear = lambda: (pairs.clear(), info.clear())
    cached.cache_info = lambda: {k: info[k] for k in ("hits", "misses", "evictions", "bytes")}
    return cached


@_pair_cache
def _sieve(ctx: FieldCtx, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(mu, Lambda), both int8, over the monics of degree d, built in one
    byte per monic beside the mu table.

    Each prime P of degree <= d/2 adds deg P + 32 at its multiples in a
    uint8 counter: the low 5 bits hold sdeg, the summed degree of the distinct
    small primes dividing f, at most d <= 24 under BULK_SIZE_CAP, and the
    top 3 bits omega mod 8, their number.  The multiples of the primes of
    one degree go through _index_slabs, so no index array has more than
    _SLAB entries; moduli in one slab share multiples, so the hits are
    scattered with np.add.at.  Whatever degree the small primes leave is
    one large prime factor, so f is prime exactly when code = 0, and a
    squarefree f has mu = (-1)^(omega + [sdeg < d]), a lookup that needs
    only omega's parity.  Slab by slab, mu is gathered from it and Lambda
    is written over the counter's own bytes, d where code = 0, else 0; the
    one index of each pure power P^(d/deg P) then gets deg P, so Lambda = d
    marks exactly the primes.  Last, every multiple of a P^2 with
    2 deg P <= d, which is every f with a square factor, gets mu = 0
    through the same slabs.  The two tables are the only full-size
    arrays, and they are read-only.
    """
    code = np.zeros(ctx.q**d, dtype=np.uint8)
    pure = []  # (index, deg P) of each pure power P^(d/deg P)
    squares = []  # (deg P, the P^2 of that degree)
    for dp in range(1, d // 2 + 1):
        primes = primes_of_degree(ctx, dp)
        # a uint8 scalar, not a Python int, keeps ufunc.at on its fast path
        hit = np.uint8(dp + 32)
        for idx in _index_slabs(ctx, (), primes, d - dp, d):
            np.add.at(code, idx, hit)
            del idx  # freed before the next slab builds its own
        squares.append((dp, [_poly_mul(ctx, pc, pc) for pc in primes]))
        if d % dp == 0:
            pure += [(_index(ctx.q, _pow(ctx, pc, d // dp)[:d]), dp) for pc in primes]
    c = np.arange(256)
    lut = (1 - 2 * (((c >> 5) + (c % 32 < d)) & 1)).astype(np.int8)
    mu = np.empty(code.size, dtype=np.int8)
    for s in range(0, code.size, _SLAB):
        part = code[s:s + _SLAB]
        np.take(lut, part, out=mu[s:s + _SLAB])
        np.multiply(part == 0, np.uint8(d), out=part)
    for i, dp in pure:
        code[i] = dp
    for dp, powers in squares:
        for idx in _index_slabs(ctx, (), powers, d - 2 * dp, d):
            mu[idx] = 0
            del idx
    for t in mu, code:
        t.setflags(write=False)
    return mu, code.view(np.int8)  # a view of a read-only array is read-only


def prime_mask(ctx: FieldCtx, d: int) -> np.ndarray:
    """Read-only boolean mask over monics of degree d marking the
    irreducibles: Lambda == d, computed on each call."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    mask = _sieve(ctx, d)[1] == d
    mask.setflags(write=False)
    return mask


@functools.cache
def primes_of_degree(ctx: FieldCtx, d: int) -> list[tuple[int, ...]]:
    """Coefficient tuples of the monic irreducibles of degree d."""
    mask = prime_mask(ctx, d)
    return [tuple(_digits(ctx.q, int(idx), d)) + (1,) for idx in np.nonzero(mask)[0]]


def mobius_table(ctx: FieldCtx, d: int) -> np.ndarray:
    """mu over all monics of degree d, as int8."""
    return _sieve(ctx, d)[0]


def lambda_table(ctx: FieldCtx, d: int) -> np.ndarray:
    """von Mangoldt over all monics of degree d, as int8."""
    return _sieve(ctx, d)[1]


def _affine_degree(ctx: FieldCtx, a: Poly, M: Poly, e: int) -> int:
    """Degree of every a + g*M over the monic g of degree e, after checking
    that each is monic of that one degree."""
    if not M.is_monic:
        raise ValueError("M must be monic")
    m = M.degree
    da = a.degree if not a.is_zero else -1
    if da == e + m:
        raise ValueError("degree collision deg(a) = e + deg(M)")
    if da > e + m and a.lc != 1:
        raise ValueError("a must be monic when it dominates the degree")
    return max(da, e + m)


def affine_index_map(ctx: FieldCtx, a: Poly, M: Poly, e: int) -> tuple[int, np.ndarray]:
    """(degree, index array) of f = a + g*M over all monic g of degree e.

    Requires deg(a) != e + deg(M) and a monic result, so every f is monic of
    one fixed degree and indexes directly into the degree tables.  Nothing in
    the package calls it; it stays because it is the tests' public handle on
    the _affine_index kernel and the benchmark's span list names it
    (sieve.index_map_s).
    """
    _require(ctx, e)
    d_out = _affine_degree(ctx, a, M, e)
    _require(ctx, d_out)
    return d_out, _affine_index(ctx, [(a.coeffs, M.coeffs)], e, d_out)


def _digit_perm(ctx: FieldCtx, a: tuple) -> np.ndarray:
    """x -> index of a + x over the q^len(a) digit vectors x: digit k of
    a + x is add2[a_k, x_k]."""
    q = ctx.q
    add2 = pair_tables(ctx)[0]
    out = np.zeros(1, dtype=np.intp)
    for k, ak in enumerate(a):
        out = (add2[ak][:, None] * q**k + out).ravel()
    return out


def _shift_slabs(ctx: FieldCtx, values: np.ndarray, a: tuple, e: int):
    """values[index of a + g] for every monic g of degree e, yielded in the
    slabs of _slab_split(q, e), where values runs over the degree-e monics
    and len(a) <= e.

    a + g adds digit-wise.  A slab fixes the top t digits of g, so the top
    digits of a + g are fixed too: they pick the one slab of values to
    read.  The low digits of a permute within it, x -> index of a + x,
    along the last axis of the slab reshaped to (-1, q^s), s the number of
    low digits up to the last nonzero one; the permutation has at most
    q^(e-t) <= _SLAB entries.  Where a has no nonzero low digit the slab is
    a read-only view of values, and for a = 0 in one slab values itself.
    """
    t, n = _slab_split(ctx.q, e)
    a = tuple(a) + (0,) * (e - len(a))
    low = _trim(list(a[:e - t]))
    perm = _digit_perm(ctx, low) if low else None
    for s in (_digit_perm(ctx, a[e - t:]) * n).tolist() if t else [0]:
        slab = values[s:s + n] if t else values
        yield slab if perm is None else np.take(slab.reshape(-1, perm.size), perm, axis=1).ravel()


def _is_shift(e: int, a: Poly, M: Poly) -> bool:
    return M.coeffs == (1,) and a.degree < e


def _term_slabs(ctx: FieldCtx, e: int, table, a: Poly, M: Poly, deg: int):
    """F(a + g*M) over the monic g of degree e in the slabs of
    _slab_split(q, e), for the sieve table F and deg the degree of a + g*M:
    a shift through _shift_slabs, any other term through _index_slabs,
    each index slab cut back into those slabs once it is gathered."""
    if _is_shift(e, a, M):
        return _shift_slabs(ctx, table(ctx, e), a.coeffs, e)
    values, n = table(ctx, deg), _slab_split(ctx.q, e)[1]
    # map holds no index slab once it is gathered, so the next term builds its own alone
    gathered = map(values.__getitem__, _index_slabs(ctx, a.coeffs, [M.coeffs], e, deg))
    return (v[s:s + n] for v in gathered for s in range(0, v.size, n))


def progression_slabs(ctx: FieldCtx, e: int, terms):
    """prod_i F_i(a_i + g M_i) over the monic g of degree e, yielded in
    slabs of at most _SLAB entries that run through g in index order.

    terms lists (kind, a, M) with kind "mu" or "lambda" and M monic; each
    a + g*M must be monic of one degree, which _affine_degree checks for
    every term before either route runs.  Within the caps every factor is
    read slab by slab from the sieve tables: a shift (M = 1, deg a < e)
    through the low-digit permutation of _shift_slabs, any other term
    through the index slabs of _index_slabs.  Above the caps one loop
    evaluates mobius or von_mangoldt per polynomial, stopping at the first
    zero factor, and yields int64 slabs.

    Within the caps the product is int8, like both tables: |mu| <= 1 and
    Lambda <= 24, the largest degree under BULK_SIZE_CAP.  A second Lambda
    factor widens it to int16 (twin_count's Lambda*Lambda reaches 24^2),
    where a third still fits (24^3 < 2^15); a fourth widens it to int64.
    A one-term slab may be a read-only view of a cached table; otherwise
    the factors are multiplied into a slab this call owns, never into a
    cached table.
    """
    if e < 0:
        raise ValueError("degree must be >= 0")
    # looked up per call, so wrappers installed on the module attributes see these calls
    routes = {"mu": (mobius_table, mobius), "lambda": (lambda_table, von_mangoldt)}
    degrees = [_affine_degree(ctx, a, M, e) for _, a, M in terms]
    if not all(bulk_available(ctx, deg) for deg in [e, *degrees]):
        factors = [(routes[kind][1], a, M) for kind, a, M in terms]
        gs = monics(ctx, e)
        for s in range(0, ctx.q**e, _SLAB):
            out = np.zeros(min(_SLAB, ctx.q**e - s), dtype=np.int64)
            for i, g in zip(range(out.size), gs):
                value = 1
                for fn, a, M in factors:
                    value *= fn(a + g * M)
                    if value == 0:
                        break
                out[i] = value
            yield out
        return
    lambdas = sum(kind == "lambda" for kind, _, _ in terms)
    dtype = np.int8 if lambdas < 2 else np.int16 if lambdas < 4 else np.int64
    reads = [_term_slabs(ctx, e, routes[kind][0], a, M, deg) for (kind, a, M), deg in zip(terms, degrees)]
    for first, *rest in zip(*reads, strict=True):  # every term walks the same slabs
        out = first
        for vals in rest:
            if not out.flags.writeable or out.dtype != dtype:  # a cached table, or int8
                out = out.astype(dtype)
            np.multiply(out, vals, out=out)
        yield out


def progression_sum(ctx: FieldCtx, e: int, terms) -> int:
    """Exact integer sum of prod_i F_i(a_i + g M_i) over the monic g of
    degree e, added up slab by slab from progression_slabs.

    When every term is a shift a_i + g (M = 1, deg a_i < e), the sum runs
    over x = g + a_1 instead, which meets every monic of degree e once:
    the first table is then read as cached, last, and the others through
    shifts by a_i - a_1, so a correlation of n shifts reads n - 1.
    """
    if all(_is_shift(e, a, M) for _, a, M in terms):
        (kind, a1, one), rest = terms[0], terms[1:]
        terms = [(k, a - a1, M) for k, a, M in rest] + [(kind, Poly.zero(ctx), one)]
    return sum(int(vals.sum()) for vals in progression_slabs(ctx, e, terms))


def mobius_degree_sum(ctx: FieldCtx, d: int) -> int:
    """Exact sum of mu over all monics of degree d."""
    return progression_sum(ctx, d, [("mu", Poly.zero(ctx), Poly.one(ctx))])


def lambda_degree_sum(ctx: FieldCtx, d: int) -> int:
    """Exact sum of the von Mangoldt function over monics of degree d."""
    return progression_sum(ctx, d, [("lambda", Poly.zero(ctx), Poly.one(ctx))])
