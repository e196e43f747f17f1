"""Exact arithmetic in GF(p^k) backed by lookup tables.

Elements are plain integers in [0, q): the base-p encoding of the
coefficient vector in the polynomial basis F_p[x]/(modulus), low digit
first.  A FieldCtx carries discrete-log, inverse and quadratic-character
tables and add/mul pair tables that answer x op y at index x * q + y:
flat lists of q*q entries for every field up to PAIR_TABLE_CAP, prime
fields included, and past it read-only objects that compute each entry
from the digits and the log tables.  It is immutable after construction,
so it can be shared freely across workers.
field_new interns contexts, so caches elsewhere key on the context itself.

Every finite field, GF(p^k) or a residue field F_q[T]/(P) of
characters.local_logs (through cyclic_group), is built one way from its
structure constants as an F_p-algebra (GF(p) is the 1 x 1 case): powers
of a multiplication matrix find the smallest primitive residue, doubling
fills its power table and one scatter its dlog.

The quadratic character is only defined for odd characteristic; p = 2
contexts support the generic ring operations but reject quad_char.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import FIELD_CACHE_SIZE, PAIR_TABLE_CAP, field_table_cap
from .errors import ResourceLimitError
from .poly import _digits, _index, _is_irreducible, _mod, _mul, _trim, monics

__all__ = ["FieldCtx", "field_new", "cyclic_group", "pair_tables", "structure_constants"]


def _int_factorization(n: int) -> dict[int, int]:
    """{prime: exponent} of n by trial division; {} for n < 2."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


class FieldCtx:
    """Immutable description of GF(p^k); see module docstring.

    Use :func:`field_new` to construct one.  Elements are ints; `coords`
    and `encode` convert to and from polynomial-basis coefficient vectors.
    """

    __slots__ = (
        "p",
        "k",
        "q",
        "modulus",
        "generator",
        "exp_table",
        "dlog_table",
        "quad_char_table",
        "inv_table",
        "neg_table",
        "add_table",
        "mul_table",
        "key",
    )

    def __init__(self, p, k, modulus, generator, exp_table, dlog_table,
                 quad_char_table, inv_table, neg_table, add_table, mul_table):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.generator = generator
        self.exp_table = exp_table
        self.dlog_table = dlog_table
        self.quad_char_table = quad_char_table
        self.inv_table = inv_table
        self.neg_table = neg_table
        # pair tables, x op y at index x * q + y, for prime and extension
        # fields alike: lists up to PAIR_TABLE_CAP, _DigitSums and
        # _LogProducts past it.  Read-only, like the other tables.
        self.add_table = add_table
        self.mul_table = mul_table
        self.key = (p, k, modulus)

    # -- conversions --------------------------------------------------

    def coords(self, x: int) -> tuple[int, ...]:
        """Polynomial-basis coefficient vector (length k, low first)."""
        return tuple(_digits(self.p, x, self.k))

    def encode(self, coords) -> int:
        return _index(self.p, [c % self.p for c in coords])

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    # -- arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a * self.q + b]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg_table[b])

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a * self.q + b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.inv_table[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 1 if e == 0 else 0
        return self.exp_table[(self.dlog_table[a] * e) % (self.q - 1)]

    def dlog(self, x: int) -> int:
        if x == 0:
            raise ValueError("discrete log of zero is undefined")
        return self.dlog_table[x]

    def quad_char(self, x: int) -> int:
        """The unique quadratic character: 0 at 0, +1 on squares, -1 otherwise."""
        if self.quad_char_table is None:
            raise ValueError("quadratic character requires odd characteristic")
        return self.quad_char_table[x]

    def frobenius(self, x: int) -> int:
        return self.pow(x, self.p)

    # -- misc -----------------------------------------------------------

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.k}), modulus={list(self.modulus)})"


class _DigitSums:
    """The add table of GF(p^k) past PAIR_TABLE_CAP: entry x * q + y is
    x + y, the base-p digits added mod p."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        self.p, self.q = p, q

    def __getitem__(self, i: int) -> int:
        a, b = divmod(i, self.q)
        p = self.p
        out = 0
        m = 1
        while a or b:
            out += (a + b) % p * m
            a //= p
            b //= p
            m *= p
        return out


class _LogProducts:
    """The mul table of GF(p^k) past PAIR_TABLE_CAP: entry x * q + y is
    exp[(dlog x + dlog y) % (q - 1)], and 0 when x or y is 0 (dlog -1)."""

    __slots__ = ("q", "exp", "dlog")

    def __init__(self, q: int, exp: list[int], dlog: list[int]):
        self.q, self.exp, self.dlog = q, exp, dlog

    def __getitem__(self, i: int) -> int:
        q, d = self.q, self.dlog
        a, b = d[i // q], d[i % q]
        if a < 0 or b < 0:
            return 0
        return self.exp[(a + b) % (q - 1)]


def structure_constants(ctx: FieldCtx, f: tuple[int, ...]) -> np.ndarray:
    """The F_p-algebra ctx[T]/(f), f monic of degree d >= 1, by its structure
    constants: B[i, j] holds the n = kd base-p digits of e_i e_j mod f, e_i
    the residue of index p^i (the coordinates of characters.digit_matrix).
    Multiplication by y is the matrix sum_l d(y)_l B[l] on digit rows, d(y)
    the digits of y's index."""
    p, q, d = ctx.p, ctx.q, len(f) - 1
    n = ctx.k * d
    basis = [_trim(_digits(q, p**i, d)) for i in range(n)]
    B = np.empty((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1):
            B[i, j] = B[j, i] = _digits(p, _index(q, _mod(ctx, _mul(ctx, basis[i], basis[j]), f)), n)
    return B


def _unit_group(p: int, B: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """The unit group of the F_p-algebra with structure constants B, if it
    is a field: its smallest primitive residue g in encoding order, the power
    table exp[i] = index of g^i for i < p^n - 1, and dlog, the inverse of
    exp, with dlog[0] = -1.  ValueError if the algebra is not a field."""
    n = len(B)
    order = p**n - 1
    pw = p ** np.arange(n, dtype=np.int64)
    one = np.eye(n, dtype=np.int64)

    def power(mat, e):  # the matrix of y^e, from the matrix of y
        out = one
        while e:
            if e & 1:
                out = out @ mat % p
            mat = mat @ mat % p
            e >>= 1
        return out

    ells = _int_factorization(order)
    # the loop always breaks: in a non-field of dimension >= 2 a nonzero
    # non-unit passes every test, and GF(2) breaks at g = 1
    for g in range(1, order + 1):
        mat = np.tensordot(g // pw % p, B, 1) % p
        if all((power(mat, order // ell) != one).any() for ell in ells):
            break
    # g passed the primitivity test, so g^order = 1 only if the units have
    # order p^n - 1, i.e. the algebra is a field
    if (power(mat, order) != one).any():
        raise ValueError("no primitive residue: the modulus is reducible")
    # doubling, exp[m:2m] = exp[:m] g^m, with mat the matrix of g^m; digit
    # rows are formed 2^16 at a time, so they never outweigh exp itself
    exp = np.empty(order, dtype=np.int64)
    exp[0] = 1
    m = 1
    while m < order:
        top = min(m, order - m)
        for s in range(0, top, 1 << 16):
            x = exp[s : min(s + (1 << 16), top)]
            exp[m + s : m + s + len(x)] = (x[:, None] // pw % p) @ mat % p @ pw
        mat = mat @ mat % p
        m += top
    dlog = np.full(order + 1, -1, dtype=np.int64)
    dlog[exp] = np.arange(order)
    return g, exp, dlog


def cyclic_group(ctx: FieldCtx, f: tuple[int, ...]) -> tuple[int, list[int], list[int]]:
    """The unit group of F = ctx[T]/(f), for f monic irreducible: the
    smallest primitive residue in encoding order (as a base-q index), its
    power table exp[i] = index of generator^i for i < |F| - 1, and dlog,
    the inverse of exp with dlog[0] = -1.  A reducible f raises ValueError."""
    g, exp, dlog = _unit_group(ctx.p, structure_constants(ctx, f))
    return g, exp.tolist(), dlog.tolist()


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def pair_tables(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """q x q numpy add/mul tables, built by broadcasting: addition digit by
    digit mod p, multiplication through the discrete-log tables.  Read-only,
    and memoised per interned context for the sieve; _build flattens an
    uncached copy into the context's list tables up to PAIR_TABLE_CAP, so
    fields past the sieve's reach keep no arrays."""
    q, p = ctx.q, ctx.p
    x = np.arange(q, dtype=np.int64)
    add = np.zeros((q, q), dtype=np.int64)
    for j in range(ctx.k):
        digit = (x // p**j) % p
        add += ((digit[:, None] + digit) % p) * p**j
    dlog = np.array(ctx.dlog_table, dtype=np.int64)
    exp = np.array(ctx.exp_table, dtype=np.int64)
    mul = exp[(dlog[:, None] + dlog) % (q - 1)]
    mul[0, :] = 0
    mul[:, 0] = 0
    add.setflags(write=False)
    mul.setflags(write=False)
    return add, mul


def field_new(p: int, k: int = 1, modulus=None) -> FieldCtx:
    """The GF(p^k) context.

    If `modulus` (low-to-high F_p coefficients, length k+1, monic) is
    omitted, the smallest monic irreducible of degree k in encoding order
    is chosen, so encodings are stable across runs.  Contexts are interned:
    the same (p, k, modulus), given or chosen, returns the same object while
    it stays among the last FIELD_CACHE_SIZE built.  Every call fails with
    ResourceLimitError once q exceeds the table cap (FFMOBIUS_TABLE_CAP),
    checked before p is tested for primality and before p^k is formed for
    a k past the cap's bit length.
    """
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    cap = field_table_cap()
    if p > cap or k > cap.bit_length() or p**k > cap:
        raise ResourceLimitError(f"q = {p}^{k} exceeds table cap {cap}")
    if _int_factorization(p) != {p: 1}:
        raise ValueError(f"characteristic {p} is not prime")
    if modulus is None:
        return _build(p, k, _default_modulus(p, k))
    mod = tuple(int(c) % p for c in modulus)
    if len(mod) != k + 1 or mod[-1] != 1:
        raise ValueError("modulus must be monic of degree k over GF(p)")
    return _build(p, k, mod)


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _default_modulus(p: int, k: int) -> tuple[int, ...]:
    if k == 1:
        return (0, 1)
    gfp = _build(p, 1, (0, 1))
    return next(f.coeffs for f in monics(gfp, k) if _is_irreducible(gfp, f.coeffs))


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _build(p: int, k: int, mod: tuple[int, ...]) -> FieldCtx:
    """GF(p^k) = F_p[x]/(mod), for mod monic of degree k; ValueError if
    mod is reducible."""
    if k == 1:
        structure = np.ones((1, 1, 1), dtype=np.int64)  # e_0 = 1 spans GF(p)
    else:
        gfp = _build(p, 1, (0, 1))
        if not _is_irreducible(gfp, mod):
            raise ValueError("modulus is reducible over GF(p)")
        structure = structure_constants(gfp, mod)
    generator, exp, dlog = _unit_group(p, structure)

    # x^-1 = g^-dlog(x), -x = g^(dlog(x) + dlog(-1)), (x/p) = (-1)^dlog(x);
    # the tables are lists of one pool of int objects, one per value below q
    q = p**k
    inv, neg = exp[-dlog % (q - 1)], exp[(dlog + dlog[p - 1]) % (q - 1)]
    inv[0] = neg[0] = 0
    pool = np.arange(q).astype(object)
    exp_table, dlog_table, inv_table, neg_table = (pool[t].tolist() for t in (exp, dlog, inv, neg))
    dlog_table[0] = -1
    quad_char_table = None if p == 2 else [0] + (1 - 2 * (dlog[1:] & 1)).tolist()

    ctx = FieldCtx(p, k, mod, generator, exp_table, dlog_table, quad_char_table, inv_table,
                   neg_table, _DigitSums(p, q), _LogProducts(q, exp_table, dlog_table))
    if q <= PAIR_TABLE_CAP:  # uncached: only the sieve keeps the arrays
        add, mul = pair_tables.__wrapped__(ctx)
        ctx.add_table, ctx.mul_table = pool[add.ravel()].tolist(), pool[mul.ravel()].tolist()
    return ctx

