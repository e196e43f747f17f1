"""Exact arithmetic in GF(p^k) backed by lookup tables.

Elements are plain integers in [0, q): the base-p encoding of the
coefficient vector in the polynomial basis F_p[x]/(modulus), low digit
first.  A FieldCtx carries discrete-log, inverse and quadratic-character
tables (plus flat q*q add/mul pair tables for small extension fields) and
is immutable after construction, so it can be shared freely across workers.
field_new interns contexts, so caches elsewhere key on the context itself.

Every finite field is built one way: GF(p^k) for k > 1 and the residue
fields F_q[T]/(P) of characters.local_logs both take their smallest
primitive residue and its power table from cyclic_group, which runs on
the poly tuple kernels over the base field.

The quadratic character is only defined for odd characteristic; p = 2
contexts support the generic ring operations but reject quad_char.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import FIELD_CACHE_SIZE, PAIR_TABLE_CAP, field_table_cap
from .errors import ResourceLimitError
from .poly import _digits, _index, _is_irreducible, _mod, _mul, _powmod, _trim

__all__ = ["FieldCtx", "field_new", "cyclic_group", "pair_tables"]


def _is_prime_int(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _int_prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
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
        # flat pair tables, x op y at index x * q + y; None when k = 1 or
        # q > PAIR_TABLE_CAP.  Read-only, like the other tables.
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
        t = self.add_table
        if t is not None:
            return t[a * self.q + b]
        if self.k == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        m = 1
        while a or b:
            out += ((a + b) % p) * m
            a //= p
            b //= p
            m *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg_table[b])

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        t = self.mul_table
        if t is not None:
            return t[a * self.q + b]
        if self.k == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        d = self.dlog_table
        return self.exp_table[(d[a] + d[b]) % (self.q - 1)]

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

    def trace_to_prime(self, x: int) -> int:
        """Field trace down to F_p, returned as an int in [0, p)."""
        acc = 0
        y = x
        for _ in range(self.k):
            acc = self.add(acc, y)
            y = self.frobenius(y)
        return acc  # lands in the prime subfield, encoded as its own value

    # -- misc -----------------------------------------------------------

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.k}), modulus={list(self.modulus)})"


def cyclic_group(ctx: FieldCtx, f: tuple[int, ...]) -> tuple[int, list[int]]:
    """The unit group of F = ctx[T]/(f), for f monic irreducible: the
    smallest primitive residue in encoding order (as a base-q index) and its
    power table, exp[i] = index of generator^i for i < |F| - 1.  A
    reducible f raises ValueError."""
    q, d = ctx.q, len(f) - 1
    order = q**d - 1
    ells = _int_prime_factors(order)
    one = (1,)
    for idx in range(1, order + 1):
        g = _trim(_digits(q, idx, d))
        if all(_powmod(ctx, g, order // ell, f) != one for ell in ells):
            break
    else:
        raise ValueError("no primitive residue: the modulus is reducible")
    exp = [1] * order
    acc = one
    for i in range(1, order):
        acc = _mod(ctx, _mul(ctx, g, acc), f)
        exp[i] = _index(q, acc)
    # g passed the primitivity test, so g^order = 1 only if the units have
    # order q^d - 1, i.e. f is irreducible
    if _mod(ctx, _mul(ctx, g, acc), f) != one:
        raise ValueError("no primitive residue: the modulus is reducible")
    return idx, exp


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def pair_tables(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """q x q numpy add/mul tables, built by broadcasting: addition digit by
    digit mod p, multiplication through the discrete-log tables.  Memoised
    per interned context, like the contexts themselves, and read-only."""
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
    ResourceLimitError once q exceeds the table cap (FFMOBIUS_TABLE_CAP).
    """
    if not _is_prime_int(p):
        raise ValueError(f"characteristic {p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    cap = field_table_cap()
    q = p**k
    if q > cap:
        raise ResourceLimitError(f"q = {q} exceeds table cap {cap}")
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
    return next(f for f in (tuple(_digits(p, low, k)) + (1,) for low in range(p**k))
                if _is_irreducible(gfp, f))


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _build(p: int, k: int, mod: tuple[int, ...]) -> FieldCtx:
    """GF(p^k) = F_p[x]/(mod), for mod monic of degree k; ValueError if
    mod is reducible."""
    q = p**k
    if k == 1:
        # GF(p) is the integers mod p: no base field to run cyclic_group over
        ells = _int_prime_factors(p - 1)
        generator = next(g for g in range(1, p) if all(pow(g, (p - 1) // ell, p) != 1 for ell in ells))
        exp_table = [1] * (p - 1)
        for i in range(1, p - 1):
            exp_table[i] = exp_table[i - 1] * generator % p
    else:
        gfp = _build(p, 1, (0, 1))
        if not _is_irreducible(gfp, mod):
            raise ValueError("modulus is reducible over GF(p)")
        generator, exp_table = cyclic_group(gfp, mod)

    dlog_table = [-1] * q
    for i, v in enumerate(exp_table):
        dlog_table[v] = i

    inv_table = [0] * q
    for x in range(1, q):
        inv_table[x] = exp_table[(q - 1 - dlog_table[x]) % (q - 1)]

    # -x = (-1) * x, and -1 is the constant p - 1
    neg_one = dlog_table[p - 1]
    neg_table = [0] * q
    for x in range(1, q):
        neg_table[x] = exp_table[(dlog_table[x] + neg_one) % (q - 1)]

    quad_char_table = None
    if p != 2:
        quad_char_table = [0] * q
        for x in range(1, q):
            quad_char_table[x] = 1 if dlog_table[x] % 2 == 0 else -1

    ctx = FieldCtx(p, k, mod, generator, exp_table, dlog_table,
                   quad_char_table, inv_table, neg_table, None, None)
    if k > 1 and q <= PAIR_TABLE_CAP:
        add, mul = pair_tables(ctx)
        ctx.add_table, ctx.mul_table = add.ravel().tolist(), mul.ravel().tolist()
    return ctx

