"""Exact arithmetic in GF(p^k) backed by lookup tables.

Elements are plain integers in [0, q): the base-p encoding of the
coefficient vector in the polynomial basis F_p[x]/(modulus), low digit
first.  A FieldCtx carries discrete-log, inverse and quadratic-character
tables (plus flat q*q add/mul pair tables for small extension fields) and
is immutable after construction, so it can be shared freely across workers.

The quadratic character is only defined for odd characteristic; p = 2
contexts support the generic ring operations but reject quad_char.
"""

from __future__ import annotations

from .config import PAIR_TABLE_CAP, field_table_cap
from .errors import ResourceLimitError

__all__ = ["FieldCtx", "field_new", "quad_char", "dlog"]


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


# ---------------------------------------------------------------------------
# Polynomial helpers over the prime field F_p (coefficient lists, low first).
# Only used during context construction; everything later runs on tables.
# ---------------------------------------------------------------------------


def _pp_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pp_trim(out)


def _pp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and a:
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - db
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - factor * bj) % p
        _pp_trim(a)
    return a


def _pp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pp_rem(a, b, p)
    return a


def _pp_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _pp_rem(a, mod, p)
    while e:
        if e & 1:
            result = _pp_rem(_pp_mul(result, base, p), mod, p)
        base = _pp_rem(_pp_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _pp_is_irreducible(f: list[int], p: int) -> bool:
    """Degree-n f over F_p is irreducible iff it has no factor of degree
    <= n/2, detected through gcd(x^(p^j) - x, f) for j = 1..n//2."""
    n = len(f) - 1
    if n <= 0:
        return False
    h = [0, 1] if n > 1 else []
    if n == 1:
        return True
    for _ in range(n // 2):
        h = _pp_powmod(h, p, f, p)
        diff = list(h)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        if len(_pp_gcd(f, _pp_trim(diff), p)) != 1:
            return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k over F_p in encoding order of the
    low coefficient vector."""
    if k == 1:
        return (0, 1)
    for low in range(p**k):
        coeffs = []
        v = low
        for _ in range(k):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        if _pp_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


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
        out = []
        for _ in range(self.k):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def encode(self, coords) -> int:
        x = 0
        for c in reversed(list(coords)):
            x = x * self.p + c % self.p
        return x

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


def field_new(p: int, k: int = 1, modulus=None, table_cap: int | None = None) -> FieldCtx:
    """Build a GF(p^k) context.

    If `modulus` (low-to-high F_p coefficients, length k+1, monic) is
    omitted, the smallest monic irreducible of degree k in encoding order
    is chosen, so encodings are stable across runs.  Construction fails
    with ResourceLimitError once q exceeds the configured table cap.
    """
    if not _is_prime_int(p):
        raise ValueError(f"characteristic {p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    cap = table_cap if table_cap is not None else field_table_cap()
    q = p**k
    if q > cap:
        raise ResourceLimitError(f"q = {q} exceeds table cap {cap}")

    if modulus is None:
        mod = _smallest_irreducible(p, k)
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree k over GF(p)")
        if not _pp_is_irreducible(list(mod), p):
            raise ValueError("modulus is reducible over GF(p)")

    mod_list = list(mod)

    def decode(x: int) -> list[int]:
        out = []
        for _ in range(k):
            out.append(x % p)
            x //= p
        return out

    def encode(c: list[int]) -> int:
        x = 0
        for v in reversed(c):
            x = x * p + v
        return x

    def emul(a: int, b: int) -> int:
        prod = _pp_rem(_pp_mul(_pp_trim(decode(a)), _pp_trim(decode(b)), p), mod_list, p)
        prod += [0] * (k - len(prod))
        return encode(prod)

    def epow(a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = emul(r, a)
            a = emul(a, a)
            e >>= 1
        return r

    # Smallest primitive element in encoding order.
    if q == 2:
        generator = 1
    else:
        order_primes = _int_prime_factors(q - 1)
        generator = None
        for cand in range(2, q):
            if all(epow(cand, (q - 1) // ell) != 1 for ell in order_primes):
                generator = cand
                break
        if generator is None:
            raise AssertionError("no primitive element found")  # unreachable

    exp_table = [1] * (q - 1)
    for i in range(1, q - 1):
        exp_table[i] = emul(exp_table[i - 1], generator)
    dlog_table = [-1] * q
    for i, v in enumerate(exp_table):
        dlog_table[v] = i

    inv_table = [0] * q
    for x in range(1, q):
        inv_table[x] = exp_table[(q - 1 - dlog_table[x]) % (q - 1)]

    neg_table = [0] * q
    for x in range(q):
        neg_table[x] = encode([(-c) % p for c in decode(x)])

    quad_char_table = None
    if p != 2:
        quad_char_table = [0] * q
        for x in range(1, q):
            quad_char_table[x] = 1 if dlog_table[x] % 2 == 0 else -1

    add_table = None
    mul_table = None
    if k > 1 and q <= PAIR_TABLE_CAP:
        digits = [decode(x) for x in range(q)]
        add_table = [0] * (q * q)
        for a in range(q):
            da = digits[a]
            row = a * q
            for b in range(q):
                db = digits[b]
                add_table[row + b] = encode([(da[i] + db[i]) % p for i in range(k)])
        mul_table = [0] * (q * q)
        for a in range(1, q):
            la = dlog_table[a]
            row = a * q
            for b in range(1, q):
                mul_table[row + b] = exp_table[(la + dlog_table[b]) % (q - 1)]

    return FieldCtx(p, k, mod, generator, exp_table, dlog_table,
                    quad_char_table, inv_table, neg_table, add_table, mul_table)


def quad_char(ctx: FieldCtx, x: int) -> int:
    return ctx.quad_char(x)


def dlog(ctx: FieldCtx, x: int) -> int:
    return ctx.dlog(x)
