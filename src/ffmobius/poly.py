"""Dense exact polynomial arithmetic over GF(q).

A Poly is an immutable coefficient tuple (low degree first, no trailing
zeros) bound to a FieldCtx.  The zero polynomial has an empty tuple and
degree minus infinity, so degree comparisons against integers behave the
way the minus-infinity convention demands without sentinel integers.

Hot paths (factorization, resultants, exhaustive sweeps) run on the
module-private tuple kernels; Poly methods are thin wrappers over them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING

from .config import FACTOR_CACHE_SIZE

if TYPE_CHECKING:  # field builds its tables on these kernels
    from .field import FieldCtx

__all__ = [
    "NEG_INF",
    "Poly",
    "gcd",
    "ext_gcd",
    "resultant",
    "discriminant",
    "is_squarefree",
    "monics",
    "polys_below",
    "poly_index",
    "poly_from_index",
    "monic_from_index",
    "parse_poly",
    "format_poly",
]

NEG_INF = float("-inf")  # degree of the zero polynomial


# ---------------------------------------------------------------------------
# Tuple kernels.  Coefficients are element ints; tuples carry no trailing 0.
# ---------------------------------------------------------------------------


def _trim(c: list[int]) -> tuple[int, ...]:
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


# _add, _mul, _mod and _frob run on one of two paths, for prime and
# extension fields alike: the flat pair tables (x op y at x * q + y) for
# fields up to PAIR_TABLE_CAP, and the FieldCtx methods beyond that.


def _add(ctx, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    if ctx.add_table is not None:
        at, q = ctx.add_table, ctx.q
        for i, v in enumerate(b):
            out[i] = at[out[i] * q + v]
    else:
        add = ctx.add
        for i, v in enumerate(b):
            out[i] = add(out[i], v)
    return _trim(out)


def _neg(ctx, a):
    neg = ctx.neg_table
    return tuple(neg[v] for v in a)


def _sub(ctx, a, b):
    return _add(ctx, a, _neg(ctx, b))


def _scale(ctx, a, c):
    if c == 0:
        return ()
    if c == 1:
        return a
    mul = ctx.mul
    return tuple(mul(v, c) for v in a)


def _mul(ctx, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    nz = [(j, bj) for j, bj in enumerate(b) if bj]
    mt = ctx.mul_table
    if mt is not None:
        at, q = ctx.add_table, ctx.q
        for i, ai in enumerate(a):
            if ai:
                row = ai * q
                for j, bj in nz:
                    j += i
                    out[j] = at[out[j] * q + mt[row + bj]]
    else:
        mul, add = ctx.mul, ctx.add
        for i, ai in enumerate(a):
            if ai:
                for j, bj in nz:
                    j += i
                    out[j] = add(out[j], mul(ai, bj))
    return _trim(out)


def _mod(ctx, a, b, quo=None):
    """a mod b.  Given quo, a zero list of len(a) - len(b) + 1 entries, the
    quotient coefficients are written into it.  Each step removes c * b_j
    from the remainder for every nonzero low coefficient b_j by adding
    (-c) * b_j, with c negated once per step."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return a
    db = len(b) - 1
    if db == 0 and quo is None:
        return ()
    rem = list(a)
    inv_lead = ctx.inv_table[b[-1]]
    shifts = range(len(a) - 1 - db, -1, -1)
    low = b[:db]
    neg = ctx.neg_table
    mt = ctx.mul_table
    if mt is not None:
        at, q = ctx.add_table, ctx.q
        for shift in shifts:
            c = rem[shift + db]
            if c:
                if inv_lead != 1:
                    c = mt[c * q + inv_lead]
                if quo is not None:
                    quo[shift] = c
                row = neg[c] * q
                for j, bj in enumerate(low, shift):
                    if bj:
                        rem[j] = at[rem[j] * q + mt[row + bj]]
    else:
        mul, add = ctx.mul, ctx.add
        for shift in shifts:
            c = rem[shift + db]
            if c:
                if inv_lead != 1:
                    c = mul(c, inv_lead)
                if quo is not None:
                    quo[shift] = c
                nc = neg[c]
                for j, bj in enumerate(low, shift):
                    if bj:
                        rem[j] = add(rem[j], mul(nc, bj))
    return _trim(rem[:db])


def _divmod(ctx, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    quo = [0] * (len(a) - len(b) + 1)
    rem = _mod(ctx, a, b, quo)
    return _trim(quo), rem


def _monic(ctx, a):
    if not a or a[-1] == 1:
        return a
    return _scale(ctx, a, ctx.inv(a[-1]))


def _gcd(ctx, a, b):
    while b:
        a, b = b, _mod(ctx, a, b)
    return _monic(ctx, a)


def _ext_gcd(ctx, a, b):
    """Returns (g, u, v) with u*a + v*b = g and g monic (or zero)."""
    r0, r1 = a, b
    u0, u1 = (1,), ()
    v0, v1 = (), (1,)
    while r1:
        q, r = _divmod(ctx, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _sub(ctx, u0, _mul(ctx, q, u1))
        v0, v1 = v1, _sub(ctx, v0, _mul(ctx, q, v1))
    if r0 and r0[-1] != 1:
        c = ctx.inv(r0[-1])
        r0, u0, v0 = _scale(ctx, r0, c), _scale(ctx, u0, c), _scale(ctx, v0, c)
    return r0, u0, v0


def _deriv(ctx, a):
    if len(a) <= 1:
        return ()
    p = ctx.p
    mul = ctx.mul
    out = []
    for i in range(1, len(a)):
        s = i % p
        out.append(mul(a[i], s) if s else 0)
    return _trim(out)


def _eval(ctx, a, x):
    add = ctx.add
    mul = ctx.mul
    acc = 0
    for c in reversed(a):
        acc = add(mul(acc, x), c)
    return acc


def _powmod(ctx, a, e, mod):
    """a^e mod mod by left-to-right binary powering: start from a itself at
    the top bit, so no step multiplies by 1 or squares past the last bit."""
    base = _mod(ctx, a, mod)
    if e == 0:
        return _mod(ctx, (1,), mod)
    result = base
    for bit in bin(e)[3:]:
        result = _mod(ctx, _mul(ctx, result, result), mod)
        if bit == "1":
            result = _mod(ctx, _mul(ctx, result, base), mod)
    return result


# The Frobenius map h -> h^q mod f is F_q-linear, since c^q = c on GF(q):
# with the rows T^(q*i) mod f for i < deg f, h^q mod f is the row
# combination sum h_i * row_i, one pass over a deg f x deg f matrix in place
# of the log q mulmods of _powmod (Berlekamp's Q-matrix; von zur Gathen &
# Gerhard, Modern Computer Algebra, ch. 14).  Every q-power of the
# factorization oracle runs on these.


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _frobenius(ctx, f):
    """The rows R_i = T^(q*i) mod f, i < n = deg f, as a tuple.  R_i is
    T^q * R_(i-1) mod f, built the cheaper way: shifting by q and reducing
    costs about q*n coefficient operations a row, multiplying by R_1 = T^q
    mod f about 2n^2 a row plus 4n^2 log2(q) once for R_1 itself."""
    n = len(f) - 1
    if n < 1:
        return ()
    q = ctx.q
    row = (1,)
    rows = [row]
    if (q - 2 * n) * (n - 1) < 4 * n * q.bit_length():
        shift = (0,) * q
        for _ in range(1, n):
            if row:
                row = _mod(ctx, shift + row, f)
            rows.append(row)
    else:
        r1 = _powmod(ctx, (0, 1), q, f)
        for _ in range(1, n):
            row = _mod(ctx, _mul(ctx, row, r1), f)
            rows.append(row)
    return tuple(rows)


def _frob(ctx, h, rows):
    """h^q mod f for h reduced mod f, given rows = _frobenius(ctx, f)."""
    out = [0] * len(rows)
    mt = ctx.mul_table
    if mt is not None:
        at, q = ctx.add_table, ctx.q
        for hi, row in zip(h, rows):
            if hi:
                base = hi * q
                for j, rj in enumerate(row):
                    if rj:
                        out[j] = at[out[j] * q + mt[base + rj]]
    else:
        mul, add = ctx.mul, ctx.add
        for hi, row in zip(h, rows):
            if hi:
                for j, rj in enumerate(row):
                    if rj:
                        out[j] = add(out[j], mul(hi, rj))
    return _trim(out)


def _pow_qsum(ctx, a, c, d, f):
    """a^(c * (q^d - 1) / (q - 1)) mod f for d >= 1.  The exponent is
    c * (1 + q + ... + q^(d-1)), so with b = a^c mod f Horner's rule
    s <- s^q * b takes d - 1 Frobenius steps and products."""
    b = _powmod(ctx, a, c, f)
    s = b
    if d > 1:
        rows = _frobenius(ctx, f)
        for _ in range(d - 1):
            s = _mod(ctx, _mul(ctx, _frob(ctx, s, rows), b), f)
    return s


def _is_irreducible(ctx, f):
    """Degree-n f is irreducible iff it has no factor of degree <= n/2,
    detected through gcd(T^(q^j) - T, f) for j = 1..n//2."""
    n = len(f) - 1
    if n < 2:
        return n == 1
    t = (0, 1)
    h = t
    rows = _frobenius(ctx, f)
    for _ in range(n // 2):
        h = _frob(ctx, h, rows)
        if len(_gcd(ctx, f, _sub(ctx, h, t))) != 1:
            return False
    return True


def _pow(ctx, a, e):
    result = (1,)
    base = a
    while e:
        if e & 1:
            result = _mul(ctx, result, base)
        e >>= 1
        if e:  # no square past the top bit
            base = _mul(ctx, base, base)
    return result


# ---------------------------------------------------------------------------
# Public wrapper.
# ---------------------------------------------------------------------------


class Poly:
    """Immutable dense polynomial over a FieldCtx."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        self.ctx = ctx
        c = _trim(list(coeffs))
        for v in c:
            if not 0 <= v < ctx.q:
                raise ValueError(f"coefficient {v} outside GF({ctx.q}) encoding range")
        self.coeffs = c

    @classmethod
    def _raw(cls, ctx, coeffs: tuple[int, ...]) -> "Poly":
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj.coeffs = coeffs
        return obj

    @classmethod
    def zero(cls, ctx) -> "Poly":
        return cls._raw(ctx, ())

    @classmethod
    def one(cls, ctx) -> "Poly":
        return cls._raw(ctx, (1,))

    @classmethod
    def t(cls, ctx) -> "Poly":
        """The variable T."""
        return cls._raw(ctx, (0, 1))

    @classmethod
    def constant(cls, ctx, c: int) -> "Poly":
        return cls._raw(ctx, (c,) if c else ())

    # -- structure ------------------------------------------------------

    @property
    def degree(self):
        """int for nonzero, minus infinity for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def norm(self) -> int:
        """q^deg, and 0 for the zero polynomial."""
        return self.ctx.q ** (len(self.coeffs) - 1) if self.coeffs else 0

    def _check(self, other: "Poly"):
        if self.ctx.key != other.ctx.key:
            raise ValueError("polynomials belong to different fields")

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return Poly._raw(self.ctx, _add(self.ctx, self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return Poly._raw(self.ctx, _sub(self.ctx, self.coeffs, other.coeffs))

    def __neg__(self):
        return Poly._raw(self.ctx, _neg(self.ctx, self.coeffs))

    def __mul__(self, other):
        self._check(other)
        return Poly._raw(self.ctx, _mul(self.ctx, self.coeffs, other.coeffs))

    def __divmod__(self, other):
        self._check(other)
        q, r = _divmod(self.ctx, self.coeffs, other.coeffs)
        return Poly._raw(self.ctx, q), Poly._raw(self.ctx, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        self._check(other)
        return Poly._raw(self.ctx, _mod(self.ctx, self.coeffs, other.coeffs))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        return Poly._raw(self.ctx, _pow(self.ctx, self.coeffs, e))

    def scale(self, c: int) -> "Poly":
        return Poly._raw(self.ctx, _scale(self.ctx, self.coeffs, c))

    def monic(self) -> "Poly":
        return Poly._raw(self.ctx, _monic(self.ctx, self.coeffs))

    def derivative(self) -> "Poly":
        return Poly._raw(self.ctx, _deriv(self.ctx, self.coeffs))

    def __call__(self, x: int) -> int:
        return _eval(self.ctx, self.coeffs, x)

    def powmod(self, e: int, mod: "Poly") -> "Poly":
        self._check(mod)
        return Poly._raw(self.ctx, _powmod(self.ctx, self.coeffs, e, mod.coeffs))

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ctx.key == other.ctx.key
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.key, self.coeffs))

    def __repr__(self):
        return f"Poly({format_poly(self)})"

    def sort_key(self) -> tuple:
        """Canonical order: by degree, then base-q encoding (leading included)."""
        return (len(self.coeffs), poly_index(self))


def gcd(f: Poly, g: Poly) -> Poly:
    f._check(g)
    return Poly._raw(f.ctx, _gcd(f.ctx, f.coeffs, g.coeffs))


def ext_gcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    f._check(g)
    r, u, v = _ext_gcd(f.ctx, f.coeffs, g.coeffs)
    return Poly._raw(f.ctx, r), Poly._raw(f.ctx, u), Poly._raw(f.ctx, v)


def _resultant(ctx, a, b):
    """Res(a, b) = lc(a)^deg(b) * prod b(alpha) over roots alpha of a."""
    res = 1
    mul = ctx.mul
    while True:
        da, db = len(a) - 1, len(b) - 1
        if da == 0:
            return mul(res, ctx.pow(a[0], db))
        if db == 0:
            return mul(res, ctx.pow(b[0], da))
        r = _mod(ctx, a, b)
        if not r:
            return 0
        dr = len(r) - 1
        factor = ctx.pow(b[-1], da - dr)
        if (da * db) % 2:
            factor = ctx.neg_table[factor]
        res = mul(res, factor)
        a, b = b, r


def resultant(g: Poly, f: Poly) -> int:
    """Res(g, f): the determinant-convention resultant, computed by the
    Euclidean remainder chain with leading-coefficient tracking.

    Zero iff gcd(g, f) is nonconstant.
    """
    g._check(f)
    if g.is_zero or f.is_zero:
        raise ValueError("resultant requires both arguments nonzero")
    return _resultant(g.ctx, g.coeffs, f.coeffs)


def discriminant(f: Poly) -> int:
    """Disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f); 0 when f' = 0 or f has
    a repeated root."""
    n = f.degree
    if f.is_zero or n < 1:
        raise ValueError("discriminant requires degree >= 1")
    ctx = f.ctx
    fp = _deriv(ctx, f.coeffs)
    if not fp:
        return 0
    res = _resultant(ctx, f.coeffs, fp)
    if res == 0:
        return 0
    val = ctx.div(res, f.coeffs[-1])
    if (n * (n - 1) // 2) % 2 and ctx.p != 2:
        val = ctx.neg_table[val]
    return val


def is_squarefree(f: Poly) -> bool:
    """True iff no irreducible square divides f (constants are squarefree)."""
    if f.is_zero:
        raise ValueError("squarefree test requires nonzero input")
    if f.degree == 0:
        return True
    ctx = f.ctx
    fp = _deriv(ctx, f.coeffs)
    if not fp:
        return False
    return len(_gcd(ctx, f.coeffs, fp)) == 1


# ---------------------------------------------------------------------------
# Enumeration and the canonical base-q index.
# ---------------------------------------------------------------------------


def _index(q: int, coeffs) -> int:
    """Base-q encoding of a coefficient sequence, low first (leading included)."""
    x = 0
    for c in reversed(coeffs):
        x = x * q + c
    return x


def _digits(q: int, idx: int, width: int) -> list[int]:
    """The width low base-q digits of idx, low first: the inverse of _index."""
    out = []
    for _ in range(width):
        out.append(idx % q)
        idx //= q
    return out


def poly_index(f: Poly) -> int:
    """Base-q encoding of the full coefficient vector (leading included)."""
    return _index(f.ctx.q, f.coeffs)


def poly_from_index(ctx: FieldCtx, idx: int, width: int) -> Poly:
    """Inverse of poly_index restricted to degree < width."""
    return Poly(ctx, _digits(ctx.q, idx, width))


def monic_from_index(ctx: FieldCtx, d: int, idx: int) -> Poly:
    """Monic of degree d whose low coefficient vector encodes idx."""
    return Poly._raw(ctx, tuple(_digits(ctx.q, idx, d)) + (1,))


def monics(ctx: FieldCtx, d: int):
    """All q^d monic polynomials of degree d, in encoding order."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    # product runs its last place fastest, so reversed tuples are low first
    for high in product(range(ctx.q), repeat=d):
        yield Poly._raw(ctx, high[::-1] + (1,))


def polys_below(ctx: FieldCtx, t: int):
    """All q^t polynomials of degree < t (including 0), in encoding order."""
    if t < 0:
        raise ValueError("degree bound must be >= 0")
    for high in product(range(ctx.q), repeat=t):
        yield Poly._raw(ctx, _trim(high[::-1]))


# ---------------------------------------------------------------------------
# Literal grammar:  term ('+' term)*  with  term := COEFF ['*'] 'T' ['^' EXP]
#                                               | COEFF
# COEFF is the integer encoding of a field element.  Alternative form:
# coeffs:[c0,c1,...]
# ---------------------------------------------------------------------------


def parse_poly(ctx: FieldCtx, text: str) -> Poly:
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty polynomial literal")
    if s.startswith("coeffs:"):
        body = s[len("coeffs:"):]
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"bad coeffs literal: {text!r}")
        inner = body[1:-1]
        coeffs = [int(v) for v in inner.split(",")] if inner else []
        for c in coeffs:
            if not 0 <= c < ctx.q:
                raise ValueError(f"coefficient {c} out of range for GF({ctx.q})")
        return Poly(ctx, coeffs)
    acc: dict[int, int] = {}
    for term in s.split("+"):
        if not term:
            raise ValueError(f"bad polynomial literal: {text!r}")
        if "T" not in term:
            coeff, exp = int(term), 0
        else:
            head, _, tail = term.partition("T")
            coeff = int(head.rstrip("*")) if head else 1
            exp = int(tail[1:]) if tail.startswith("^") else (0 if tail else 1)
            if tail and not tail.startswith("^"):
                raise ValueError(f"bad term {term!r} in {text!r}")
            if exp < 0:
                raise ValueError("negative exponent")
        if not 0 <= coeff < ctx.q:
            raise ValueError(f"coefficient {coeff} out of range for GF({ctx.q})")
        acc[exp] = ctx.add(acc.get(exp, 0), coeff)
    deg = max(acc)
    coeffs = [0] * (deg + 1)
    for e, c in acc.items():
        coeffs[e] = c
    return Poly(ctx, coeffs)


def format_poly(f: Poly) -> str:
    if f.is_zero:
        return "0"
    terms = []
    for e in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[e]
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        elif e == 1:
            terms.append("T" if c == 1 else f"{c}*T")
        else:
            terms.append(f"T^{e}" if c == 1 else f"{c}*T^{e}")
    return "+".join(terms)
