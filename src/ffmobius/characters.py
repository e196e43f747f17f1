"""Characters of residue rings of F_q[T].

Multiplicative characters are supported for squarefree moduli only: the
unit group then splits by CRT into cyclic factors (one per irreducible
divisor), and a character is an exponent vector against deterministic
per-factor generators.  Additive characters use the F_p-algebra trace of
multiplication, evaluated through e_p.  Kloosterman sums and the two
complete sums used by the bilinear estimates sit on top.

Quadratic (and principal) characters evaluate to exact integers, through
the Legendre symbol of a norm, with no discrete-log table; general
characters return complex unit roots.  Sums of bounded unit roots are
accumulated as integer counts per root and only converted to floats at
the end, so the 1e-9 comparison tolerance is never stressed.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .config import RING_TABLE_CAP
from .factor import divisor_count, factor, is_irreducible
from .field import cyclic_group
from .poly import Poly, ext_gcd, gcd, is_squarefree, poly_from_index
from .poly import _digits, _index, _is_irreducible, _mod, _mul, _resultant, _trim  # tuple kernels

__all__ = [
    "DirichletCharacter",
    "characters_mod",
    "jacobi_character",
    "quadratic_character_mod",
    "ResidueRing",
    "residue_ring",
    "AdditiveCharacter",
    "kloosterman",
    "rational_kloosterman_aggregate",
    "c_sum",
    "RootOfUnitySum",
]


class _LocalLogs:
    """The residue field F_q[T]/(P) of a monic irreducible P.  Its discrete
    logs against the smallest primitive residue (in encoding order, from
    field.cyclic_group) are built on first access to `generator` or `dlog`:
    real characters need neither, they read the quadratic character off the
    norm (see DirichletCharacter.__call__)."""

    __slots__ = ("prime", "degree", "order", "_generator", "_dlog")

    def __init__(self, prime: Poly):
        if not (prime.is_monic and _is_irreducible(prime.ctx, prime.coeffs)):
            raise ValueError("a residue field needs a monic irreducible modulus")
        self.prime = prime
        self.degree = prime.degree
        self.order = prime.ctx.q**self.degree - 1
        self._generator = self._dlog = None

    def _build(self) -> None:
        ctx = self.prime.ctx
        gen, exp = cyclic_group(ctx, self.prime.coeffs)
        dlog = [-1] * (self.order + 1)
        for e, v in enumerate(exp):
            dlog[v] = e
        self._generator = Poly(ctx, _digits(ctx.q, gen, self.degree))
        self._dlog = dlog

    @property
    def generator(self) -> Poly:
        if self._generator is None:
            self._build()
        return self._generator

    @property
    def dlog(self) -> list[int]:
        if self._dlog is None:
            self._build()
        return self._dlog


@lru_cache(maxsize=512)
def _local_logs(ctx, prime_coeffs) -> _LocalLogs:
    return _LocalLogs(Poly(ctx, prime_coeffs))


def local_logs(prime: Poly) -> _LocalLogs:
    return _local_logs(prime.ctx, prime.coeffs)


class DirichletCharacter:
    """Multiplicative character mod a squarefree monic M, as an exponent
    vector against the per-factor generators.  Modulus 1 (no factors) is the
    everywhere-1 character and is only produced internally."""

    __slots__ = ("modulus", "locals", "exponents", "_lcm")

    def __init__(self, modulus: Poly, locs: tuple[_LocalLogs, ...], exponents: tuple[int, ...]):
        self.modulus = modulus
        self.locals = locs
        self.exponents = tuple(e % loc.order for e, loc in zip(exponents, locs))
        self._lcm = math.lcm(*(loc.order for loc in locs)) if locs else 1

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def is_real(self) -> bool:
        """Values in {-1, 0, 1}: every local exponent is 0 or half the order."""
        return all(
            e == 0 or (loc.order % 2 == 0 and e == loc.order // 2)
            for e, loc in zip(self.exponents, self.locals)
        )

    def conductor(self) -> Poly:
        """Product of the factors with nontrivial local component (valid
        because the modulus is squarefree)."""
        out = Poly.one(self.modulus.ctx)
        for e, loc in zip(self.exponents, self.locals):
            if e:
                out = out * loc.prime
        return out

    def label(self) -> str:
        if self.is_principal:
            return "principal"
        return "idx:" + ",".join(str(e) for e in self.exponents)

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.modulus, self.exponents))

    def __repr__(self):
        from .poly import format_poly

        return f"DirichletCharacter(mod {format_poly(self.modulus)}, {self.label()})"

    def __call__(self, f: Poly):
        """0 off the units; otherwise an exact +-1 for real characters and a
        complex unit root in general."""
        ctx = self.modulus.ctx
        if self.is_real:
            # r is a square in F_q[T]/(P) iff its norm Res(P, r) is one in F_q
            out = 1
            for e, loc in zip(self.exponents, self.locals):
                r = _mod(ctx, f.coeffs, loc.prime.coeffs)
                if not r:
                    return 0
                if e and ctx.quad_char(_resultant(ctx, loc.prime.coeffs, r)) < 0:
                    out = -out
            return out
        lcm = self._lcm
        phase = 0
        for e, loc in zip(self.exponents, self.locals):
            r = _mod(ctx, f.coeffs, loc.prime.coeffs)
            if not r:
                return 0
            phase = (phase + e * loc.dlog[_index(ctx.q, r)] * (lcm // loc.order)) % lcm
        if phase == 0:
            return 1
        return cmath.exp(2j * cmath.pi * phase / lcm)


def _squarefree_monic_factors(M: Poly) -> tuple[Poly, ...]:
    if M.is_zero or M.degree < 1:
        raise ValueError("modulus must be nonconstant")
    if not M.is_monic:
        raise ValueError("modulus must be monic")
    if not is_squarefree(M):
        raise ValueError("characters are only supported for squarefree moduli")
    return tuple(p for p, _ in factor(M).factors)


def characters_mod(M: Poly):
    """All phi(M) characters mod squarefree monic M: principal first, then
    lexicographic in the exponent vectors."""
    import itertools

    primes = _squarefree_monic_factors(M)
    locs = tuple(local_logs(p) for p in primes)
    for exps in itertools.product(*(range(loc.order) for loc in locs)):
        yield DirichletCharacter(M, locs, exps)


def jacobi_character(E: Poly) -> DirichletCharacter:
    """The character f -> (f/E) for squarefree nonconstant E: every local
    component is the quadratic one, so the conductor is E itself."""
    primes = _squarefree_monic_factors(E)
    locs = tuple(local_logs(p) for p in primes)
    return DirichletCharacter(E, locs, tuple(loc.order // 2 for loc in locs))


def quadratic_character_mod(E: Poly, E1: Poly) -> DirichletCharacter:
    """Character mod squarefree monic E whose local component at P is
    quadratic when P | E1 and trivial otherwise; conductor E1.  E = 1 gives
    the everywhere-1 character."""
    ctx = E.ctx
    if E.degree == 0:
        return DirichletCharacter(Poly.one(ctx), (), ())
    primes = _squarefree_monic_factors(E)
    locs = tuple(local_logs(p) for p in primes)
    exps = tuple(
        loc.order // 2 if (E1 % loc.prime).is_zero else 0 for loc in locs
    )
    return DirichletCharacter(E, locs, exps)


# ---------------------------------------------------------------------------
# Residue rings and additive characters.
# ---------------------------------------------------------------------------


class ResidueRing:
    """A = F_q[T]/(M) with unit inventory and the trace-of-multiplication
    functional down to F_q.

    Residues are addressed by their base-q index.  When size^2 is at most
    RING_TABLE_CAP, mul_index memoises products a row at a time: the first
    product i * j fills row i (at most size products; entries already in
    another row are copied), so a caller that fixes one factor, as every
    Kloosterman and C-sum loop does, pays for the rows it uses and no more.
    Larger rings multiply and reduce on every call.
    """

    __slots__ = ("ctx", "M", "m", "size", "units", "inv_index", "_trace_vec", "_rows")

    def __init__(self, M: Poly):
        if M.is_zero or M.degree < 1:
            raise ValueError("modulus must be nonconstant")
        M = M.monic()
        ctx = M.ctx
        self.ctx = ctx
        self.M = M
        self.m = M.degree
        self.size = ctx.q**self.m
        mc = M.coeffs
        units = []
        inv_index = [-1] * self.size
        for idx in range(self.size):
            r = poly_from_index(ctx, idx, self.m)
            g, u, _ = ext_gcd(r, M)
            if g.degree == 0:
                units.append(idx)
                inv_index[idx] = _index(ctx.q, _mod(ctx, u.coeffs, mc))
        self.units = tuple(units)
        self.inv_index = inv_index
        # trace of multiplication by T^i, as an F_q element, for i < m
        tvec = []
        for i in range(self.m):
            acc = 0
            for j in range(self.m):
                r = _mod(ctx, (0,) * (i + j) + (1,), mc)
                if len(r) > j:
                    acc = ctx.add(acc, r[j])
            tvec.append(acc)
        self._trace_vec = tuple(tvec)
        self._rows = [None] * self.size if self.size * self.size <= RING_TABLE_CAP else None

    def index(self, f: Poly) -> int:
        return _index(self.ctx.q, _mod(self.ctx, f.coeffs, self.M.coeffs))

    def poly(self, idx: int) -> Poly:
        return poly_from_index(self.ctx, idx, self.m)

    def _product(self, a, b) -> int:
        """Index of the residue of a * b, for coefficient tuples a and b."""
        ctx = self.ctx
        return _index(ctx.q, _mod(ctx, _mul(ctx, a, b), self.M.coeffs))

    def mul_index(self, i: int, j: int) -> int:
        rows = self._rows
        if rows is None:
            q, m = self.ctx.q, self.m
            return self._product(_trim(_digits(q, i, m)), _trim(_digits(q, j, m)))
        row = rows[i]
        if row is None:
            row = self._row(i)
        return row[j]

    def _row(self, i: int) -> list[int]:
        """Row i of the product table (the indices of i * x for every x),
        filled on first use; only for rings within the table cap."""
        rows = self._rows
        row = rows[i]
        if row is None:
            # products are symmetric: reuse column i of the rows already filled
            q, m = self.ctx.q, self.m
            a = _trim(_digits(q, i, m))
            row = rows[i] = [
                self._product(a, _trim(_digits(q, x, m))) if r is None else r[i]
                for x, r in enumerate(rows)
            ]
        return row

    def trace_to_base(self, coeffs) -> int:
        """Trace of multiplication-by-x on A as an F_q-linear map."""
        ctx = self.ctx
        acc = 0
        for i, c in enumerate(coeffs):
            if c:
                acc = ctx.add(acc, ctx.mul(c, self._trace_vec[i]))
        return acc

    def trace_to_prime(self, coeffs) -> int:
        """Full F_p-algebra trace of multiplication by x, in [0, p)."""
        return self.ctx.trace_to_prime(self.trace_to_base(coeffs))


@lru_cache(maxsize=128)
def _ring_cache(ctx, m_coeffs) -> ResidueRing:
    return ResidueRing(Poly(ctx, m_coeffs))


def residue_ring(M: Poly) -> ResidueRing:
    return _ring_cache(M.ctx, M.monic().coeffs)


class RootOfUnitySum:
    """Exact integer combination of p-th roots of unity."""

    __slots__ = ("p", "counts")

    def __init__(self, p: int, counts=None):
        self.p = p
        self.counts = list(counts) if counts is not None else [0] * p

    def add(self, exponent: int, weight: int = 1):
        self.counts[exponent % self.p] += weight

    def to_complex(self) -> complex:
        p = self.p
        return sum(
            c * cmath.exp(2j * cmath.pi * v / p) for v, c in enumerate(self.counts) if c
        ) + 0j


class AdditiveCharacter:
    """psi_h on A = F_q[T]/(M): x -> e_p(Tr(h x)) with the F_p-algebra trace.

    `exponent` returns the integer Tr(h x) in [0, p) for exact accumulation;
    calling the character returns the complex value.
    """

    __slots__ = ("ring", "h", "_table")

    def __init__(self, ring: ResidueRing, h: Poly):
        self.ring = ring
        self.h = h % ring.M
        self._table = None
        if ring.size <= RING_TABLE_CAP:
            ctx = ring.ctx
            hc = self.h.coeffs
            mc = ring.M.coeffs
            table = []
            for idx in range(ring.size):
                prod = _mod(ctx, _mul(ctx, hc, poly_from_index(ctx, idx, ring.m).coeffs), mc)
                table.append(ring.trace_to_prime(prod))
            self._table = table

    @property
    def modulus(self) -> Poly:
        return self.ring.M

    def exponent_index(self, idx: int) -> int:
        if self._table is not None:
            return self._table[idx]
        ctx = self.ring.ctx
        prod = _mod(
            ctx,
            _mul(ctx, self.h.coeffs, poly_from_index(ctx, idx, self.ring.m).coeffs),
            self.ring.M.coeffs,
        )
        return self.ring.trace_to_prime(prod)

    def exponent(self, f: Poly) -> int:
        return self.exponent_index(self.ring.index(f))

    def __call__(self, f: Poly) -> complex:
        e = self.exponent(f)
        p = self.ring.ctx.p
        return cmath.exp(2j * cmath.pi * e / p) if e else 1 + 0j


def additive_character(M: Poly, h: Poly | None = None) -> AdditiveCharacter:
    ring = residue_ring(M)
    return AdditiveCharacter(ring, h if h is not None else Poly.one(M.ctx))


def kloosterman(M: Poly, psi: AdditiveCharacter, x: Poly, z: Poly) -> complex:
    """S(x, z) = sum over units y of psi(x y^{-1} + z y)."""
    ring = psi.ring
    if ring.M != M.monic():
        raise ValueError("additive character does not match the modulus")
    return _kloosterman_idx(ring, psi, ring.index(x), ring.index(z)).to_complex()


def _kloosterman_idx(ring: ResidueRing, psi: AdditiveCharacter, xi: int, zi: int) -> RootOfUnitySum:
    p = ring.ctx.p
    acc = RootOfUnitySum(p)
    inv = ring.inv_index
    table = psi._table
    if table is not None and ring._rows is not None:
        # the two product rows, filled once, and the trace table: no calls
        rx, rz = ring._row(xi), ring._row(zi)
        counts = acc.counts
        for y in ring.units:
            counts[(table[rx[inv[y]]] + table[rz[y]]) % p] += 1
        return acc
    mul = ring.mul_index
    exp = psi.exponent_index
    for y in ring.units:
        acc.add(exp(mul(xi, inv[y])) + exp(mul(zi, y)))
    return acc


def rational_kloosterman_aggregate(
    M: Poly, b: tuple, z: Poly, psi: AdditiveCharacter | None = None
) -> tuple[complex, float, bool]:
    """Aggregate sum_x S(R_b(x), z) for the six-shift rational map R_b.

    b = (b1, b2, b3, b1', b2', b3').  For prime M and a nondegenerate shift
    tuple (no S_3 matching between the two halves, nor the characteristic-3
    all-equal configuration) the sum is asserted against 16|A|; otherwise
    only the trivial |A|^2 bound applies.
    """
    if len(b) != 6:
        raise ValueError("b must be a 6-tuple of shifts")
    ring = residue_ring(M)
    if psi is None:
        psi = AdditiveCharacter(ring, Poly.one(M.ctx))
    ctx = ring.ctx
    bi = [ring.index(v) for v in b]
    first, second = bi[:3], bi[3:]

    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    degenerate = any(all(first[i] == second[s[i]] for i in range(3)) for s in perms)
    if ctx.p == 3 and len(set(first)) == 1 and len(set(second)) == 1:
        degenerate = True

    size = ring.size
    inv = ring.inv_index
    zi = ring.index(z)
    acc = RootOfUnitySum(ctx.p)
    kl_cache: dict[int, RootOfUnitySum] = {}
    for x in range(size):
        shifted = [_digitwise(ring, ctx.add, x, t) for t in bi]
        if any(inv[s] < 0 for s in shifted):
            continue
        r = 0
        for s in shifted[:3]:
            r = _digitwise(ring, ctx.add, r, inv[s])
        for s in shifted[3:]:
            r = _digitwise(ring, ctx.sub, r, inv[s])
        part = kl_cache.get(r)
        if part is None:
            part = _kloosterman_idx(ring, psi, r, zi)
            kl_cache[r] = part
        for v, c in enumerate(part.counts):
            if c:
                acc.add(v, c)
    value = acc.to_complex()

    a_size = float(size)
    if is_irreducible(ring.M) and not degenerate:
        bound = 16.0 * a_size
    else:
        bound = a_size * a_size
    return value, bound, abs(value) <= bound + 1e-9


def _digitwise(ring: ResidueRing, op, i: int, j: int) -> int:
    """Index of the residue whose base-q digits are op(digit of i, digit of
    j): ring.index(x + y) for op = ctx.add, ring.index(x - y) for ctx.sub."""
    q = ring.ctx.q
    out = 0
    m = 1
    for _ in range(ring.m):
        out += op(i % q, j % q) * m
        i //= q
        j //= q
        m *= q
    return out


def c_sum(M: Poly, psi: AdditiveCharacter, g: Poly, h: Poly) -> tuple[complex, float, bool]:
    """C(g, h) = sum over units z of psi(g z^{-1}) e_p(Tr(h z)), checked
    against the divisor-function square-root bound."""
    ring = residue_ring(M)
    if ring.M != psi.ring.M:
        raise ValueError("additive character does not match the modulus")
    ctx = ring.ctx
    twist = AdditiveCharacter(ring, h)
    gi = ring.index(g)
    acc = RootOfUnitySum(ctx.p)
    mul = ring.mul_index
    inv = ring.inv_index
    for z in ring.units:
        acc.add(psi.exponent_index(mul(gi, inv[z])) + twist.exponent_index(z))
    value = acc.to_complex()

    mgh = gcd(gcd(ring.M, g), h).monic()
    bound = divisor_count(ring.M) * math.sqrt(float(ring.size) * float(ctx.q**mgh.degree))
    return value, bound, abs(value) <= bound + 1e-9
