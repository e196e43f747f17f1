"""Characters of residue rings of F_q[T].

Multiplicative characters are supported for squarefree moduli only: the
unit group then splits by CRT into cyclic factors (one per irreducible
divisor), and a character is an exponent vector against deterministic
per-factor generators.  Additive characters use the F_p-algebra trace of
multiplication, evaluated through e_p.  The base-p digits of a residue's
index are its F_p coordinates, so psi_h is an F_p-linear form and
u -> psi_h(x u) is a dot product with the digits of u, through the trace
Gram matrix of h; no product table is built.  Kloosterman sums, the
complete sums C(g, h) and the rational Kloosterman aggregate are one
routine on top: a count, over the units y, of a linear form in the digits
of y^-1 and y.

Real characters evaluate to exact integers, as the Jacobi symbol of their
conductor, with no discrete-log table; general characters return complex
unit roots.  Sums of bounded unit roots are accumulated as integer counts
per root and only converted to floats at the end, so the 1e-9 comparison
tolerance is never stressed.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import lru_cache

import numpy as np

from .config import FACTOR_CACHE_SIZE
from .factor import divisor_count, factor, is_irreducible
from .field import cyclic_group, structure_constants
from .poly import Poly, gcd, is_squarefree, poly_from_index, polys_below
from .poly import _digits, _ext_gcd, _gcd, _index, _is_irreducible, _mod, _resultant  # tuple kernels

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
    real characters need neither (see DirichletCharacter.__call__)."""

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
        gen, _, self._dlog = cyclic_group(ctx, self.prime.coeffs)
        self._generator = Poly(ctx, _digits(ctx.q, gen, self.degree))

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
def local_logs(prime: Poly) -> _LocalLogs:
    return _LocalLogs(prime)


class DirichletCharacter:
    """Multiplicative character mod a squarefree monic M, as an exponent
    vector against the per-factor generators.  Modulus 1 (no factors) is the
    everywhere-1 character and is only produced internally.  A real
    character (values in {-1, 0, 1}: every exponent is 0 or half its order)
    is the Jacobi symbol (f/E1) of its conductor E1 on the units mod M."""

    __slots__ = ("modulus", "locals", "exponents", "is_real", "_conductor", "_cofactor", "_lcm")

    def __init__(self, modulus: Poly, locs: tuple[_LocalLogs, ...], exponents: tuple[int, ...]):
        self.modulus = modulus
        self.locals = locs
        self.exponents = tuple(e % loc.order for e, loc in zip(exponents, locs))
        self.is_real = all(2 * e % loc.order == 0 for e, loc in zip(self.exponents, locs))
        one = Poly.one(modulus.ctx)
        self._conductor = math.prod((loc.prime for e, loc in zip(self.exponents, locs) if e), start=one)
        self._cofactor = math.prod((loc.prime for e, loc in zip(self.exponents, locs) if not e), start=one)
        self._lcm = math.lcm(*(loc.order for loc in locs)) if locs else 1

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def conductor(self) -> Poly:
        """Product of the factors with nontrivial local component (valid
        because the modulus is squarefree)."""
        return self._conductor

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
            if not f.coeffs:
                return 0 if self.locals else 1
            if len(_gcd(ctx, f.coeffs, self._cofactor.coeffs)) > 1:
                return 0
            # Res(E1, f) is the product of the norms of f mod each P | E1, and
            # f mod P is a square iff its norm is; at p = 2, where quad_char
            # raises, every real character is principal
            E1 = self._conductor.coeffs
            return ctx.quad_char(_resultant(ctx, E1, f.coeffs)) if len(E1) > 1 else 1
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
    primes = _squarefree_monic_factors(M)
    locs = tuple(local_logs(p) for p in primes)
    for exps in itertools.product(*(range(loc.order) for loc in locs)):
        yield DirichletCharacter(M, locs, exps)


def jacobi_character(E: Poly) -> DirichletCharacter:
    """The character f -> (f/E) for squarefree monic nonconstant E: every
    local component is the quadratic one, so the conductor is E itself."""
    if E.degree < 1:
        raise ValueError("modulus must be nonconstant")
    return quadratic_character_mod(E, E)


# A sweep over derivative classes meets few distinct (E, E1) (658 among the
# 73,234 GF(9) classes of criterion 02), so each character is built once.
@lru_cache(maxsize=FACTOR_CACHE_SIZE)
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


def digit_matrix(ctx, m: int) -> np.ndarray:
    """The base-p digits of every base-q index below q^m: row x holds the m k
    digits of x, low first, in the smallest unsigned dtype that fits p.

    Digit i = kj + u of a residue's index is its coordinate on
    omega^u T^j (omega the field's polynomial basis), the residue of index
    p^i, and addition is digitwise mod p: every F_p-linear map of residues
    is a matrix product on these rows."""
    n = m * ctx.k
    digits = np.arange(ctx.q**m)[:, None] // ctx.p ** np.arange(n) % ctx.p
    return digits.astype(np.min_scalar_type(ctx.p - 1))


class ResidueRing:
    """A = F_q[T]/(M) with its unit inventory, its base-p digit matrix and
    its structure constants as an F_p-algebra.

    Residues are addressed by their base-q index; `digits[x]` holds the F_p
    coordinates of x (see digit_matrix).  `unit_digits` stacks the rows
    [d(y^-1) | d(y)] of the units y, in `units` order, so a sum over the
    units of an exponent linear in y^-1 and y is one matrix product.
    `structure` is field.structure_constants of M: multiplication by a is
    the matrix sum_l d(a)_l B[l], and the trace of multiplication by e_l,
    the residue of index p^l, is the diagonal sum of B[l].  No product
    table is kept: products only enter through the trace form.
    """

    __slots__ = ("ctx", "M", "m", "size", "units", "inv_index", "digits", "unit_digits", "structure")

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
        # one extended gcd per unit pair {x, x^-1}
        inv_index = [-1] * self.size
        for idx, x in enumerate(polys_below(ctx, self.m)):
            if inv_index[idx] < 0:
                g, u, _ = _ext_gcd(ctx, x.coeffs, mc)
                if len(g) == 1:
                    inv = _index(ctx.q, _mod(ctx, u, mc))
                    inv_index[idx] = inv
                    inv_index[inv] = idx
        self.units = tuple(idx for idx, inv in enumerate(inv_index) if inv >= 0)
        self.inv_index = inv_index
        self.digits = digit_matrix(ctx, self.m)
        y = np.array(self.units)
        self.unit_digits = np.hstack((self.digits[np.array(inv_index)[y]], self.digits[y])).astype(np.int64)
        self.structure = structure_constants(ctx, mc)

    def index(self, f: Poly) -> int:
        return _index(self.ctx.q, _mod(self.ctx, f.coeffs, self.M.coeffs))

    def poly(self, idx: int) -> Poly:
        return poly_from_index(self.ctx, idx, self.m)

    def trace_weights(self, coeffs) -> np.ndarray:
        """Tr(a e_i) for every basis residue e_i, a the residue of `coeffs`:
        the weights of the F_p-linear form u -> Tr(a u) on the digit rows."""
        B = self.structure
        a = self.digits[_index(self.ctx.q, _mod(self.ctx, coeffs, self.M.coeffs))]
        return np.tensordot(a, B, 1) @ np.einsum("lii->l", B) % self.ctx.p


@lru_cache(maxsize=128)
def residue_ring(M: Poly) -> ResidueRing:
    return ResidueRing(M)


class RootOfUnitySum:
    """Exact integer combination of p-th roots of unity."""

    __slots__ = ("p", "counts")

    def __init__(self, p: int, counts=None):
        self.p = p
        self.counts = list(counts) if counts is not None else [0] * p

    def add(self, exponent: int, weight: int = 1):
        self.counts[exponent % self.p] += weight

    def to_complex(self) -> complex:
        roots = _roots(self.p)
        return sum(c * roots[v] for v, c in enumerate(self.counts) if c) + 0j


@lru_cache(maxsize=16)
def _roots(p: int) -> tuple[complex, ...]:
    """e_p(v) for v < p, computed once per p."""
    return tuple(cmath.exp(2j * cmath.pi * v / p) for v in range(p))


class AdditiveCharacter:
    """psi_h on A = F_q[T]/(M): x -> e_p(Tr(h x)) with the F_p-algebra trace.

    (x, u) -> Tr(h x u) is an F_p-bilinear form on the ring's digit rows,
    with Gram matrix gram[i][j] = Tr(h e_i e_j), e_i the residue of index
    p^i: the ring's structure constants B times the trace weights of h.
    weights[x] = d(x) @ gram mod p are the coefficients of u -> Tr(h x u),
    a dot product with d(u), and column 0 (u = 1) is psi's own exponent table.

    `exponent` returns the integer Tr(h x) in [0, p) for exact accumulation;
    calling the character returns the complex value.
    """

    __slots__ = ("ring", "h", "gram", "weights", "_table")

    def __init__(self, ring: ResidueRing, h: Poly):
        self.ring = ring
        self.h = h % ring.M
        self.gram = ring.structure @ ring.trace_weights(self.h.coeffs) % ring.ctx.p
        self.weights = ring.digits @ self.gram % ring.ctx.p
        self._table = self.weights[:, 0].tolist()

    @property
    def modulus(self) -> Poly:
        return self.ring.M

    @property
    def is_trivial(self) -> bool:
        """psi_h = 1 on every residue: Tr(h x) = 0 for all x.  For squarefree M
        that means h = 0 mod M; otherwise the trace form is degenerate and a
        nonzero h can give it too (h = T mod T^2, or h = 1 mod T^3 over GF(3))."""
        return not self.gram[:, 0].any()

    def exponent_index(self, idx: int) -> int:
        return self._table[idx]

    def exponent(self, f: Poly) -> int:
        return self._table[self.ring.index(f)]

    def __call__(self, f: Poly) -> complex:
        e = self.exponent(f)
        p = self.ring.ctx.p
        return cmath.exp(2j * cmath.pi * e / p) if e else 1 + 0j


def additive_character(M: Poly, h: Poly | None = None) -> AdditiveCharacter:
    ring = residue_ring(M)
    return AdditiveCharacter(ring, h if h is not None else Poly.one(M.ctx))


def _unit_counts(ring: ResidueRing, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Counts per exponent in [0, p) of the sum over the units y of
    e_p(d(y^-1).a + d(y).b), for a and b the weights of two F_p-linear
    forms; 2-D a and b, one form per row, sum over their rows as well."""
    p = ring.ctx.p
    e = ring.unit_digits @ np.concatenate((a, b), axis=-1).T
    e %= p
    return np.bincount(e.ravel(), minlength=p)


def _ring_of(M: Poly, psi: AdditiveCharacter) -> ResidueRing:
    if psi.ring.M != M.monic():
        raise ValueError("additive character does not match the modulus")
    return psi.ring


def kloosterman(M: Poly, psi: AdditiveCharacter, x: Poly, z: Poly) -> complex:
    """S(x, z) = sum over units y of psi(x y^{-1} + z y)."""
    ring = _ring_of(M, psi)
    counts = _unit_counts(ring, psi.weights[ring.index(x)], psi.weights[ring.index(z)])
    return RootOfUnitySum(ring.ctx.p, counts.tolist()).to_complex()


def rational_kloosterman_aggregate(
    M: Poly, b: tuple, z: Poly, psi: AdditiveCharacter | None = None
) -> tuple[complex, float, bool]:
    """Aggregate sum_x S(R_b(x), z) for the six-shift rational map R_b.

    b = (b1, b2, b3, b1', b2', b3').  For prime M, a nontrivial psi and a
    nondegenerate shift tuple (no S_3 matching between the two halves, nor
    the characteristic-3 all-equal configuration) the sum is asserted
    against 16|A|; otherwise only the trivial |A|^2 bound applies.  psi,
    psi_1 by default, must be a character mod M.
    """
    if len(b) != 6:
        raise ValueError("b must be a 6-tuple of shifts")
    if psi is None:
        psi = additive_character(M)
    ring = _ring_of(M, psi)
    ctx = ring.ctx
    p = ctx.p
    bi = [ring.index(v) for v in b]
    first, second = bi[:3], bi[3:]

    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    degenerate = any(all(first[i] == second[s[i]] for i in range(3)) for s in perms)
    if p == 3 and len(set(first)) == 1 and len(set(second)) == 1:
        degenerate = True

    # the index of x + b_t for every residue x (rows) and shift t (columns),
    # and the x at which all six are units
    digits = ring.digits
    shifted = (digits[:, None, :] + digits[bi].astype(np.int64)) % p @ p ** np.arange(digits.shape[1])
    inverses = np.asarray(ring.inv_index)[shifted]
    inverses = inverses[(inverses >= 0).all(axis=1)]
    # R_b(x) is the first three inverses minus the last three: these digit
    # sums are its digits mod p, and psi(R_b(x) y^-1) is linear in them
    d = digits[inverses].astype(np.int64)
    wr = (d[:, :3].sum(axis=1) - d[:, 3:].sum(axis=1)) @ psi.gram % p
    wz = np.broadcast_to(psi.weights[ring.index(z)], wr.shape)
    counts = np.zeros(p, dtype=np.int64)
    step = max(1, (1 << 18) // len(ring.units))  # at most 2^18 exponents at a time
    for i in range(0, len(wr), step):
        counts += _unit_counts(ring, wr[i : i + step], wz[i : i + step])
    value = RootOfUnitySum(p, counts.tolist()).to_complex()

    a_size = float(ring.size)
    if is_irreducible(ring.M) and not degenerate and not psi.is_trivial:
        bound = 16.0 * a_size
    else:
        bound = a_size * a_size
    return value, bound, abs(value) <= bound + 1e-9


def c_sum(M: Poly, psi: AdditiveCharacter, g: Poly, h: Poly) -> tuple[complex, float | None, bool | None]:
    """C(g, h) = sum over units z of psi(g z^{-1}) e_p(Tr(h z)), checked
    against the divisor-function square-root bound.  The bound holds for
    squarefree M and a nontrivial psi only; elsewhere bound and ok are None."""
    ring = _ring_of(M, psi)
    ctx = ring.ctx
    counts = _unit_counts(ring, psi.weights[ring.index(g)], ring.trace_weights(h.coeffs))
    value = RootOfUnitySum(ctx.p, counts.tolist()).to_complex()
    if psi.is_trivial or not is_squarefree(ring.M):
        return value, None, None

    mgh = gcd(gcd(ring.M, g), h).monic()
    bound = divisor_count(ring.M) * math.sqrt(float(ring.size) * float(ctx.q**mgh.degree))
    return value, bound, abs(value) <= bound + 1e-9
