"""Mobius on a fixed-derivative progression as a shifted quadratic character.

For coprime monic a, M (m = deg M) and a class degree d, restrict g to the
monic degree-d polynomials with a fixed derivative.  On that class
mu(a + g M) collapses to S * chi(w + g) where chi is a real character mod

    E = rad(D) / gcd(M, rad(D)),      D = M^2 g' + a' M - a M',

with conductor E1 = rad1(D) / G, G = gcd(M, rad1(D)), w = a * Minv mod E,
and a class constant S in {-1, 0, +1} (S = 0 exactly when D = 0).  With
n = deg(a + gM), psi the quadratic character of F_q and the Jacobi symbol
(h/B) = psi(Res(B, h)) for monic B, (h/1) = 1,

    S = (-1)^n psi(-1)^(n(n-1)/2 + n deg D + m n) psi(lc D)^n (a/M) (M/E1) (a/G).

Sketch, for f = a + gM (reciprocity as in M. Rosen, Number Theory in
Function Fields, GTM 210, ch. 3): Pellet gives mu(f) = (-1)^n psi(disc f)
with disc f = (-1)^(n(n-1)/2) Res(f, f').  D = M f' - M' f on the class, so
Res(f, D) = Res(f, M) Res(f, f'); swapping the arguments of both costs
psi(-1)^(n deg D + m n) psi(lc D)^n, and Res(M, f) = Res(M, a).  In (f/D)
the primes of G give (a/G) and those of E1 give (M/E1) chi(w + g), since
f = M (w + g) mod E; a prime of E that divides f divides f' too, so there
mu(f) = 0 = chi(w + g).  A class where chi vanishes everywhere shows no
sign: decompose raises DegenerateClassError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .arith import inverse_mod, jacobi, mobius_oracle
from .characters import DirichletCharacter, quadratic_character_mod
from .errors import DegenerateClassError
from .factor import distinct_degree_split, rad, rad1
from .field import FieldCtx
from .poly import Poly, gcd

__all__ = [
    "DecompositionData",
    "DecompositionCheck",
    "derivative_class_rep",
    "derivative_class",
    "decompose",
    "verify_decomposition",
    "principal_implies_square",
]


@dataclass(frozen=True)
class DecompositionData:
    D: Poly
    E: Poly
    E1: Poly
    w: Poly
    chi: DirichletCharacter
    S: int


@dataclass(frozen=True)
class DecompositionCheck:
    class_size: int
    checks: int
    counterexamples: tuple
    S: int
    all_zero: bool

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def derivative_class_rep(ctx: FieldCtx, rprime: Poly, d: int) -> Poly:
    """Canonical monic degree-d polynomial with the given derivative: the
    free coefficients (exponents divisible by p, below the leading one) are
    all zero.  Raises if no monic degree-d polynomial has that derivative."""
    if d < 1:
        raise ValueError("class degree must be >= 1")
    p = ctx.p
    if not rprime.is_zero and rprime.degree >= d:
        raise ValueError("derivative has degree >= d, not attainable")
    rc = rprime.coeffs
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    for j in range(1, d + 1):
        want = rc[j - 1] if j - 1 < len(rc) else 0
        if j % p == 0:
            if want != 0:
                raise ValueError("derivative has support at an exponent divisible by the characteristic")
            continue
        cj = ctx.mul(want, ctx.inv(j % p))
        if j == d:
            if cj != 1:
                raise ValueError("leading derivative coefficient does not match a monic polynomial")
        else:
            coeffs[j] = cj
    return Poly(ctx, coeffs)


def derivative_class(ctx: FieldCtx, rprime: Poly, d: int):
    """All monic degree-d g with g' = rprime, i.e. r + s^p over s of degree
    < d/p, in encoding order of s."""
    coeffs = list(derivative_class_rep(ctx, rprime, d).coeffs)
    p = ctx.p
    width = -(-d // p)  # ceil(d / p): r is 0 at the exponents p*i < d
    frob = [ctx.frobenius(c) for c in range(ctx.q)]
    # s^p = sum frob(s_i) T^(p*i), since the p-th power map is additive, so a
    # point is r with those slots set; product runs its last place fastest,
    # so reversed tuples follow the encoding order of s
    for high in product(frob, repeat=width):
        coeffs[: p * width : p] = high[::-1]
        yield Poly._raw(ctx, tuple(coeffs))


def decompose(a: Poly, M: Poly, rprime: Poly, d: int) -> DecompositionData:
    """Build (D, E, E1, w, chi, S) for the class {a + gM : g' = rprime},
    with S from the closed form in the module docstring; the caller can
    check mu(a + gM) = S * chi(w + g) with :func:`verify_decomposition`.
    Raises DegenerateClassError if chi(w + g) vanishes on the whole class.
    """
    ctx = a.ctx
    if ctx.p == 2:
        raise ValueError("odd characteristic required")
    if not (a.is_monic and M.is_monic):
        raise ValueError("a and M must be monic")
    if gcd(a, M).degree != 0:
        raise ValueError("a and M must be coprime")
    k, m = a.degree, M.degree
    if d < 1:
        raise ValueError("class degree must be >= 1")
    if k == d + m:
        raise ValueError("degree collision k = d + m leaves a + gM non-monic")

    D = M * M * rprime + a.derivative() * M - a * M.derivative()
    one = Poly.one(ctx)
    zero = Poly.zero(ctx)
    if D.is_zero:
        chi = quadratic_character_mod(one, one)
        return DecompositionData(D, one, one, zero, chi, 0)

    radD = rad(D)
    rad1D = rad1(D)
    E = radD // gcd(M, radD)
    G = gcd(M, rad1D)
    E1 = rad1D // G
    w = (a * inverse_mod(M, E)) % E if E.degree else zero
    chi = quadratic_character_mod(E, E1)
    if not any(chi(w + g) for g in derivative_class(ctx, rprime, d)):
        raise DegenerateClassError("chi(w+g) = 0 across the whole class; all mu values are 0")

    n = max(k, d + m)
    S = (-1) ** n * ctx.quad_char(ctx.neg(1)) ** (n * (n - 1) // 2 + n * D.degree + m * n)
    S *= ctx.quad_char(D.lc) ** n * _symbol(a, M) * _symbol(M, E1) * _symbol(a, G)
    return DecompositionData(D, E, E1, w, chi, S)


def _symbol(h: Poly, B: Poly) -> int:
    """The Jacobi symbol (h/B) for monic B, with (h/1) = 1."""
    return jacobi(h, B) if B.degree else 1


def verify_decomposition(data: DecompositionData, a: Poly, M: Poly, rprime: Poly, d: int) -> DecompositionCheck:
    """Check mu(a + gM) = S * chi(w + g) at every class point, with mu from
    the factorization oracle (independent of the resultants that give S)."""
    ctx = a.ctx
    counterexamples = []
    size = 0
    seen_nonzero = False
    for g in derivative_class(ctx, rprime, d):
        size += 1
        lhs = mobius_oracle(a + g * M)
        rhs = data.S * data.chi(data.w + g)
        if lhs != rhs:
            counterexamples.append((g, lhs, rhs))
        if lhs != 0:
            seen_nonzero = True
    return DecompositionCheck(
        class_size=size,
        checks=size,
        counterexamples=tuple(counterexamples),
        S=data.S,
        all_zero=not seen_nonzero,
    )


def principal_implies_square(data: DecompositionData, a: Poly, M: Poly, rprime: Poly):
    """When chi is principal (E1 = 1), D factors as lambda * A * B^2 with
    A | M; returns (is_principal, (A, B, lambda) or None)."""
    if data.D.is_zero:
        raise ValueError("D = 0 has no square decomposition")
    if data.E1.degree != 0:
        return False, None
    ctx = a.ctx
    A = Poly.one(ctx)
    B = Poly.one(ctx)
    for prod, _, mult in distinct_degree_split(data.D.monic()):
        if mult % 2:
            A = A * prod
        B = B * prod ** (mult // 2)
    lam = data.D.lc
    assert (M % A).is_zero, "odd-multiplicity part must divide M when chi is principal"
    assert Poly.constant(ctx, lam) * A * B * B == data.D
    return True, (A, B, lam)
