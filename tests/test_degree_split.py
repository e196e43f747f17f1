"""Degree-only answers read the distinct-degree split alone.

mu, Lambda, phi, d_2, rad, rad1, the Jacobi oracle, the prime-degree
histogram of the singular series and principal_implies_square need only the
degrees and multiplicities of the prime factors.  Each is evaluated here on
every monic of small degree with equal-degree splitting (factor._edf) made
to raise, and every value must equal the one a formula over the named primes
of factor() gives, with the real _edf, afterwards.
"""

import importlib

import pytest

from ffmobius import (
    DecompositionData,
    Poly,
    divisor_count,
    euler_phi,
    factor,
    field_new,
    jacobi_oracle,
    mobius_oracle,
    monics,
    principal_implies_square,
    quadratic_character_mod,
    rad,
    rad1,
    singular_series,
    von_mangoldt,
)
from ffmobius.arith import _euler_product

factor_mod = importlib.import_module("ffmobius.factor")  # the package exports a function of that name

# (p, k, largest degree); the odd fields also run the Jacobi oracle, the
# singular series and principal_implies_square
ODD = [(3, 1, 5), (5, 1, 3), (3, 2, 3)]
EVEN = [(2, 1, 6), (2, 2, 3)]


# References: the same quantities read off factor(), prime by prime.


def _mobius_ref(f):
    fac = factor(f)
    return (-1) ** len(fac.factors) if fac.is_squarefree else 0


def _lambda_ref(f):
    fac = factor(f).factors
    return fac[0][0].degree if len(fac) == 1 else 0


def _phi_ref(f):
    out = 1
    for P, e in factor(f).factors:
        norm = f.ctx.q**P.degree
        out *= norm ** (e - 1) * (norm - 1)
    return out


def _d2_ref(f):
    out = 1
    for _, e in factor(f).factors:
        out *= e + 1
    return out


def _rad_ref(f, odd_only):
    out = Poly.one(f.ctx)
    for P, e in factor(f).factors:
        if e % 2 or not odd_only:
            out = out * P
    return out


def _jacobi_ref(f, g):
    ctx = g.ctx
    out = 1
    for P, e in factor(g).factors:
        r = f % P
        if r.is_zero:
            return 0
        if e % 2:
            s = r.powmod((ctx.q**P.degree - 1) // 2, P)
            assert s in (Poly.one(ctx), -Poly.one(ctx))
            out *= 1 if s == Poly.one(ctx) else -1
    return out


def _singular_ref(a, N):
    by_degree = {}
    for P, _ in factor(a).factors:
        if P.degree <= N:
            by_degree[P.degree] = by_degree.get(P.degree, 0) + 1
    return _euler_product(a.ctx.q, N, tuple(sorted(by_degree.items())))


def _square_ref(D):
    ctx = D.ctx
    A = Poly.one(ctx)
    B = Poly.one(ctx)
    fac = factor(D)
    for P, e in fac.factors:
        if e % 2:
            A = A * P
        B = B * P ** (e // 2)
    return True, (A, B, fac.leading)


def _non_square(ctx):
    return next(c for c in range(1, ctx.q) if ctx.quad_char(c) == -1)


def _cases(p, k, dmax):
    """(name, function, reference, argument tuple) for every check."""
    ctx = field_new(p, k)
    inputs = [f for d in range(dmax + 1) for f in monics(ctx, d)]
    cases = []
    for f in inputs:
        cases += [
            ("mu", mobius_oracle, _mobius_ref, (f,)),
            ("Lambda", von_mangoldt, _lambda_ref, (f,)),
            ("rad", rad, lambda f: _rad_ref(f, False), (f,)),
            ("rad1", rad1, lambda f: _rad_ref(f, True), (f,)),
        ]
    # phi and d_2 accept any nonzero argument, so every other one is scaled
    for i, f in enumerate(inputs):
        g = f.scale(ctx.q - 1) if i % 2 else f
        cases += [("phi", euler_phi, _phi_ref, (g,)), ("d2", divisor_count, _d2_ref, (g,))]
    if p == 2:
        return ctx, cases
    c = _non_square(ctx)
    one = Poly.one(ctx)
    zero = Poly.zero(ctx)
    T = Poly.t(ctx)
    principal = quadratic_character_mod(one, one)
    n = len(inputs)
    for i, g in enumerate(inputs):
        a = g.scale(c) if i % 2 else g
        # chi principal (E1 = 1) and M = the monic part of D, so A | M
        data = DecompositionData(a, one, one, zero, principal, 0)
        cases += [
            ("singular", lambda a, N: singular_series(a, N).value, _singular_ref, (a, max(a.degree, 1))),
            ("square", lambda data: principal_implies_square(data, one, data.D.monic(), zero),
             lambda data: _square_ref(data.D), (data,)),
        ]
        if g.degree < 1:
            continue
        # two numerators that may share a factor with g, one of them scaled
        # by a non-square, and one coprime to g by construction
        for f in (inputs[(7 * i + 3) % n], inputs[(13 * i + 5) % n].scale(c), g * T + one):
            cases.append(("jacobi", jacobi_oracle, _jacobi_ref, (f, g)))
            if f.degree >= 1:
                cases.append(("jacobi", jacobi_oracle, _jacobi_ref, (g, f)))
    return ctx, cases


def _refuse(*args):
    raise AssertionError("equal-degree splitting reached")


@pytest.mark.parametrize("pk", ODD + EVEN, ids=lambda pk: f"GF({pk[0]}^{pk[1]})d<={pk[2]}")
def test_degree_only_answers_need_no_equal_degree_split(pk, monkeypatch):
    ctx, cases = _cases(*pk)
    factor.cache_clear()  # a memoised factor() would hide an _edf call
    monkeypatch.setattr(factor_mod, "_edf", _refuse)
    with pytest.raises(AssertionError, match="equal-degree"):
        factor(Poly.t(ctx))  # the patch is in force
    got = [fn(*args) for _, fn, _, args in cases]
    monkeypatch.undo()
    for (name, _, ref, args), value in zip(cases, got):
        assert value == ref(*args), (name, args)
    kinds = {"mu", "Lambda", "rad", "rad1", "phi", "d2"}
    if pk[0] != 2:
        kinds |= {"singular", "square", "jacobi"}
    assert {name for name, *_ in cases} == kinds
