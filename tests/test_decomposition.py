import random

import pytest

from ffmobius import (
    DegenerateClassError,
    Poly,
    decompose,
    derivative_class,
    derivative_class_rep,
    field_new,
    gcd,
    mobius_oracle,
    mobius_pellet,
    monics,
    polys_below,
    principal_implies_square,
    verify_decomposition,
)
from ffmobius import arith, decomposition


def all_derivatives(ctx, d):
    """Distinct derivatives of monic degree-d polynomials."""
    return sorted({g.derivative().coeffs for g in monics(ctx, d)})


def test_derivative_class_rep_and_enumeration(gf3):
    T = Poly.t(gf3)
    r = derivative_class_rep(gf3, Poly.zero(gf3), 3)
    assert r == T**3
    cls = list(derivative_class(gf3, Poly.zero(gf3), 3))
    assert len(cls) == 3  # q^ceil(d/p) members
    assert set(c.coeffs for c in cls) == {(0, 0, 0, 1), (1, 0, 0, 1), (2, 0, 0, 1)}
    for g in cls:
        assert g.derivative().is_zero


def test_derivative_class_partitions_monics(gf3):
    """The classes over all attainable derivatives partition monics(d)."""
    for d in (1, 2, 3, 4):
        seen = set()
        for dc in all_derivatives(gf3, d):
            for g in derivative_class(gf3, Poly(gf3, dc), d):
                assert g.is_monic and g.degree == d
                assert g.derivative().coeffs == dc
                assert g.coeffs not in seen
                seen.add(g.coeffs)
        assert len(seen) == 3**d


# (field, derivative, class degree); coefficients low first
@pytest.mark.parametrize("pk,rprime,d", [
    ((3, 1), [1, 0, 0, 0, 0, 0, 1], 7),
    ((5, 1), [2, 1, 0, 0, 0, 1], 6),
    ((3, 2), [4, 0, 0, 1], 4),
    ((5, 2), [7, 3, 0, 4, 0, 1], 6),
], ids=["gf3", "gf5", "gf9", "gf25"])
def test_derivative_class_is_rep_plus_pth_powers(pk, rprime, d):
    """The class is r + s^p over s of degree < d/p, in the encoding order of s."""
    ctx = field_new(*pk)
    rprime = Poly(ctx, rprime)
    r = derivative_class_rep(ctx, rprime, d)
    expected = [r + s**ctx.p for s in polys_below(ctx, -(-d // ctx.p))]
    assert len(expected) > ctx.q
    assert [g.coeffs for g in derivative_class(ctx, rprime, d)] == [g.coeffs for g in expected]


def test_derivative_class_rep_rejects_unattainable(gf3):
    T = Poly.t(gf3)
    with pytest.raises(ValueError):
        derivative_class_rep(gf3, T * T, 3)  # T^2 coeff sits at exponent 3 = p
    with pytest.raises(ValueError):
        derivative_class_rep(gf3, Poly.zero(gf3), 1)  # monic linear has g' = 1


def test_decompose_spec_instance_gf3(gf3):
    """M = 1, a = T^4, g' = 0, d = 3: D = T^3, E = E1 = T, w = 0, and the
    class identity mu(T^4 + g) = S * psi(g(0)) holds with one S."""
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    data = decompose(T**4, one, Poly.zero(gf3), 3)
    assert data.D == T**3
    assert data.E == T
    assert data.E1 == T
    assert data.w.is_zero
    assert data.S in (-1, 1)
    check = verify_decomposition(data, T**4, one, Poly.zero(gf3), 3)
    assert check.class_size == 3
    assert check.ok
    # explicit: chi(w+g) = psi(g(0))
    for g in derivative_class(gf3, Poly.zero(gf3), 3):
        assert data.chi(data.w + g) == gf3.quad_char(g(0))


def test_decompose_zero_d_case(gf3):
    """a = T^2, M = 1, g' = T, d = 3 forces D = 0: S = 0 and the class is
    all mu = 0 (every a + g is a cube there)."""
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    a = T * T
    data = decompose(a, one, T, 3)
    assert data.D.is_zero
    assert data.S == 0
    check = verify_decomposition(data, a, one, T, 3)
    assert check.ok and check.all_zero


def test_decompose_preconditions(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    with pytest.raises(ValueError):
        decompose(T, T, one, 2)  # gcd(a, M) != 1
    with pytest.raises(ValueError):
        decompose(T**4, T, Poly.zero(gf3), 3)  # k = d + m
    ctx2 = field_new(2, 2)
    with pytest.raises(ValueError):
        decompose(Poly.t(ctx2), Poly.one(ctx2), Poly.zero(ctx2), 2)


def _classes(ctx, ks, ms, ds):
    """Every admissible (a, M, rprime, d) with deg a in ks, deg M in ms and
    class degree d in ds."""
    derivs = {d: [Poly(ctx, dc) for dc in all_derivatives(ctx, d)] for d in ds}
    for m in ms:
        for M in monics(ctx, m):
            for k in ks:
                for a in monics(ctx, k):
                    if gcd(a, M).degree != 0:
                        continue
                    for d in ds:
                        if k != d + m:
                            yield from ((a, M, rp, d) for rp in derivs[d])


def _sweep(ctx, ks, ms, ds):
    """decompose + verify_decomposition on every class of _classes; returns
    (classes checked, degenerate classes, counterexample count)."""
    checked = degenerate = bad = 0
    for a, M, rp, d in _classes(ctx, ks, ms, ds):
        try:
            data = decompose(a, M, rp, d)
        except DegenerateClassError:
            degenerate += 1
            for g in derivative_class(ctx, rp, d):
                assert mobius_oracle(a + g * M) == 0
            continue
        res = verify_decomposition(data, a, M, rp, d)
        checked += 1
        bad += len(res.counterexamples)
        assert data.S in (-1, 0, 1)
        assert (data.S == 0) == data.D.is_zero
        # structural invariants
        assert gcd(M, data.E).degree == 0
        assert (data.E % data.E1).is_zero
        assert data.chi.conductor() == data.E1
    return checked, degenerate, bad


def test_decompose_sweep_gf3_small(gf3):
    checked, degenerate, bad = _sweep(gf3, ks=[0, 1, 2], ms=[0], ds=[3])
    assert bad == 0
    assert checked > 0


def test_decompose_sweep_gf3_modulus(gf3):
    checked, degenerate, bad = _sweep(gf3, ks=[0, 1, 2, 3], ms=[1], ds=[2])
    assert bad == 0
    assert checked > 0


def test_decompose_sweep_gf3_quadratic_modulus(gf3):
    """deg M = 2, where M can be irreducible, split or a square."""
    checked, degenerate, bad = _sweep(gf3, ks=[0, 1], ms=[2], ds=[1, 2, 3])
    assert bad == 0
    assert checked > 0


def test_decompose_sweep_gf9(gf9):
    checked, degenerate, bad = _sweep(gf9, ks=[0, 1], ms=[0], ds=[2])
    assert bad == 0
    assert checked > 0


def _fitted_sign(data, a, M, rprime, d):
    """The class sign fitted at the first point where chi(w + g) != 0: mu
    there, from the discriminant route, divided by chi(w + g) = +-1."""
    for g in derivative_class(a.ctx, rprime, d):
        cv = data.chi(data.w + g)
        if cv:
            return mobius_pellet(a + g * M) * cv
    raise AssertionError("chi vanishes on a class that decompose did not flag")


GF9_SAMPLE = 500


# (field, deg a, deg M, class degree): GF(5) and GF(7) cover q = 1 and
# q = 3 mod 4; GF(9) is a seeded sample of criterion 02's classes
@pytest.mark.parametrize("pk,ks,ms,ds", [
    ((3, 1), [0, 1, 2, 3], [0, 1], [3]),
    ((5, 1), [0, 1, 2], [0, 1], [1, 2]),
    ((7, 1), [0, 1], [0, 1], [1, 2]),
    ((3, 2), [0, 1, 2], [0, 1], [1, 2, 3]),
], ids=["gf3", "gf5", "gf7", "gf9-sample"])
def test_closed_form_sign_matches_fitted_sign(pk, ks, ms, ds):
    ctx = field_new(*pk)
    classes = list(_classes(ctx, ks, ms, ds))
    if ctx.k > 1:
        classes = random.Random(9).sample(classes, GF9_SAMPLE)
    fitted = 0
    for a, M, rp, d in classes:
        try:
            data = decompose(a, M, rp, d)
        except DegenerateClassError:
            assert all(mobius_pellet(a + g * M) == 0 for g in derivative_class(ctx, rp, d))
            continue
        assert data.S == _fitted_sign(data, a, M, rp, d), (a, M, rp, d)
        fitted += 1
    assert fitted > len(classes) // 2


def test_decompose_makes_no_mu_call(gf3, monkeypatch):
    """S comes from resultants alone: decompose runs with every mu route
    patched to raise, on a signed class, a D = 0 class and a degenerate one."""
    def refuse(f):
        raise AssertionError("decompose called a mu route")

    for name in ("mobius", "mobius_pellet", "mobius_oracle"):
        monkeypatch.setattr(arith, name, refuse)
        monkeypatch.setattr(decomposition, name, refuse, raising=False)
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    assert decompose(T + one, T, T, 3).S in (-1, 1)
    assert decompose(T * T, one, T, 3).S == 0
    with pytest.raises(DegenerateClassError):
        decompose(T**5 + T**3, one, one, 3)


def test_degenerate_class_gf3(gf3):
    """a = T^5 + T^3, M = 1, g' = 1, d = 3: chi(w + g) = 0 at every point of
    the class, so decompose raises, and mu is 0 at all three points."""
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    a = T**5 + T**3
    with pytest.raises(DegenerateClassError):
        decompose(a, one, one, 3)
    values = [mobius_oracle(a + g) for g in derivative_class(gf3, one, 3)]
    assert values == [0, 0, 0]


def test_zero_locus_agreement(gf3):
    """chi(w+g) = 0 exactly where mu(a+gM) = 0 inside a class (D != 0)."""
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    a = T**4
    data = decompose(a, one, Poly.zero(gf3), 3)
    for g in derivative_class(gf3, Poly.zero(gf3), 3):
        assert (data.chi(data.w + g) == 0) == (mobius_oracle(a + g * one) == 0)


def test_principal_implies_square_negative(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    data = decompose(T**4, one, Poly.zero(gf3), 3)
    is_p, witness = principal_implies_square(data, T**4, one, Poly.zero(gf3))
    assert not is_p and witness is None  # E1 = T != 1


def test_principal_implies_square_positive(gf3):
    """Hunt degree-3 classes for principal characters (possible there: D can
    be a nonzero constant) and check the witness D = lambda A B^2, A | M."""
    one = Poly.one(gf3)
    found = 0
    d = 3
    for m in (0, 1):
        for M in monics(gf3, m):
            for k in (0, 1, 2, 3):
                if k == d + m:
                    continue
                for a in monics(gf3, k):
                    if gcd(a, M).degree != 0:
                        continue
                    for dc in all_derivatives(gf3, d):
                        try:
                            data = decompose(a, M, Poly(gf3, dc), d)
                        except DegenerateClassError:
                            continue
                        if data.D.is_zero:
                            continue
                        is_p, witness = principal_implies_square(data, a, M, Poly(gf3, dc))
                        assert is_p == (data.E1.degree == 0)
                        if is_p:
                            A, B, lam = witness
                            assert Poly.constant(gf3, lam) * A * B * B == data.D
                            assert (M % A).is_zero
                            found += 1
    assert found > 0
