from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ffmobius import (
    Poly,
    arith,
    euler_phi,
    field_new,
    gcd,
    inverse_mod,
    jacobi,
    jacobi_oracle,
    mobius,
    mobius_oracle,
    mobius_pellet,
    monics,
    polys_below,
    singular_series,
    von_mangoldt,
)
from ffmobius.factor import is_irreducible


def test_mobius_values(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    assert mobius_pellet(one) == 1
    assert mobius_pellet(T) == -1
    assert mobius_pellet(T * T + T) == 1  # (-1)^2 psi(1), = T(T+1)
    assert mobius_pellet(T * T) == 0
    assert mobius_oracle(T * (T + one) * (T + Poly.constant(gf3, 2))) == -1
    with pytest.raises(ValueError):
        mobius_pellet(T.scale(2))  # non-monic


def test_mobius_rejects_char2():
    ctx = field_new(2, 2)
    with pytest.raises(ValueError):
        mobius_pellet(Poly.t(ctx))


@pytest.mark.parametrize("ctxname,dmax", [("gf3", 5), ("gf5", 4), ("gf7", 3), ("gf9", 3)])
def test_mobius_routes_agree(ctxname, dmax, request):
    """Discriminant route == factorization route; the full-depth sweep of
    this equivalence lives in the acceptance suite."""
    ctx = request.getfixturevalue(ctxname)
    for d in range(0, dmax + 1):
        for f in monics(ctx, d):
            assert mobius_pellet(f) == mobius_oracle(f)


def test_mobius_multiplicative_on_coprime(gf3):
    fs = [f for d in range(1, 4) for f in monics(gf3, d)]
    for f in fs:
        for g in fs:
            if gcd(f, g).degree == 0:
                assert mobius(f * g) == mobius(f) * mobius(g)


def test_von_mangoldt_values(gf3):
    T = Poly.t(gf3)
    assert von_mangoldt(T**3) == 1
    assert von_mangoldt(T * T + Poly.one(gf3)) == 2
    assert von_mangoldt(T * T + Poly.constant(gf3, 2)) == 0
    assert von_mangoldt(Poly.one(gf3)) == 0


def test_zeta_identities(gf3):
    """sum mu over monics of degree d is 1, -q, 0; sum Lambda is q^d."""
    for d in range(0, 7):
        mu_sum = sum(mobius(f) for f in monics(gf3, d))
        expected = 1 if d == 0 else (-3 if d == 1 else 0)
        assert mu_sum == expected
        if d >= 1:
            assert sum(von_mangoldt(f) for f in monics(gf3, d)) == 3**d


def test_euler_phi(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    assert euler_phi(T) == 2
    assert euler_phi(T * T) == 6
    assert euler_phi(T * (T + one)) == 4
    assert euler_phi(one) == 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_euler_phi_counts_units(d, gf3):
    for i, M in enumerate(monics(gf3, d)):
        if i % 5:
            continue
        count = sum(1 for r in polys_below(gf3, d) if gcd(r, M).degree == 0)
        assert euler_phi(M) == count


def test_jacobi_examples(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    assert jacobi(T, T + one) == -1  # residue 2 is a non-square mod 3
    assert jacobi(one, T * T + one) == 1
    h = T + Poly.constant(gf3, 2)
    g = T * T + one
    assert jacobi(h * h, g) == 1
    assert jacobi(T, T * T) == 0
    with pytest.raises(ValueError):
        jacobi(T, one)


@pytest.mark.parametrize("ctxname,fstep,gstep", [("gf3", 1, 1), ("gf9", 61, 83)])
def test_jacobi_fast_path_equals_euler_path(ctxname, fstep, gstep, request):
    """(f/g) via lc-and-resultant == multiplicative Euler-criterion route,
    exhaustive over GF(3) for deg f < 4 (plus 0) and 1 <= deg g <= 3,
    deterministically thinned over GF(9)."""
    ctx = request.getfixturevalue(ctxname)
    from ffmobius.poly import poly_from_index

    fs = [poly_from_index(ctx, i, 4) for i in range(0, ctx.q**4, fstep)]
    gs = [g for i in range(0, ctx.q**4, gstep) for g in [poly_from_index(ctx, i, 4)] if g.degree >= 1]
    for f in fs:
        for g in gs:
            assert jacobi(f, g) == jacobi_oracle(f, g)


def test_jacobi_completely_multiplicative_in_g(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    f = T**3 + T + one
    gs = [T, T + one, T * T + one, (T + one) ** 2]
    for g1 in gs:
        for g2 in gs:
            assert jacobi(f, g1 * g2) == jacobi(f, g1) * jacobi(f, g2)


@pytest.mark.parametrize("ctxname", ["gf3", "gf9"])
def test_quadratic_reciprocity(ctxname, request):
    """(f/g)(g/f) = (-1)^(d(f) d(g) (q-1)/2) for monic coprime nonconstant
    pairs, exhaustive d <= 3 over GF(3), thinned over GF(9)."""
    ctx = request.getfixturevalue(ctxname)
    step = 1 if ctx.q == 3 else 7
    polys = [f for d in range(1, 4) for i, f in enumerate(monics(ctx, d)) if i % step == 0]
    sign_unit = (-1) ** ((ctx.q - 1) // 2)
    for f in polys:
        for g in polys:
            if gcd(f, g).degree != 0:
                continue
            expected = sign_unit ** (f.degree * g.degree)
            assert jacobi(f, g) * jacobi(g, f) == expected


def test_inverse_mod(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    two = Poly.constant(gf3, 2)
    assert inverse_mod(two, T) == two
    assert inverse_mod(T + one, T) == one
    with pytest.raises(ValueError):
        inverse_mod(T, T * T)


def test_inverse_mod_exhaustive(gf3):
    for d in range(1, 4):
        for M in monics(gf3, d):
            for f in polys_below(gf3, d):
                if f.is_zero or gcd(f, M).degree != 0:
                    continue
                r = inverse_mod(f, M)
                assert r.degree < M.degree
                assert ((f * r) % M) == Poly.one(gf3)


def test_singular_series_examples(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    s = singular_series(one, 1)
    assert s.value == Fraction(27, 64)
    s2 = singular_series(T, 1)
    assert s2.value == Fraction(27, 32)
    with pytest.raises(ValueError):
        singular_series(one, 0)
    with pytest.raises(ValueError):
        singular_series(Poly.zero(gf3), 2)


def test_singular_series_methods_converge(gf3):
    """The two truncation routes approach each other: per-shift tail bound
    2 (q-1)^-N from N = 4 on, and the worst case over the three smallest
    shifts decays monotonically (individual shifts wobble, the envelope
    does not; the deeper N = 4..8 sweep lives in the acceptance suite)."""
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    shifts = [one, T, T + one]
    worst = {}
    for N in range(2, 7):
        diffs = []
        for a in shifts:
            ep = singular_series(a, N, "euler-product").value
            cs = singular_series(a, N, "coefficient-sum").value
            diffs.append(abs(ep - cs))
            if N >= 4:
                assert diffs[-1] <= 2 * Fraction(1, (gf3.q - 1) ** N)
        worst[N] = max(diffs)
    for N in range(2, 6):
        assert worst[N + 1] < worst[N]


def _euler_product_per_prime(a, N):
    """The truncated Euler product, one factor per monic irreducible P."""
    value = Fraction(1)
    for k in range(1, N + 1):
        norm = a.ctx.q**k
        for P in monics(a.ctx, k):
            if is_irreducible(P):
                if (a % P).is_zero:
                    value *= Fraction(norm, norm - 1)
                else:
                    value *= 1 - Fraction(1, (norm - 1) ** 2)
    return value


def _euler_product_fraction(q, N, histogram):
    """The truncated Euler product as one Fraction of the full products."""
    by_degree = dict(histogram)
    num = den = 1
    for d in range(1, N + 1):
        npow = q**d
        dividing = by_degree.get(d, 0)
        generic = arith._irreducible_count(q, d) - dividing
        base = (npow - 1) ** 2
        num *= npow**dividing * (base - 1) ** generic
        den *= (npow - 1) ** dividing * base**generic
    return Fraction(num, den)


def test_euler_product_cancels_to_the_reduced_fraction():
    """Cancelling prime exponents gives the reduced Fraction of the full
    products, with and without dividing primes, and 0 where GF(2)'s
    linear primes are generic."""
    cases = [(2, 1, ()), (2, 1, ((1, 2),)), (2, 4, ((1, 1), (3, 1))), (3, 1, ()), (3, 8, ()),
             (3, 6, ((1, 2), (2, 1))), (4, 4, ((2, 3),)), (5, 3, ((1, 5),)), (9, 3, ((1, 1), (3, 2)))]
    for q, N, histogram in cases:
        value = arith._euler_product(q, N, histogram)
        expected = _euler_product_fraction(q, N, histogram)
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
        assert value == expected and hash(value) == hash(expected)
    assert arith._euler_product(2, 3, ((1, 1),)) == 0


def test_singular_series_memo_matches_fresh(gf3, gf9):
    """The memoised Euler product equals a fresh one and a per-prime product,
    and shifts whose prime divisors have the same degrees share one entry."""
    for ctx in (gf3, gf9):
        T, one = Poly.t(ctx), Poly.one(ctx)
        shifts = [one, T, T + one, T**2 + one, T**2 * (T + one), T**3 + T + one]
        for N in (1, 2, 3):
            memo = [singular_series(a, N).value for a in shifts]
            arith._euler_product.cache_clear()
            assert [singular_series(a, N).value for a in shifts] == memo
            assert memo == [_euler_product_per_prime(a, N) for a in shifts]
    T, one = Poly.t(gf9), Poly.one(gf9)
    arith._euler_product.cache_clear()
    for a in (T, T + one, T + Poly.constant(gf9, 5)):  # one linear prime each
        singular_series(a, 4)
    assert arith._euler_product.cache_info().hits == 2


def test_singular_series_coefficient_sum_unchanged(gf3, gf9):
    """Coefficient-sum values, recorded before the Euler product was memoised."""
    T, one = Poly.t(gf3), Poly.one(gf3)
    cases = [(one, 2, Fraction(3, 4)), (T, 2, Fraction(5, 4)),
             (T * T + one, 3, Fraction(35, 52)), (T * (T + one), 3, Fraction(335, 208)),
             (Poly.one(gf9), 2, Fraction(9, 10)), (Poly.t(gf9), 2, Fraction(41, 40))]
    for a, N, value in cases:
        assert singular_series(a, N, "coefficient-sum").value == value


@given(st.integers(0, 3**4 - 1))
@settings(max_examples=30)
def test_mobius_pellet_oracle_random_shift(idx):
    ctx = field_new(3)
    from ffmobius.poly import monic_from_index

    f = monic_from_index(ctx, 4, idx)
    assert mobius_pellet(f) == mobius_oracle(f)
