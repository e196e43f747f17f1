import pytest
from hypothesis import given, settings, strategies as st

from ffmobius import (
    Poly,
    discriminant,
    ext_gcd,
    field_new,
    format_poly,
    gcd,
    is_squarefree,
    monics,
    parse_poly,
    poly_index,
    polys_below,
    resultant,
)
from ffmobius.extension import embed_field, lift_poly
from ffmobius.poly import NEG_INF, monic_from_index, poly_from_index


def coeff_lists(q, max_len=5):
    return st.lists(st.integers(0, q - 1), max_size=max_len)


def test_zero_polynomial_degree(gf3):
    z = Poly.zero(gf3)
    assert z.is_zero
    assert z.degree == NEG_INF
    assert z.degree < 0 and z.degree < -10**9
    assert z.norm == 0


def test_norm(gf3):
    T = Poly.t(gf3)
    assert (T**4).norm == 81
    assert Poly.one(gf3).norm == 1


def test_trailing_zeros_stripped(gf3):
    f = Poly(gf3, [1, 2, 0, 0])
    assert f.coeffs == (1, 2)
    assert f.degree == 1


def test_divrem_examples(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    q, r = divmod(T * T + one, T)
    assert q == T and r == one
    f = T**3 + Poly(gf3, [1, 2])
    q, r = divmod(f, one)
    assert q == f and r.is_zero
    # remainder at the root: f mod (T+1) = f(-1)
    q, r = divmod(T**3 + Poly(gf3, [1, 2]), T + one)
    assert r == Poly.constant(gf3, f(2))
    assert q * (T + one) + r == f


def test_division_by_zero(gf3):
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.t(gf3), Poly.zero(gf3))


def test_divrem_reconstruction_exhaustive(gf3):
    """f = q*g + r with deg r < deg g, for every pair with degrees <= 4."""
    all_f = [poly_from_index(gf3, i, 5) for i in range(3**5)]
    gs = [g for g in all_f if not g.is_zero]
    for f in all_f:
        for g in gs:
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.is_zero or r.degree < g.degree


@given(coeff_lists(3), coeff_lists(3))
def test_mul_commutes_gf3(ca, cb):
    ctx = field_new(3)
    a, b = Poly(ctx, ca), Poly(ctx, cb)
    assert a * b == b * a


@given(coeff_lists(9, 4), coeff_lists(9, 4), coeff_lists(9, 4))
@settings(max_examples=60)
def test_ring_axioms_gf9(ca, cb, cc):
    ctx = field_new(3, 2)
    a, b, c = Poly(ctx, ca), Poly(ctx, cb), Poly(ctx, cc)
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + (b + c) == (a + b) + c


@given(coeff_lists(3, 6), coeff_lists(3, 4))
def test_divmod_property_gf3(ca, cb):
    ctx = field_new(3)
    a, b = Poly(ctx, ca), Poly(ctx, cb)
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


def test_gcd_and_ext_gcd(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    f = (T + one) ** 2 * T
    g = (T + one) * (T + Poly.constant(gf3, 2))
    d = gcd(f, g)
    assert d == T + one
    dd, u, v = ext_gcd(f, g)
    assert dd == d
    assert u * f + v * g == d


def test_derivative_char3(gf3):
    T = Poly.t(gf3)
    assert (T**3).derivative().is_zero
    f = T**4 + Poly(gf3, [0, 0, 2])  # T^4 + 2T^2
    assert f.derivative() == Poly(gf3, [0, 1, 0, 1])  # 4T^3+4T = T^3+T


def test_resultant_examples(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    assert resultant(T + one, T) == 2  # value of T at -1
    g = T**3 + Poly(gf3, [2, 1])
    c = Poly.constant(gf3, 2)
    assert resultant(g, c) == gf3.pow(2, 3)
    with pytest.raises(ValueError):
        resultant(Poly.zero(gf3), T)


def test_resultant_swap_and_multiplicativity(gf3):
    """Res(f,g) = (-1)^(deg f deg g) Res(g,f), every pair of degrees <= 3."""
    polys = [f for f in (poly_from_index(gf3, i, 4) for i in range(3**4)) if not f.is_zero and f.degree >= 1]
    for f in polys:
        for g in polys:
            sign = -1 if (f.degree * g.degree) % 2 else 1
            lhs = resultant(f, g)
            rhs = resultant(g, f)
            assert lhs == (rhs if sign == 1 else gf3.neg(rhs))
    for f in polys[::7]:
        for g in polys[::11]:
            for h in polys[::13]:
                assert resultant(f * h, g) == gf3.mul(resultant(f, g), resultant(h, g))


def _product_over_roots(f, g):
    """lc(f)^deg(g) * prod g(alpha) over the roots of f with multiplicity,
    evaluated factor by factor in that factor's own splitting field and
    pulled back through the (injective) embedding."""
    from ffmobius import factor as _factor

    ctx = f.ctx
    out = ctx.pow(f.lc, g.degree)
    for prime, mult in _factor(f).factors:
        big, emb = embed_field(ctx, prime.degree)
        back = {emb(x): x for x in range(ctx.q)}
        pb, gb = lift_poly(prime, big, emb), lift_poly(g, big, emb)
        norm = 1
        nroots = 0
        for alpha in range(big.q):
            if pb(alpha) == 0:
                norm = big.mul(norm, gb(alpha))
                nroots += 1
        assert nroots == prime.degree  # separable, splits completely
        base = back[norm]  # Galois-invariant, so it lies in the base image
        out = ctx.mul(out, ctx.pow(base, mult))
    return out


@pytest.mark.parametrize("pk,step", [((3, 1), 11), ((3, 2), 151)])
def test_resultant_equals_product_over_roots(pk, step):
    """Euclidean resultant against the product over roots in splitting
    fields, pairs of degree <= 3 over GF(3) and GF(9) (deterministically
    thinned)."""
    ctx = field_new(*pk)
    polys = [f for f in (poly_from_index(ctx, i, 4) for i in range(ctx.q**4)) if not f.is_zero and f.degree >= 1]
    for f in polys[::step]:
        for g in polys[:: 2 * step + 1]:
            assert resultant(f, g) == _product_over_roots(f, g)


def test_discriminant_examples(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    assert discriminant(T * T + one) == 2  # b^2-4ac = -4 = 2
    assert discriminant(T * T + T) == 1
    assert discriminant((T + one) ** 2) == 0
    with pytest.raises(ValueError):
        discriminant(one)


def test_discriminant_matches_quadratic_formula(gf5):
    T = Poly.t(gf5)
    for b in range(5):
        for c in range(5):
            f = T * T + Poly(gf5, [c, b])
            expect = (b * b - 4 * c) % 5
            assert discriminant(f) == expect


def test_is_squarefree(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    assert is_squarefree(T * (T + one))
    assert not is_squarefree(T * T)
    assert not is_squarefree(T**3 + one)  # (T+1)^3 in characteristic 3
    with pytest.raises(ValueError):
        is_squarefree(Poly.zero(gf3))


def test_monics_counts(gf3):
    assert sum(1 for _ in monics(gf3, 2)) == 9
    ms = list(monics(gf3, 0))
    assert ms == [Poly.one(gf3)]
    assert all(f.is_monic and f.degree == 2 for f in monics(gf3, 2))
    assert len({f.coeffs for f in monics(gf3, 3)}) == 27


def test_polys_below_counts(gf3):
    below = list(polys_below(gf3, 1))
    assert len(below) == 3
    assert below[0].is_zero
    assert len(list(polys_below(gf3, 3))) == 27


@pytest.mark.parametrize("pk", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_walks_follow_encoding_order(pk):
    """monics and polys_below list their families in base-q index order,
    which the sieve tables, derivative classes and golden files rely on."""
    ctx = field_new(*pk)
    for d in range(5):
        assert [f.coeffs for f in monics(ctx, d)] == [
            monic_from_index(ctx, d, i).coeffs for i in range(ctx.q**d)]
        assert [f.coeffs for f in polys_below(ctx, d)] == [
            poly_from_index(ctx, i, d).coeffs for i in range(ctx.q**d)]


def _full_scan_images(ctx, L):
    """The embedding GF(q) -> GF(q^L) by its definition: send the base
    modulus to its smallest root, found by evaluating at every element."""
    big = field_new(ctx.p, ctx.k * L)
    mod = Poly(big, ctx.modulus)
    root = next(x for x in range(big.q) if mod(x) == 0)
    powers = [big.pow(root, i) for i in range(ctx.k)]
    images = []
    for x in range(ctx.q):
        acc = 0
        for c, rpow in zip(ctx.coords(x), powers):
            acc = big.add(acc, big.mul(c, rpow))
        images.append(acc)
    return images


@pytest.mark.parametrize("pk,L", [((2, 2), 5), ((3, 2), 3), ((5, 2), 2), ((5, 1), 3)])
def test_embedding_matches_full_scan(pk, L):
    ctx = field_new(*pk)
    _, emb = embed_field(ctx, L)
    assert [emb(x) for x in range(ctx.q)] == _full_scan_images(ctx, L)


def test_monic_from_index_roundtrip(gf9):
    for i in range(81):
        f = monic_from_index(gf9, 2, i)
        assert poly_index(f) == i + 81


def test_parse_and_format(gf3):
    f = parse_poly(gf3, "T^4+2*T+1")
    assert f.coeffs == (1, 2, 0, 0, 1)
    assert format_poly(f) == "T^4+2*T+1"
    assert parse_poly(gf3, "coeffs:[1,2,0,0,1]") == f
    assert parse_poly(gf3, "0").is_zero
    assert format_poly(Poly.zero(gf3)) == "0"
    assert parse_poly(gf3, "2T").coeffs == (0, 2)
    assert parse_poly(gf3, "T+T") == Poly(gf3, [0, 2])
    with pytest.raises(ValueError):
        parse_poly(gf3, "5*T")
    with pytest.raises(ValueError):
        parse_poly(gf3, "T^-1")


def test_format_parse_roundtrip_gf9(gf9):
    for i in range(0, 9**3, 7):
        f = poly_from_index(gf9, i, 3)
        assert parse_poly(gf9, format_poly(f)) == f
