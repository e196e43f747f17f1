import pytest
from hypothesis import given, settings, strategies as st

from ffmobius import (
    Poly,
    divisor_count,
    divisors,
    factor,
    field_new,
    gcd,
    irreducibles,
    is_irreducible,
    is_squarefree,
    monics,
    rad,
    rad1,
)
from ffmobius.arith import inverse_mod, jacobi
from ffmobius.characters import local_logs, quadratic_character_mod, residue_ring
from ffmobius.factor import distinct_degree_split, pth_root


def test_factor_examples(gf3):
    T = Poly.t(gf3)
    two = Poly.constant(gf3, 2)
    fac = factor(T * T + two)
    assert [(str(p), e) for p, e in fac.factors] == [("Poly(T+1)", 1), ("Poly(T+2)", 1)]
    prime = T * T + Poly.one(gf3)
    assert factor(prime).factors == ((prime, 1),)
    with pytest.raises(ValueError):
        factor(Poly.zero(gf3))


def test_factor_t9_minus_t(gf3):
    """T^9 - T = product of all monic irreducibles of degree dividing 2."""
    T = Poly.t(gf3)
    f = T**9 - T
    fac = factor(f)
    assert fac.is_squarefree
    expected = [p for p in irreducibles(gf3, 1)] + [p for p in irreducibles(gf3, 2)]
    assert sorted(p.coeffs for p, _ in fac.factors) == sorted(p.coeffs for p in expected)
    assert fac.reconstruct(gf3) == f


@pytest.mark.parametrize("ctxname,dmax", [("gf3", 6), ("gf5", 4), ("gf9", 4)])
def test_factor_reconstructs_exhaustive(ctxname, dmax, request):
    ctx = request.getfixturevalue(ctxname)
    for d in range(0, dmax + 1):
        for f in monics(ctx, d):
            fac = factor(f)
            assert fac.reconstruct(ctx) == f
            for prime, mult in fac.factors:
                assert mult >= 1
                assert prime.is_monic
                assert is_irreducible(prime)


def test_factor_nonmonic_leading(gf5):
    T = Poly.t(gf5)
    f = (T + Poly.one(gf5)) * (T + Poly.constant(gf5, 3)) * Poly.constant(gf5, 2)
    fac = factor(f)
    assert fac.leading == 2
    assert fac.reconstruct(gf5) == f


def test_factor_is_deterministic(gf9):
    f = Poly(gf9, [3, 1, 4, 1, 5, 1])
    first = factor(f)
    factor.cache_clear()
    assert factor(f) == first


def _factor_module():
    import importlib

    return importlib.import_module("ffmobius.factor")  # the package exports a function of that name


def _ask_every_memo(f: Poly):
    """Ask every Poly-keyed memo about the monic f and check each answer
    against f and its own field; returns the factorization."""
    ctx = f.ctx
    T = Poly.t(ctx)
    one = Poly.one(ctx)
    fac = factor(f)
    assert fac.reconstruct(ctx) == f
    split = distinct_degree_split(f)
    product = one
    for P, _, e in split:
        product = product * P**e
    assert product == f
    ring = residue_ring(f)
    assert ring.M == f
    x = T + one
    if gcd(x, f).degree == 0:
        inverse = inverse_mod(x, f)
        assert (x * inverse) % f == one and inverse.ctx.key == ctx.key
        assert ring.inv_index[ring.index(x)] == ring.index(inverse)
    if is_squarefree(f):
        chi = quadratic_character_mod(f, f)
        assert chi.modulus == f
        shifts = [T + Poly.constant(ctx, c) for c in range(ctx.q)]
        assert [chi(g) for g in shifts] == [jacobi(g, f) for g in shifts]
    if is_irreducible(f):
        assert local_logs(f).prime == f
    assert all(P.ctx.key == ctx.key for P, _ in fac.factors)
    assert all(P.ctx.key == ctx.key for P, _, _ in split)
    return fac


def test_factor_memo_keeps_gf9_moduli_apart():
    """Two GF(9) contexts with different moduli read the same coefficient
    tuples as different polynomials; no Poly-keyed memo (factor,
    distinct_degree_split, residue_ring, inverse_mod, quadratic_character_mod,
    local_logs) may hand one the other's answer."""
    a = field_new(3, 2)
    b = field_new(3, 2, modulus=[2, 1, 1])
    assert a.modulus != b.modulus
    differ = 0
    for fa in monics(a, 2):
        fb = Poly(b, fa.coeffs)
        for _ in range(2):  # the second pass is served from the memos
            ra, rb = _ask_every_memo(fa), _ask_every_memo(fb)
        differ += [p.coeffs for p, _ in ra.factors] != [p.coeffs for p, _ in rb.factors]
    assert differ > 0


def test_factor_memo_is_bounded_by_its_constant():
    from ffmobius.config import FACTOR_CACHE_SIZE

    assert factor.cache_info().maxsize == FACTOR_CACHE_SIZE
    factor.cache_clear()
    # the linear polynomials c1*T + c0 over GF(p): more distinct inputs than
    # the memo holds, each factored without a distinct-degree step
    p = 2
    while p * (p - 1) <= FACTOR_CACHE_SIZE or any(p % x == 0 for x in range(2, p)):
        p += 1
    ctx = field_new(p)
    for c1 in range(1, p):
        for c0 in range(p):
            factor(Poly(ctx, (c0, c1)))
    assert factor.cache_info().currsize == FACTOR_CACHE_SIZE


def _by_degree_and_mult(ctx, triples):
    out = {}
    for P, d, e in triples:
        out[(d, e)] = out.get((d, e), Poly.one(ctx)) * P
    return out


@pytest.mark.parametrize("ctxname,dmax", [("gf3", 6), ("gf9", 4), ("gf4", 4)])
def test_distinct_degree_split_matches_factor(ctxname, dmax, request):
    """Per (degree, multiplicity), the split's product is the product of the
    primes factor finds, on every monic f; a non-monic f is refused."""
    ctx = request.getfixturevalue(ctxname)
    for n in range(dmax + 1):
        for f in monics(ctx, n):
            want = _by_degree_and_mult(ctx, ((P, P.degree, e) for P, e in factor(f).factors))
            assert _by_degree_and_mult(ctx, distinct_degree_split(f)) == want
    with pytest.raises(ValueError):
        distinct_degree_split(Poly(ctx, [1, 2]))


def test_squarefree_agrees_with_oracle_exhaustive(gf3):
    for d in range(1, 7):
        for f in monics(gf3, d):
            assert is_squarefree(f) == factor(f).is_squarefree


def test_char_p_powers(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    f = (T + one) ** 3
    assert f == T**3 + one  # freshman's dream
    assert factor(f).factors == ((T + one, 3),)
    assert pth_root(f) == T + one
    g = (T**2 + one) ** 6
    assert factor(g).factors == ((T**2 + one, 6),)


MU_INT = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1}


def _necklace(q, n):
    total = 0
    for j in MU_INT:
        if n % j == 0:
            total += MU_INT[j] * q ** (n // j)
    return total // n


@pytest.mark.parametrize("ctxname,dmax", [("gf3", 6), ("gf9", 4), ("gf5", 4)])
def test_irreducible_counts(ctxname, dmax, request):
    ctx = request.getfixturevalue(ctxname)
    for n in range(1, dmax + 1):
        got = sum(1 for _ in irreducibles(ctx, n))
        assert got == _necklace(ctx.q, n)


def test_rad_rad1(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    f = T * T * (T + one)
    assert rad(f) == T * (T + one)
    assert rad1(f) == T + one
    assert rad(one) == one
    assert rad1(one) == one
    g = (T + one) * (T + Poly.constant(gf3, 2))
    assert rad1(g * g) == one
    with pytest.raises(ValueError):
        rad(Poly.zero(gf3))


def test_divisors(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    f = T**2 * (T + one)
    ds = divisors(f)
    assert len(ds) == 6
    assert all((f % d).is_zero for d in ds)
    assert divisor_count(f) == 6
    assert divisor_count(one) == 1


def test_char2_factorization():
    ctx = field_new(2, 2)  # GF(4)
    T = Poly.t(ctx)
    for f in monics(ctx, 3):
        fac = factor(f)
        assert fac.reconstruct(ctx) == f
    assert is_irreducible(T**2 + T + Poly.one(ctx)) is False  # splits over GF(4)


@given(st.lists(st.integers(0, 8), min_size=1, max_size=6))
@settings(max_examples=40)
def test_factor_roundtrip_random_gf9(coeffs):
    ctx = field_new(3, 2)
    f = Poly(ctx, coeffs)
    if f.is_zero:
        return
    assert factor(f).reconstruct(ctx) == f


def test_cantor_zassenhaus_stream_seeded_on_first_draw(gf3, monkeypatch):
    """A factorization that needs no equal-degree draw seeds no stream; one
    that does seeds exactly one and still finds the same factors."""
    import random
    from types import SimpleNamespace

    factor_mod = _factor_module()
    seeds = []

    class Counting(random.Random):
        def seed(self, a=None, version=2):
            seeds.append(a)
            super().seed(a, version)

    monkeypatch.setattr(factor_mod, "random", SimpleNamespace(Random=Counting))
    factor.cache_clear()  # a memoised factorization draws nothing
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    for f in (T**3 + T * Poly.constant(gf3, 2) + one, T * (T + one) ** 2, T**5):
        factor(f)
    assert seeds == []
    p1, p2 = T**2 + one, T**2 + T + Poly.constant(gf3, 2)
    assert factor(p1 * p2).factors == tuple(sorted([(p1, 1), (p2, 1)], key=lambda pe: pe[0].sort_key()))
    assert len(seeds) == 1
