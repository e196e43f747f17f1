import pytest
from hypothesis import given, strategies as st

from ffmobius import Poly, ResourceLimitError, field_new, is_irreducible


def test_gf3_basics(gf3):
    assert gf3.q == 3
    assert gf3.generator == 2  # smallest primitive element
    assert gf3.add(1, 2) == 0
    assert gf3.mul(2, 2) == 1
    assert gf3.inv(2) == 2


def test_default_modulus_gf9_is_first_irreducible(gf9):
    # monic quadratics over GF(3) in encoding order: T^2 reduces, T^2+1 does not
    assert gf9.modulus == (1, 0, 1)
    assert is_irreducible(Poly(field_new(3), gf9.modulus))


def test_composite_characteristic_rejected():
    with pytest.raises(ValueError):
        field_new(4, 1)
    with pytest.raises(ValueError):
        field_new(9, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        field_new(3, 2, modulus=[0, 0, 1])  # T^2


def test_table_cap(monkeypatch):
    monkeypatch.delenv("FFMOBIUS_TABLE_CAP", raising=False)
    with pytest.raises(ResourceLimitError):
        field_new(2, 25)  # 2^25 is past the default cap of 2^20
    field_new(5)  # interned: the cap below must still refuse it
    monkeypatch.setenv("FFMOBIUS_TABLE_CAP", "4")
    with pytest.raises(ResourceLimitError):
        field_new(5)
    assert field_new(3).q == 3
    monkeypatch.setenv("FFMOBIUS_TABLE_CAP", "2")
    with pytest.raises(ResourceLimitError):
        field_new(3)


def test_field_new_interns_contexts():
    """One context per (p, k, modulus), whether the modulus is given or
    chosen; a different modulus is a different context."""
    from ffmobius import field
    from ffmobius.config import FIELD_CACHE_SIZE

    a = field_new(3, 2)
    assert field_new(3, 2) is a
    assert field_new(3, 2, modulus=list(a.modulus)) is a
    assert field_new(3) is field_new(3, 1, modulus=[0, 1])
    b = field_new(3, 2, modulus=[2, 1, 1])
    assert b is not a and b.modulus != a.modulus
    assert field_new(3, 2, modulus=(2, 1, 1)) is b
    assert field._build.cache_info().maxsize == FIELD_CACHE_SIZE


def test_encoding_roundtrip(gf9):
    for x in gf9.elements():
        assert gf9.encode(gf9.coords(x)) == x


@pytest.mark.parametrize("ctxname", ["gf3", "gf9", "gf25"])
def test_field_axioms_exhaustive(ctxname, request):
    ctx = request.getfixturevalue(ctxname)
    q = ctx.q
    for a in range(q):
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
    for a in range(q):
        for b in range(q):
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)


def test_distributivity_gf9(gf9):
    q = gf9.q
    for a in range(q):
        for b in range(q):
            for c in range(0, q, 2):
                lhs = gf9.mul(a, gf9.add(b, c))
                rhs = gf9.add(gf9.mul(a, b), gf9.mul(a, c))
                assert lhs == rhs


def test_dlog_inverts_exponentiation(gf9):
    for x in gf9.units():
        assert gf9.pow(gf9.generator, gf9.dlog(x)) == x
    with pytest.raises(ValueError):
        gf9.dlog(0)


def test_generator_has_full_order(gf25):
    seen = set()
    x = 1
    for _ in range(gf25.q - 1):
        seen.add(x)
        x = gf25.mul(x, gf25.generator)
    assert len(seen) == gf25.q - 1


def test_quad_char_values(gf3):
    assert gf3.quad_char(0) == 0
    assert gf3.quad_char(1) == 1
    assert gf3.quad_char(2) == -1


@pytest.mark.parametrize("ctxname", ["gf3", "gf5", "gf7", "gf9", "gf25"])
def test_quad_char_structure(ctxname, request):
    ctx = request.getfixturevalue(ctxname)
    table = ctx.quad_char_table
    assert table[0] == 0
    # squares match x^((q-1)/2) and the two classes are balanced
    for x in ctx.units():
        assert table[x] == (1 if ctx.pow(x, (ctx.q - 1) // 2) == 1 else -1)
        y = ctx.mul(x, x)
        assert table[y] == 1
    assert sum(1 for x in ctx.units() if table[x] == 1) == (ctx.q - 1) // 2
    assert sum(table[x] for x in ctx.units()) == 0


def test_quad_char_multiplicative(gf9):
    for x in range(gf9.q):
        for y in range(gf9.q):
            assert gf9.quad_char(gf9.mul(x, y)) == gf9.quad_char(x) * gf9.quad_char(y)


def test_char2_field_generic_but_no_quad_char():
    ctx = field_new(2, 3)
    assert ctx.q == 8
    for a in range(8):
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
    with pytest.raises(ValueError):
        ctx.quad_char(3)


def test_frobenius_is_field_automorphism(gf9):
    frob = gf9.frobenius
    assert sorted(frob(x) for x in gf9.elements()) == list(gf9.elements())
    for a in range(gf9.q):
        for b in range(gf9.q):
            assert frob(gf9.add(a, b)) == gf9.add(frob(a), frob(b))
            assert frob(gf9.mul(a, b)) == gf9.mul(frob(a), frob(b))
    for x in gf9.elements():
        y = x
        for _ in range(gf9.k):
            y = frob(y)
        assert y == x


def test_trace_to_prime(gf9):
    # trace is F_3-linear onto the prime field and not identically zero
    values = {gf9.trace_to_prime(x) for x in gf9.elements()}
    assert values == {0, 1, 2}
    for x in range(gf9.q):
        for y in range(gf9.q):
            s = gf9.trace_to_prime(gf9.add(x, y))
            assert s == (gf9.trace_to_prime(x) + gf9.trace_to_prime(y)) % 3


@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_gf25_associativity(a, b, c):
    ctx = field_new(5, 2)
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
