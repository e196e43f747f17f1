import itertools

import pytest
from hypothesis import given, strategies as st

from ffmobius import Poly, ResourceLimitError, field_new, is_irreducible
from ffmobius.factor import irreducibles
from ffmobius.field import _build, _default_modulus, _int_factorization, cyclic_group, pair_tables
from ffmobius.poly import _digits, _index, _mod, _mul, _powmod, _trim


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
    # T^2 over GF(3), (T^2+T+1)^2 over GF(2), (T+2)(T+3) over GF(5)
    for p, modulus in [(3, (0, 0, 1)), (2, (1, 0, 1, 0, 1)), (5, (1, 0, 1))]:
        with pytest.raises(ValueError):
            field_new(p, len(modulus) - 1, modulus=modulus)
        with pytest.raises(ValueError):
            cyclic_group(field_new(p), modulus)


def _cyclic_group_per_element(ctx, f):
    """cyclic_group by one _mul/_mod per power: the smallest residue in
    encoding order that passes the _powmod primitivity test, its powers,
    and their inverse table."""
    q, d = ctx.q, len(f) - 1
    order = q**d - 1
    ells = _int_factorization(order)
    g = next(idx for idx in range(1, order + 1)
             if all(_powmod(ctx, _trim(_digits(q, idx, d)), order // ell, f) != (1,) for ell in ells))
    exp = [1] * order
    acc = (1,)
    gen = _trim(_digits(q, g, d))
    for i in range(1, order):
        acc = _mod(ctx, _mul(ctx, gen, acc), f)
        exp[i] = _index(q, acc)
    dlog = [-1] * (order + 1)
    for i, v in enumerate(exp):
        dlog[v] = i
    return g, exp, dlog


@pytest.mark.parametrize("p, k", [(2, 12), (3, 8), (5, 4), (65537, 1)])
def test_field_tables_match_per_element_powers(p, k):
    """Every table of a field outside the golden list, against powers taken
    one product at a time: by _mul/_mod over GF(p) for k > 1, and by integer
    products mod p for GF(p), whose FieldCtx.mul reads the tables checked
    here past PAIR_TABLE_CAP."""
    ctx = field_new(p, k)
    if k > 1:
        g, exp, dlog = _cyclic_group_per_element(field_new(p), ctx.modulus)
    else:
        ells = _int_factorization(p - 1)
        g = next(x for x in range(1, p) if all(pow(x, (p - 1) // ell, p) != 1 for ell in ells))
        exp = [1] * (p - 1)
        for i in range(1, p - 1):
            exp[i] = exp[i - 1] * g % p
        dlog = [-1] * p
        for i, v in enumerate(exp):
            dlog[v] = i
    assert (ctx.generator, ctx.exp_table, ctx.dlog_table) == (g, exp, dlog)
    assert ctx.inv_table == [0] + [exp[-d] for d in dlog[1:]]
    assert ctx.neg_table == [_index(p, [-c % p for c in _digits(p, x, k)]) for x in range(ctx.q)]
    if p != 2:
        assert ctx.quad_char_table == [0] + [(-1) ** d for d in dlog[1:]]


@pytest.mark.parametrize("ctxname, degrees", [("gf4", (1, 2, 3)), ("gf9", (3,))])
def test_residue_fields_match_per_element_powers(ctxname, degrees, request):
    """cyclic_group over GF(4), of characteristic 2, and GF(9) in degree 3,
    against powers taken one product at a time."""
    ctx = request.getfixturevalue(ctxname)
    for d in degrees:
        for P in itertools.islice(irreducibles(ctx, d), 6):
            assert cyclic_group(ctx, P.coeffs) == _cyclic_group_per_element(ctx, P.coeffs)


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


def test_field_new_checks_the_cap_before_primality(monkeypatch):
    """k is checked first, then the cap on p, k and p^k, and only then is p
    tested for primality, so a huge p or k is refused at once."""
    monkeypatch.delenv("FFMOBIUS_TABLE_CAP", raising=False)
    with pytest.raises(ValueError, match="extension degree"):
        field_new(4, 0)
    for p, k in [(10**18, 1), (4, 10**6), (10**18 + 3, 1), (2, 21), (3, 10**6)]:
        with pytest.raises(ResourceLimitError):
            field_new(p, k)
    with pytest.raises(ValueError, match="not prime"):
        field_new(4)
    monkeypatch.setenv("FFMOBIUS_TABLE_CAP", "8")
    assert field_new(2, 3).q == 8
    for p, k in [(2, 4), (3, 2), (11, 1), (9, 1)]:
        with pytest.raises(ResourceLimitError):
            field_new(p, k)


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


def test_pair_tables_share_the_pool_and_stay_out_of_the_memo():
    """GF(31^2)'s flat pair tables hold the context's q pooled int objects,
    not one new int per entry, and building it pins no q x q array in the
    pair_tables memo: the sieve, its only other reader, refuses q = 961."""
    modulus = _default_modulus(31, 2)
    memo = pair_tables.cache_info()
    ctx = _build.__wrapped__(31, 2, modulus)  # a fresh build, past the intern cache
    assert pair_tables.cache_info() == memo
    assert len({id(x) for x in ctx.add_table} | {id(x) for x in ctx.mul_table}) <= ctx.q


@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_gf25_associativity(a, b, c):
    ctx = field_new(5, 2)
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
