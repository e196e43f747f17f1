"""The tuple kernels of ffmobius.poly and the residue-ring product table
against references written with the FieldCtx methods alone.

The kernels take one of three paths: inline arithmetic mod p for prime
fields, the flat pair tables for extension fields up to PAIR_TABLE_CAP, and
the FieldCtx methods beyond it (GF(3^7) here).  The Frobenius kernels
(_frobenius, _frob, _pow_qsum) are checked against _powmod on the same set.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ffmobius import Poly, ResidueRing, field_new, monics, parse_poly, polys_below
from ffmobius.config import PAIR_TABLE_CAP, RING_TABLE_CAP
from ffmobius.field import pair_tables
from ffmobius.poly import _add, _divmod, _frob, _frobenius, _mod, _mul, _pow_qsum, _powmod, _sub, _trim

FIELDS = {q: field_new(p, k) for q, (p, k) in {
    2: (2, 1), 3: (3, 1), 5: (5, 1), 7: (7, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2), 25: (5, 2),
    27: (3, 3), 2187: (3, 7),
}.items()}


def test_field_set_covers_every_path():
    assert FIELDS[2187].mul_table is None and 2187 > PAIR_TABLE_CAP
    assert all(FIELDS[q].mul_table is not None for q in (4, 8, 9, 25, 27))
    assert FIELDS[3].mul_table is None and FIELDS[7].k == 1


def _at(c, i):
    return c[i] if i < len(c) else 0


def ref_add(ctx, a, b):
    return _trim([ctx.add(_at(a, i), _at(b, i)) for i in range(max(len(a), len(b)))])


def ref_sub(ctx, a, b):
    return _trim([ctx.sub(_at(a, i), _at(b, i)) for i in range(max(len(a), len(b)))])


def ref_mul(ctx, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = ctx.add(out[i + j], ctx.mul(x, y))
    return _trim(out)


def ref_divmod(ctx, a, b):
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    inv = ctx.inv(b[-1])
    for shift in range(len(a) - len(b), -1, -1):
        c = ctx.mul(rem[shift + len(b) - 1], inv)
        quo[shift] = c
        for j, y in enumerate(b):
            rem[shift + j] = ctx.sub(rem[shift + j], ctx.mul(c, y))
    return _trim(quo), _trim(rem[:len(b) - 1])


@st.composite
def operands(draw, max_len=9):
    ctx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    coeffs = st.lists(st.integers(0, ctx.q - 1), max_size=max_len).map(_trim)
    return ctx, draw(coeffs), draw(coeffs)


@given(operands())
@settings(max_examples=300)
def test_ring_kernels_match_method_reference(args):
    ctx, a, b = args
    assert _add(ctx, a, b) == ref_add(ctx, a, b)
    assert _sub(ctx, a, b) == ref_sub(ctx, a, b)
    assert _mul(ctx, a, b) == ref_mul(ctx, a, b)


@given(operands())
@settings(max_examples=300)
def test_division_kernels_match_method_reference(args):
    ctx, a, b = args
    if not b:
        with pytest.raises(ZeroDivisionError):
            _mod(ctx, a, b)
        return
    quo, rem = ref_divmod(ctx, a, b)
    assert _divmod(ctx, a, b) == (quo, rem)
    assert _mod(ctx, a, b) == rem


@given(operands(max_len=6), st.integers(0, 40))
@settings(max_examples=200)
def test_powmod_matches_repeated_multiplication(args, e):
    ctx, a, mod = args
    if not mod:
        return
    want = ref_divmod(ctx, (1,), mod)[1]
    for _ in range(e):
        want = ref_divmod(ctx, ref_mul(ctx, want, a), mod)[1]
    assert _powmod(ctx, a, e, mod) == want


@pytest.mark.parametrize("q", [3, 9, 2187])
def test_powmod_edge_cases(q):
    ctx = FIELDS[q]
    a = (2, 1, 1)
    assert _powmod(ctx, a, 0, (0, 1, 1)) == (1,)
    assert _powmod(ctx, (), 5, (0, 1, 1)) == ()
    for e in (0, 1, 7):  # a constant modulus: the zero ring
        assert _powmod(ctx, a, e, (2,)) == ()


FROBENIUS_FIELDS = [2, 3, 4, 5, 9, 2187]
EXHAUSTIVE_PAIRS = 1 << 14  # (f, h) pairs per degree checked one by one


@pytest.mark.parametrize("q", FROBENIUS_FIELDS)
def test_frob_matches_powmod_by_q(q):
    """h^q mod f from the Frobenius rows of f equals _powmod(h, q, f): every
    residue h mod every monic f of degree <= 3, or a seeded sample of 300
    pairs where a degree has more than EXHAUSTIVE_PAIRS of them (GF(9)
    degree 3, GF(2187) from degree 2)."""
    ctx = FIELDS[q]
    rng = random.Random(q)
    for n in range(4):
        if q ** (2 * n) <= EXHAUSTIVE_PAIRS:
            pairs = [(f.coeffs, h.coeffs) for f in monics(ctx, n) for h in polys_below(ctx, n)]
        else:
            pairs = [(tuple(rng.randrange(q) for _ in range(n)) + (1,),
                      _trim([rng.randrange(q) for _ in range(n)])) for _ in range(300)]
        for f, h in pairs:
            rows = _frobenius(ctx, f)
            assert len(rows) == n
            assert _frob(ctx, h, rows) == _powmod(ctx, h, q, f), (f, h)


@pytest.mark.parametrize("q", FROBENIUS_FIELDS)
def test_pow_qsum_matches_powmod(q):
    """a^(c (q^d - 1) / (q - 1)) mod f by Frobenius steps equals _powmod with
    the whole exponent, on seeded cases with d = 1..4 in turn and c = 1 every
    third case; f of degree 0..5 with any leading coefficient, a unreduced."""
    ctx = FIELDS[q]
    rng = random.Random(100 + q)
    for i in range(80):
        n = rng.randrange(6)
        f = tuple(rng.randrange(q) for _ in range(n)) + (rng.randrange(1, q),)
        a = _trim([rng.randrange(q) for _ in range(rng.randrange(2 * n + 2))])
        c = 1 if i % 3 == 0 else rng.randrange(q)
        d = 1 + i % 4
        assert _pow_qsum(ctx, a, c, d, f) == _powmod(ctx, a, c * (q**d - 1) // (q - 1), f), (a, c, d, f)


def test_pow_qsum_euler_exponent_gf3():
    """c = 1 over GF(3) is the norm-like exponent 1 + 3 + ... + 3^(d-1); with
    c = (q - 1) / 2 = 1 it is also Euler's (3^d - 1) / 2, whose value on a
    nonzero residue mod an irreducible P of degree d is +1 or -1."""
    ctx = FIELDS[3]
    P = (1, 2, 0, 1)  # T^3 + 2T + 1, irreducible over GF(3)
    values = {_pow_qsum(ctx, h.coeffs, 1, 3, P) for h in polys_below(ctx, 3) if h.coeffs}
    assert values == {(1,), (2,)}
    assert _pow_qsum(ctx, (2, 1), 1, 1, P) == (2, 1)  # d = 1, c = 1: a itself


def _check_products(ring, pairs):
    M = ring.M
    for i, j in pairs:
        assert ring.mul_index(i, j) == ring.index((ring.poly(i) * ring.poly(j)) % M), (i, j)


@pytest.mark.parametrize("q,modulus", [(7, "T^2+1"), (9, "T^2+T+2"), (4, "T^3+T+1"), (3, "T^4+2*T+2")])
def test_mul_index_table_every_pair(q, modulus):
    ring = ResidueRing(parse_poly(FIELDS[q], modulus))
    assert ring.size**2 <= RING_TABLE_CAP
    assert ring._rows == [None] * ring.size  # filled on first use, not at construction
    _check_products(ring, [(3, 1)])
    assert [i for i, row in enumerate(ring._rows) if row is not None] == [3]
    _check_products(ring, [(i, j) for i in range(ring.size) for j in range(ring.size)])
    assert all(row is not None for row in ring._rows)


def test_mul_index_past_the_cap_samples():
    ring = ResidueRing(Poly(FIELDS[3], [1, 2, 0, 0, 0, 0, 1]))  # T^6 + 2T + 1, 729 residues
    assert ring.size**2 > RING_TABLE_CAP
    rng = random.Random(5)
    _check_products(ring, [(rng.randrange(ring.size), rng.randrange(ring.size)) for _ in range(400)])
    assert ring._rows is None


@pytest.mark.parametrize("q", [3, 7, 4, 8, 9, 25, 27])
def test_sieve_numpy_tables_match_field(q):
    ctx = FIELDS[q]
    add, mul = pair_tables(ctx)
    assert pair_tables(ctx) is pair_tables(ctx)
    assert not (add.flags.writeable or mul.flags.writeable)
    assert add.tolist() == [[ctx.add(x, y) for y in range(q)] for x in range(q)]
    assert mul.tolist() == [[ctx.mul(x, y) for y in range(q)] for x in range(q)]
