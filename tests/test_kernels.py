"""The tuple kernels of ffmobius.poly against references written with the
FieldCtx methods alone, and the residue-ring unit sums (Kloosterman, C-sum,
aggregate) against per-unit references written with polynomial products.

The kernels and the FieldCtx methods read the same pair tables, for prime
and extension fields alike: flat lists up to PAIR_TABLE_CAP, and past it
objects that compute each entry (GF(1031) and GF(3^7) here).  So
tests/test_golden_fields.py checks the table entries, every one up to the
cap and a seeded sample past it, against arithmetic that reads no pair
table.  The Frobenius kernels (_frobenius, _frob, _pow_qsum) are checked
against _powmod on the same set.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ffmobius import Poly, ext_gcd, field_new, monics, parse_poly, polys_below
from ffmobius.characters import (
    AdditiveCharacter,
    RootOfUnitySum,
    c_sum,
    kloosterman,
    rational_kloosterman_aggregate,
    residue_ring,
)
from ffmobius.config import PAIR_TABLE_CAP
from ffmobius.field import pair_tables
from ffmobius.poly import _add, _divmod, _frob, _frobenius, _mod, _mul, _pow, _pow_qsum, _powmod, _sub, _trim

FIELDS = {q: field_new(p, k) for q, (p, k) in {
    2: (2, 1), 3: (3, 1), 5: (5, 1), 7: (7, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2), 25: (5, 2),
    27: (3, 3), 1031: (1031, 1), 2187: (3, 7),
}.items()}


def test_field_set_covers_every_path():
    for q in (3, 7, 4, 8, 9, 25, 27):
        assert all(isinstance(t, list) and len(t) == q * q for t in (FIELDS[q].add_table, FIELDS[q].mul_table))
    for q in (1031, 2187):
        assert q > PAIR_TABLE_CAP
        assert not isinstance(FIELDS[q].add_table, list) and not isinstance(FIELDS[q].mul_table, list)
    assert FIELDS[1031].k == 1 and FIELDS[2187].k == 7


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


@given(operands(max_len=4), st.integers(0, 12))
@settings(max_examples=200)
def test_pow_matches_repeated_multiplication(args, e):
    ctx, a, _ = args
    want = (1,)
    for _ in range(e):
        want = ref_mul(ctx, want, a)
    assert _pow(ctx, a, e) == want


@pytest.mark.parametrize("q", [3, 9, 2187])
def test_powmod_edge_cases(q):
    ctx = FIELDS[q]
    a = (2, 1, 1)
    assert _powmod(ctx, a, 0, (0, 1, 1)) == (1,)
    assert _powmod(ctx, (), 5, (0, 1, 1)) == ()
    for e in (0, 1, 7):  # a constant modulus: the zero ring
        assert _powmod(ctx, a, e, (2,)) == ()


FROBENIUS_FIELDS = [2, 3, 4, 5, 9, 1031, 2187]
EXHAUSTIVE_PAIRS = 1 << 14  # (f, h) pairs per degree checked one by one


@pytest.mark.parametrize("q", FROBENIUS_FIELDS)
def test_frob_matches_powmod_by_q(q):
    """h^q mod f from the Frobenius rows of f equals _powmod(h, q, f): every
    residue h mod every monic f of degree <= 3, or a seeded sample of 300
    pairs where a degree has more than EXHAUSTIVE_PAIRS of them (GF(9)
    degree 3, GF(1031) and GF(2187) from degree 1)."""
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


def _matrix_trace(M, x):
    """Tr(x) down to F_p as the trace of multiplication by x on the F_p-basis
    omega^u T^j of F_q[T]/(M): the sum of the diagonal coordinates."""
    ctx = M.ctx
    total = 0
    for j in range(M.degree):
        for u in range(ctx.k):
            e = Poly(ctx, [0] * j + [ctx.encode([0] * u + [1] + [0] * (ctx.k - u - 1))])
            prod = ((x * e) % M).coeffs
            total += ctx.coords(prod[j])[u] if j < len(prod) else 0
    return total % ctx.p


def _inverse(M, y):
    """y^-1 mod M by the extended Euclidean algorithm, None off the units."""
    g, u, _ = ext_gcd(y, M)
    if g.degree != 0:
        return None
    return (u * Poly.constant(M.ctx, M.ctx.inv(g.coeffs[0]))) % M


def _reference_counts(M, a, b):
    """Counts per exponent of sum over the units y of e_p(Tr(a y^-1 + b y)),
    one unit at a time, with polynomial products and matrix traces."""
    counts = [0] * M.ctx.p
    for y in polys_below(M.ctx, M.degree):
        y_inv = _inverse(M, y)
        if y_inv is not None:
            counts[_matrix_trace(M, (a * y_inv + b * y) % M)] += 1
    return counts


def _value(p, counts):
    return RootOfUnitySum(p, counts).to_complex()


# both sides of the former 256-residue product-table cap, and characteristic 2
RINGS = [(5, "T+2"), (5, "T^2+2"), (5, "T^2+T"), (4, "T^3+T+1"), (3, "T^5+2*T+1"), (9, "T^3+T+3")]


@pytest.mark.parametrize("q,modulus", RINGS)
def test_kloosterman_and_c_sum_match_brute_force(q, modulus):
    """S(x, z) and C(g, h) under psi_h, h != 1 included, against the per-unit
    reference: S(x, z) sums e_p(Tr(h x y^-1 + h z y)), C(g, h') sums
    e_p(Tr(h g y^-1 + h' y))."""
    ctx = FIELDS[q]
    M = parse_poly(ctx, modulus)
    ring = residue_ring(M)
    rng = random.Random(q * 1000 + ring.size)
    residues = [0, 1] + [rng.randrange(ring.size) for _ in range(2)]
    for hi in (1, rng.randrange(2, ring.size)):
        h = ring.poly(hi)
        psi = AdditiveCharacter(ring, h)
        for xi, zi in zip(residues, reversed(residues)):
            x, z = ring.poly(xi), ring.poly(zi)
            want = _value(ctx.p, _reference_counts(M, h * x, h * z))
            assert abs(kloosterman(M, psi, x, z) - want) < 1e-9, (hi, xi, zi)
            value, _, _ = c_sum(M, psi, x, z)
            assert abs(value - _value(ctx.p, _reference_counts(M, h * x, z))) < 1e-9, (hi, xi, zi)


@pytest.mark.parametrize("q,modulus", RINGS[:4])
def test_aggregate_matches_brute_force(q, modulus):
    """sum_x S(R_b(x), z) over the x with every x + b_t a unit, R_b(x) the
    first three inverses minus the last three, against the per-unit
    reference, for psi_1 and a psi_h with h != 1."""
    ctx = FIELDS[q]
    M = parse_poly(ctx, modulus)
    ring = residue_ring(M)
    rng = random.Random(q * 1000 + ring.size)
    for hi in (1, rng.randrange(2, ring.size)):
        h = ring.poly(hi)
        psi = AdditiveCharacter(ring, h)
        b = tuple(ring.poly(rng.randrange(ring.size)) for _ in range(6))
        z = ring.poly(rng.randrange(ring.size))
        counts = [0] * ctx.p
        for x in polys_below(ctx, M.degree):
            inv = [_inverse(M, x + t) for t in b]
            if None in inv:
                continue
            r = (inv[0] + inv[1] + inv[2] - inv[3] - inv[4] - inv[5]) % M
            for v, c in enumerate(_reference_counts(M, h * r, h * z)):
                counts[v] += c
        value, _, _ = rational_kloosterman_aggregate(M, b, z, psi)
        assert abs(value - _value(ctx.p, counts)) < 1e-9, (hi, b, z)


@pytest.mark.parametrize("q", [3, 7, 4, 8, 9, 25, 27])
def test_sieve_numpy_tables_match_field(q):
    ctx = FIELDS[q]
    add, mul = pair_tables(ctx)
    assert pair_tables(ctx) is pair_tables(ctx)
    assert not (add.flags.writeable or mul.flags.writeable)
    assert add.tolist() == [[ctx.add(x, y) for y in range(q)] for x in range(q)]
    assert mul.tolist() == [[ctx.mul(x, y) for y in range(q)] for x in range(q)]
