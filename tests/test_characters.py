import cmath
import random

import pytest

from ffmobius import (
    AdditiveCharacter,
    Poly,
    additive_character,
    c_sum,
    characters_mod,
    euler_phi,
    gcd,
    inverse_mod,
    is_squarefree,
    jacobi,
    jacobi_character,
    kloosterman,
    monics,
    polys_below,
    rational_kloosterman_aggregate,
    residue_ring,
)
from ffmobius import characters
from ffmobius.characters import local_logs, quadratic_character_mod
from ffmobius.factor import divisors, factor, irreducibles
from ffmobius.field import cyclic_group
from ffmobius.poly import poly_index


def squarefree_monics(ctx, d):
    return [g for g in monics(ctx, d) if is_squarefree(g)]


def test_characters_mod_t(gf3):
    T = Poly.t(gf3)
    chars = list(characters_mod(T))
    assert len(chars) == 2
    principal, quad = chars
    assert principal.is_principal
    assert not quad.is_principal
    for f in polys_below(gf3, 3):
        if gcd(f, T).degree == 0:
            assert principal(f) == 1
            assert quad(f) == gf3.quad_char(f(0))
        else:
            assert principal(f) == 0
            assert quad(f) == 0


def test_characters_mod_count(gf3):
    T = Poly.t(gf3)
    M = T * (T + Poly.one(gf3))
    chars = list(characters_mod(M))
    assert len(chars) == 4 == euler_phi(M)
    assert chars[0].is_principal
    with pytest.raises(ValueError):
        list(characters_mod(T * T))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_character_count_and_orthogonality(d, gf3):
    """sum over units chi(x) = 0 off the principal character; column
    orthogonality sum_chi chi(x) = 0 for x != 1; phi(M) characters."""
    for M in squarefree_monics(gf3, d):
        ring = residue_ring(M)
        chars = list(characters_mod(M))
        assert len(chars) == euler_phi(M) == len(ring.units)
        for chi in chars:
            s = sum(complex(chi(ring.poly(u))) for u in ring.units)
            if chi.is_principal:
                assert abs(s - len(ring.units)) < 1e-9
            else:
                assert abs(s) < 1e-9
        for u in ring.units:
            x = ring.poly(u)
            s = sum(complex(chi(x)) for chi in chars)
            if x == Poly.one(gf3):
                assert abs(s - len(chars)) < 1e-9
            else:
                assert abs(s) < 1e-9


def test_character_multiplicative(gf9):
    T = Poly.t(gf9)
    M = T * (T + Poly.one(gf9))
    for chi in characters_mod(M):
        for a in polys_below(gf9, 2):
            for b in list(polys_below(gf9, 2))[::7]:
                va, vb, vab = chi(a), chi(b), chi((a * b) % M)
                assert abs(complex(va) * complex(vb) - complex(vab)) < 1e-9


def test_conductor_and_lift_invariance(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    M = T * (T + one)
    for chi in characters_mod(M):
        cond = chi.conductor()
        # chi depends only on f mod conductor, tested at lifts f + cond*s
        for f in polys_below(gf3, 2):
            if gcd(f, M).degree != 0:
                continue
            for s in polys_below(gf3, 2):
                lift = f + cond * s
                if gcd(lift, M).degree != 0:
                    continue
                assert abs(complex(chi(f)) - complex(chi(lift))) < 1e-9
    principal = next(iter(characters_mod(M)))
    assert principal.conductor() == one


def test_jacobi_character_matches_jacobi(gf3):
    T = Poly.t(gf3)
    for d in range(1, 4):
        for E in squarefree_monics(gf3, d):
            chi = jacobi_character(E)
            assert chi.conductor() == E
            for f in polys_below(gf3, 4):
                assert chi(f) == jacobi(f, E)


def test_jacobi_character_mod_t_is_the_quadratic(gf3):
    T = Poly.t(gf3)
    chi = jacobi_character(T)
    quad = list(characters_mod(T))[1]
    assert chi == quad
    assert chi(Poly.one(gf3)) == 1


def test_real_characters_return_ints(gf3):
    T = Poly.t(gf3)
    M = T * (T + Poly.one(gf3))
    for chi in characters_mod(M):
        if chi.is_real:
            vals = {chi(f) for f in polys_below(gf3, 2)}
            assert vals <= {-1, 0, 1}
            assert all(isinstance(v, int) for v in vals)


def test_additive_character_homomorphism(gf3):
    T = Poly.t(gf3)
    M = T * T + Poly.one(gf3)
    psi = additive_character(M)
    ring = psi.ring
    for i in range(ring.size):
        for j in range(ring.size):
            a, b = ring.poly(i), ring.poly(j)
            lhs = psi(a + b)
            rhs = psi(a) * psi(b)
            assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("d", [1, 2, 3])
def test_additive_orthogonality_squarefree(d, gf3):
    """sum over the ring of psi_h = 0 for every h != 0 mod squarefree M."""
    for M in squarefree_monics(gf3, d):
        ring = residue_ring(M)
        for hidx in range(1, ring.size):
            psi = AdditiveCharacter(ring, ring.poly(hidx))
            total = sum(psi(ring.poly(i)) for i in range(ring.size))
            assert abs(total) < 1e-9


@pytest.mark.parametrize("case", ["irreducible", "composite"])
def test_inv_index_matches_inverse_mod(case, gf3, gf9):
    """Each unit pair {x, x^-1} is set by one extended gcd; every unit's
    entry must still be its inverse_mod, and every non-unit's -1."""
    if case == "irreducible":
        M = next(irreducibles(gf3, 5))
    else:
        M = Poly(gf9, [2, 0, 0, 0, 1])  # T^4 + 2, a product of four primes
    ring = characters.ResidueRing(M)
    units = []
    for idx in range(ring.size):
        r = ring.poly(idx)
        if gcd(r, M).degree == 0:
            units.append(idx)
            assert ring.poly(ring.inv_index[idx]) == inverse_mod(r, M)
        else:
            assert ring.inv_index[idx] == -1
    assert ring.units == tuple(units)
    assert len(units) == euler_phi(M)


def test_trace_matches_matrix_trace(gf3, gf4, gf5, gf9):
    """The evaluation functional equals the trace of the multiplication
    matrix over F_p, computed here from scratch, on reduced and unreduced
    inputs; psi_h's Gram matrix is Tr(h e_i e_j) of Poly products."""
    T = {ctx: Poly.t(ctx) for ctx in (gf3, gf4, gf5, gf9)}
    # T^2 + T over GF(9); T^2 + 1, T^2 and T^3 over GF(3) (the last two not
    # squarefree); T^3 + T + 1 over GF(4); the prime T^2 + 2 over GF(5)
    moduli = [T[gf9] ** 2 + T[gf9], T[gf3] ** 2 + Poly.one(gf3), T[gf3] ** 2, T[gf3] ** 3,
              T[gf4] ** 3 + T[gf4] + Poly.one(gf4), T[gf5] ** 2 + Poly.constant(gf5, 2)]
    for M in moduli:
        ctx = M.ctx
        ring = residue_ring(M)
        p, k, m = ctx.p, ctx.k, ring.m
        # F_p-basis of the ring: e_(kj + u) = omega^u T^j, omega the field's
        # polynomial basis; the matrix trace sums the e_i coordinate of x e_i
        basis = [Poly(ctx, [0] * j + [ctx.encode([0] * u + [1] + [0] * (k - u - 1))])
                 for j in range(m) for u in range(k)]

        def trace(x):
            total = 0
            for i, e in enumerate(basis):
                prod = (x * e) % M
                c = prod.coeffs[i // k] if i // k < len(prod.coeffs) else 0
                total += ctx.coords(c)[i % k]
            return total % p

        # T^m and T^(m+1) + 1 are unreduced: Tr(T^2 mod T^2 + 1) = Tr(-1) = 1 over GF(3)
        xs = [ring.poly(xi) for xi in range(0, ring.size, 5)] + [T[ctx] ** m, T[ctx] ** (m + 1) + Poly.one(ctx)]
        for x in xs:
            assert ring.trace_weights(x.coeffs)[0] == trace(x)  # e_0 = 1
        h = ring.poly(ring.size // 3)
        gram = AdditiveCharacter(ring, h).gram
        assert gram.tolist() == [[trace(h * ei * ej) for ej in basis] for ei in basis]


def test_kloosterman_examples(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    psi = additive_character(T)
    s11 = kloosterman(T, psi, one, one)
    assert abs(s11 - (2 * cmath.cos(2 * cmath.pi / 3))) < 1e-9  # = -1
    zero = Poly.zero(gf3)
    assert abs(kloosterman(T, psi, zero, zero) - euler_phi(T)) < 1e-9


def test_kloosterman_magnitude_never_exceeds_unit_count(gf3):
    T = Poly.t(gf3)
    M = T * T + T  # a composite modulus as well
    ring = residue_ring(M)
    psi = AdditiveCharacter(ring, Poly.one(gf3))
    for xi in range(ring.size):
        for zi in range(ring.size):
            v = kloosterman(M, psi, ring.poly(xi), ring.poly(zi))
            assert abs(v) <= len(ring.units) + 1e-9


@pytest.mark.parametrize("pk", [(3, 1), (5, 1)])
@pytest.mark.parametrize("dP", [1, 2])
def test_kloosterman_weil_bound_exhaustive(pk, dP):
    """|S(x, z)| <= 2 sqrt(|P|) for prime modulus and x z != 0."""
    from ffmobius import field_new

    ctx = field_new(*pk)
    for P in irreducibles(ctx, dP):
        ring = residue_ring(P)
        psi = AdditiveCharacter(ring, Poly.one(ctx))
        bound = 2 * (ctx.q**dP) ** 0.5
        for xi in ring.units:
            for zi in ring.units:
                v = kloosterman(P, psi, ring.poly(xi), ring.poly(zi))
                assert abs(v) <= bound + 1e-9


def test_kloosterman_symmetry(gf3):
    """S(x, z) = S(z, x) for all reduced pairs, deg M <= 2."""
    for d in (1, 2):
        for M in monics(gf3, d):
            if M.degree < 1:
                continue
            ring = residue_ring(M)
            psi = AdditiveCharacter(ring, Poly.one(gf3))
            for xi in range(ring.size):
                for zi in range(ring.size):
                    a = kloosterman(M, psi, ring.poly(xi), ring.poly(zi))
                    b = kloosterman(M, psi, ring.poly(zi), ring.poly(xi))
                    assert abs(a - b) < 1e-9


def test_c_sum_examples(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    zero = Poly.zero(gf3)
    psi = additive_character(T)
    value, bound, ok = c_sum(T, psi, one, zero)
    assert abs(value - (-1)) < 1e-9
    assert abs(bound - 2 * 3**0.5) < 1e-9
    assert ok
    # g = h = 0: C = phi(M), bound d_2(M) |M|
    value, bound, ok = c_sum(T, psi, zero, zero)
    assert abs(value - 2) < 1e-9
    assert abs(bound - 2 * 3) < 1e-9
    assert ok


def test_c_sum_exhaustive_small(gf3):
    """|C(g,h)| <= d_2(M) sqrt(|M| |gcd(M,g,h)|), every (g,h) for deg M <= 2
    (the deg M <= 3 sweep runs in the acceptance suite)."""
    for d in (1, 2):
        for M in squarefree_monics(gf3, d):
            ring = residue_ring(M)
            psi = AdditiveCharacter(ring, Poly.one(gf3))
            for gi in range(ring.size):
                for hi in range(ring.size):
                    _, _, ok = c_sum(M, psi, ring.poly(gi), ring.poly(hi))
                    assert ok


def test_aggregate_kloosterman_degenerate_zero(gf5):
    T = Poly.t(gf5)
    one = Poly.one(gf5)
    two = Poly.constant(gf5, 2)
    three = Poly.constant(gf5, 3)
    # b_i = b'_{sigma(i)} for the identity permutation, z = 0: trivial branch
    b = (one, two, three, one, two, three)
    value, bound, ok = rational_kloosterman_aggregate(T, b, Poly.zero(gf5))
    assert bound == 25.0
    assert ok
    # R_b identically zero: value = |A_b| * S(0, z)
    ring = residue_ring(T)
    psi = AdditiveCharacter(ring, one)
    s0 = kloosterman(T, psi, Poly.zero(gf5), Poly.zero(gf5))
    assert abs(value - 2 * s0) < 1e-9  # A_b = {x : prod(x+b_i).. unit} has 2 points


def test_aggregate_kloosterman_nondegenerate_bound(gf5):
    """Prime M of degree 1: every nondegenerate tuple obeys 16|A|."""
    T = Poly.t(gf5)
    consts = [Poly.constant(gf5, c) for c in range(5)]
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    checked = 0
    for i1 in range(5):
        for i2 in range(5):
            for i3 in range(2):
                b = (consts[i1], consts[i2], consts[(i1 + 1) % 5], consts[i3], consts[(i2 + 2) % 5], consts[4])
                first = (i1, i2, (i1 + 1) % 5)
                second = (i3, (i2 + 2) % 5, 4)
                if any(all(first[t] == second[s[t]] for t in range(3)) for s in perms):
                    continue
                for z in range(5):
                    value, bound, ok = rational_kloosterman_aggregate(T, b, consts[z])
                    assert bound == 80.0
                    assert ok
                    checked += 1
    assert checked >= 100



# (p, deg M): every monic M and every psi_h; every (g, h) when |A| <= 9,
# else g and h in {0, 1, T}
@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1), (7, 1), (3, 3), (5, 2)])
def test_unit_sums_claim_bounds_only_in_their_domain(p, m):
    """ok is never False, and None outside each bound's domain: C(g, h)
    claims its bound for squarefree M and a nontrivial psi, and the Weil
    bound for prime M, a nontrivial psi and x, z != 0; the aggregate falls
    back to the trivial |A|^2 bound for a trivial psi."""
    from ffmobius import field_new, is_irreducible
    from ffmobius.experiments import kloosterman_report

    ctx = field_new(p)
    rng = random.Random(100 * p + m)
    for M in monics(ctx, m):
        ring = residue_ring(M)
        residues = [ring.poly(i) for i in range(ring.size)]
        args = residues if ring.size <= 9 else [ring.poly(i) for i in (0, 1, p)]
        squarefree, prime = is_squarefree(M), is_irreducible(M)
        for k in residues:
            psi = AdditiveCharacter(ring, k)
            assert psi.is_trivial == all(psi.exponent(x) == 0 for x in residues)
            assert not squarefree or psi.is_trivial == k.is_zero
            for g in args:
                for h in args:
                    _, bound, ok = c_sum(M, psi, g, h)
                    assert ok is (True if squarefree and not psi.is_trivial else None)
                    weil = kloosterman_report(M, g, h, k)
                    claimed = prime and not psi.is_trivial and not (g.is_zero or h.is_zero)
                    assert weil.ok is (True if claimed else None)
            if m <= 2:
                b = tuple(rng.choice(residues) for _ in range(6))
                _, bound, ok = rational_kloosterman_aggregate(M, b, rng.choice(residues), psi)
                assert ok
                if psi.is_trivial:
                    assert bound == ring.size**2


def test_sums_reject_a_character_of_another_modulus(gf5):
    """A psi mod T^2 + 2 with M = T + 1 raises in all three unit sums; the
    aggregate used to return (0j, 80.0, True) here."""
    T = Poly.t(gf5)
    one = Poly.one(gf5)
    M = T + one
    psi = additive_character(T * T + Poly.constant(gf5, 2))
    b = tuple(Poly.constant(gf5, c) for c in (1, 2, 3, 1, 2, 4))
    with pytest.raises(ValueError, match="does not match the modulus"):
        rational_kloosterman_aggregate(M, b, one, psi)
    with pytest.raises(ValueError, match="does not match the modulus"):
        kloosterman(M, psi, one, one)
    with pytest.raises(ValueError, match="does not match the modulus"):
        c_sum(M, psi, one, one)

def _dlog_parity_value(primes, f):
    """The reference route for a real character: the product over P of
    (-1)^dlog_P(f mod P), 0 when P | f."""
    out = 1
    for prime in primes:
        r = f % prime
        if r.is_zero:
            return 0
        out *= -1 if local_logs(prime).dlog[poly_index(r)] % 2 else 1
    return out


@pytest.mark.parametrize("ctxname,dmax", [("gf3", 3), ("gf5", 3), ("gf9", 2)])
def test_real_characters_match_dlog_parity(ctxname, dmax, request):
    """jacobi_character(E) and quadratic_character_mod(E, E1), E1 a proper
    monic divisor of E, against the dlog parity at every residue mod every
    squarefree monic E."""
    ctx = request.getfixturevalue(ctxname)
    for d in range(1, dmax + 1):
        for E in squarefree_monics(ctx, d):
            primes = [p for p, _ in factor(E).factors]
            residues = list(polys_below(ctx, d))
            chi = jacobi_character(E)
            for f in residues:
                assert chi(f) == _dlog_parity_value(primes, f)
            for E1 in divisors(E):
                if E1 == E:
                    continue
                chi1 = quadratic_character_mod(E, E1)
                on = [p for p in primes if (E1 % p).is_zero]
                for f in residues:
                    # off E1 the local component is principal: 0 only where P | f
                    unit = all(not (f % p).is_zero for p in primes)
                    assert chi1(f) == (_dlog_parity_value(on, f) if unit else 0)


@pytest.mark.parametrize("ctxname", ["gf2", "gf4"])
def test_principal_characters_in_characteristic_2(ctxname, request):
    """At p = 2 every real character is principal, and the quadratic character
    of F_q does not exist: the principal character mod every squarefree monic
    E of degree <= 3 is 1 on the units and 0 elsewhere, f = 0 included."""
    ctx = request.getfixturevalue(ctxname)
    one = Poly.one(ctx)
    for d in range(1, 4):
        for E in squarefree_monics(ctx, d):
            chi = quadratic_character_mod(E, one)
            assert chi.is_principal and chi.is_real and chi.conductor() == one
            for f in polys_below(ctx, d + 1):
                assert chi(f) == (1 if gcd(f, E).degree == 0 else 0)


@pytest.mark.parametrize("coeffs", [(2, 0, 1), (0, 0, 1)], ids=["T^2+2", "T^2"])
def test_reducible_prime_rejected(coeffs, gf3):
    P = Poly(gf3, coeffs)
    with pytest.raises(ValueError):
        local_logs(P)
    with pytest.raises(ValueError):
        cyclic_group(gf3, P.coeffs)


def test_real_characters_build_no_log_tables(gf9, monkeypatch):
    """Evaluating real characters, decompose and verify_decomposition
    included, never builds a discrete-log table."""
    from ffmobius import decompose, verify_decomposition

    def refuse(*args):
        raise AssertionError("cyclic_group called")

    local_logs.cache_clear()
    monkeypatch.setattr(characters, "cyclic_group", refuse)
    T = Poly.t(gf9)
    E = (T**2 + Poly.one(gf9)) * (T + Poly.one(gf9))
    for f in polys_below(gf9, 2):
        jacobi_character(E)(f)
    a, M = T + Poly.one(gf9), T
    for d in (1, 2, 3):
        for rp in {g.derivative() for g in monics(gf9, d)}:
            data = decompose(a, M, rp, d)
            assert verify_decomposition(data, a, M, rp, d).ok
    with pytest.raises(AssertionError, match="cyclic_group"):
        local_logs(T + Poly.one(gf9)).dlog
    local_logs.cache_clear()


def test_local_logs_hold_every_residue_field_of_a_gf9_sweep(gf9, monkeypatch):
    """The GF(9) character-sum sweep to m = 3 visits 9 + 36 + 240 primes; a
    second pass over them builds no residue field again."""
    primes = [P for d in (1, 2, 3) for P in irreducibles(gf9, d)]
    assert len(primes) == 285
    calls = []
    monkeypatch.setattr(characters, "cyclic_group", lambda *args: calls.append(args) or cyclic_group(*args))
    local_logs.cache_clear()
    try:
        for expected in (285, 0):
            calls.clear()
            for P in primes:
                local_logs(P).dlog
            assert len(calls) == expected
    finally:
        local_logs.cache_clear()
