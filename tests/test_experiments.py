import functools
import math
import random
from fractions import Fraction

import pytest

from ffmobius import (
    Poly,
    ResourceLimitError,
    characters_mod,
    factor,
    field_new,
    gcd,
    is_irreducible,
    is_squarefree,
    mobius,
    monics,
    parse_poly,
    polys_below,
    singular_series,
    von_mangoldt,
)
from ffmobius.experiments import (
    _interval_sums,
    char_sum_check,
    char_sum_exhaustive,
    chowla_sum,
    convolution_check,
    derivative_ratio,
    lambda_ap_sum,
    main_term_partial,
    mobius_ap_sum,
    mobius_inv_additive,
    mobius_lambda_corr,
    mobius_prime_power_ap,
    rk_bound,
    sign_change_search,
    square_class_count,
    twin_count,
    vaughan_check,
)
from ffmobius.characters import AdditiveCharacter, RootOfUnitySum, residue_ring
from ffmobius.poly import poly_from_index


# -- character sums ---------------------------------------------------------


def test_char_sum_check_t0_and_full_interval(gf3):
    T = Poly.t(gf3)
    g = T * (T + Poly.one(gf3))
    chars = [c for c in characters_mod(g) if not c.is_principal]
    for chi in chars:
        r0 = char_sum_check(g, chi, T, 0)
        assert r0.value <= r0.reference + 1e-9 and r0.ok
        # full interval t = m: the interval covers every residue once, so
        # the sum collapses to complete orthogonality: exactly 0
        rm = char_sum_check(g, chi, T, g.degree)
        assert rm.value < 1e-9 and rm.ok


def test_char_sum_check_validation(gf3):
    T = Poly.t(gf3)
    g = T * (T + Poly.one(gf3))
    principal = next(iter(characters_mod(g)))
    with pytest.raises(ValueError):
        char_sum_check(g, principal, T, 1)
    chi = [c for c in characters_mod(g) if not c.is_principal][0]
    with pytest.raises(ValueError):
        char_sum_check(g, chi, T, 5)


def test_char_sum_shift_periodicity(gf3):
    """The short sum depends on f only through f mod g, which is what lets
    residue sweeps stand in for a sup over all shifts."""
    T = Poly.t(gf3)
    g = T * T + Poly.one(gf3)
    chi = [c for c in characters_mod(g) if not c.is_principal][3]
    for f in polys_below(gf3, 2):
        base = char_sum_check(g, chi, f, 1).value
        for s in polys_below(gf3, 2):
            lifted = char_sum_check(g, chi, f + g * s, 1).value
            assert abs(base - lifted) < 1e-9


@pytest.mark.parametrize("p, k", [(3, 1), (2, 2), (5, 1)], ids=["gf3", "gf4", "gf5"])
def test_char_sum_exhaustive_matches_single_op(p, k):
    """The vectorized sweep and the one-shot op make the same checks and see
    the same worst ratio, in characteristic 2 too, for characters of order
    4, 8, 15 and 24 and primes of degree 1 and 2."""
    ctx = field_new(p, k)
    m = 2
    sweep = char_sum_exhaustive(ctx, m)
    assert sweep.violations == 0
    worst = 0.0
    checks = 0
    for g in monics(ctx, m):
        if not is_squarefree(g):
            continue
        for chi in characters_mod(g):
            if chi.is_principal:
                continue
            for f in polys_below(ctx, m):
                for t in range(m + 1):
                    rep = char_sum_check(g, chi, f, t)
                    assert rep.ok
                    checks += 1
                    if rep.reference > 0:
                        worst = max(worst, rep.value / rep.reference)
    assert sweep.checks == checks
    assert sweep.max_ratio == pytest.approx(worst, abs=1e-9)


def test_interval_sums_match_single_op_entry_by_entry(gf5):
    """Row i of level t is the i-th nontrivial character of characters_mod,
    column x is the interval starting at the residue of index x * q^t.
    g = T(T + 1) has two prime factors, so no row is a single local
    character and each level must sum the digit it claims to."""
    T = Poly.t(gf5)
    g = T * (T + Poly.one(gf5))
    q, m = gf5.q, g.degree
    chars = [c for c in characters_mod(g) if not c.is_principal]
    levels = list(_interval_sums(g))
    assert len(levels) == m + 1
    for t, s in enumerate(levels):
        assert s.shape == (len(chars), q ** (m - t))
        for i, chi in enumerate(chars):
            for x in range(q ** (m - t)):
                f = poly_from_index(gf5, x * q**t, m)
                assert abs(s[i, x]) == pytest.approx(char_sum_check(g, chi, f, t).value, abs=1e-9)


def test_char_sum_exhaustive_gf9_degree1(gf9):
    assert char_sum_exhaustive(gf9, 1).violations == 0


def test_char_sum_exhaustive_gf9_degree2_pinned(gf9):
    sweep = char_sum_exhaustive(gf9, 2)
    assert (sweep.checks, sweep.violations) == (1_242_216, 0)
    assert sweep.max_ratio == pytest.approx(2 / 3, abs=1e-12)


def test_char_sum_exhaustive_refuses_oversized_sweep_up_front(gf5):
    """GF(5), m = 6 would hold up to (5^6 - 2) x 5^6 complex values per g,
    about 3.9 GB; the guard raises before anything is built."""
    with pytest.raises(ResourceLimitError, match="character sweep too large"):
        char_sum_exhaustive(gf5, 6)


# -- rank bound -------------------------------------------------------------


def test_rk_bound_vacuous_at_t_equals_m(gf3):
    T = Poly.t(gf3)
    g = T * (T + Poly.one(gf3))
    r, ok = rk_bound(T, g, 2)
    assert r == 0 and ok


def test_rk_bound_hand_instance(gf3):
    """f = 0, g = T(T+1), t = 1: only h = 0 has gcd degree > 1, giving
    C(1,1) = 1 <= C(1,1)."""
    T = Poly.t(gf3)
    g = T * (T + Poly.one(gf3))
    r, ok = rk_bound(Poly.zero(gf3), g, 1)
    assert r == 1 and ok


def test_rk_bound_split_exhaustive(gf3):
    """All split squarefree g of degree <= 3, all f of degree <= 3, all t."""
    from ffmobius.poly import poly_from_index

    linear = list(monics(gf3, 1))
    gs = [linear[0] * linear[1], linear[0] * linear[2], linear[1] * linear[2],
          linear[0] * linear[1] * linear[2]]
    fs = [poly_from_index(gf3, i, 4) for i in range(3**4)]
    for g in gs:
        for f in fs:
            for t in range(0, g.degree + 1):
                _, ok = rk_bound(f, g, t)
                assert ok


def test_rk_bound_nonsplit(gf9):
    T = Poly.t(gf9)
    g = T**2 + Poly.one(gf9)  # check a g with a quadratic factor over GF(9)
    if is_squarefree(g):
        for t in range(0, 3):
            _, ok = rk_bound(T, g, t)
            assert ok


# -- correlation sums -------------------------------------------------------


def test_chowla_single_pair_is_zeta_shift(gf3):
    one = Poly.one(gf3)
    for d in (2, 3, 4):
        rep = chowla_sum(gf3, d, [(one, one)])
        assert rep.value == 0


def test_chowla_two_pairs_matches_enumeration(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    rep = chowla_sum(gf3, 2, [(one, one), (T, one)])
    direct = sum(mobius(g + one) * mobius(g + T) for g in monics(gf3, 2))
    assert rep.value == direct
    assert rep.reference == 9


def test_chowla_rejects_duplicates_and_collisions(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    with pytest.raises(ValueError):
        chowla_sum(gf3, 2, [(one, one), (one, one)])
    with pytest.raises(ValueError):
        chowla_sum(gf3, 2, [(T, one), (T * T, T)])  # equal as fractions
    with pytest.raises(ValueError):
        chowla_sum(gf3, 3, [(T**4, T)])  # degree collision k = d + m


def test_chowla_bulk_equals_loop(gf9):
    T = Poly.t(gf9)
    one = Poly.one(gf9)
    pairs = [(one, one), (T, one), (T + one, one)]
    bulk = chowla_sum(gf9, 3, pairs)
    direct = 0
    for g in monics(gf9, 3):
        direct += mobius(g + one) * mobius(g + T) * mobius(g + T + one)
    assert bulk.value == direct


def test_mobius_ap_example(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    rep = mobius_ap_sum(gf3, 2, T, one)
    assert rep.value == -1
    with pytest.raises(ValueError):
        mobius_ap_sum(gf3, 2, T, T)  # non-coprime


def test_ap_partition_identities(gf3):
    """Sums over every residue class mod M (op for the coprime classes,
    direct enumeration otherwise) total the degree sums."""
    T = Poly.t(gf3)
    M = T * (T + Poly.one(gf3))
    D = 4
    mu_total = 0
    lam_total = 0
    for a in polys_below(gf3, M.degree):
        from ffmobius import gcd as pgcd

        if pgcd(a, M).degree == 0:
            mu_total += mobius_ap_sum(gf3, D, M, a).value
            lam_total += lambda_ap_sum(gf3, D, M, a).value
        else:
            for f in monics(gf3, D):
                if ((f - a) % M).is_zero:
                    mu_total += mobius(f)
                    lam_total += von_mangoldt(f)
    assert mu_total == 0
    assert lam_total == 3**D


def test_lambda_ap_reports_error_term(gf3):
    T = Poly.t(gf3)
    rep = lambda_ap_sum(gf3, 4, T, Poly.one(gf3))
    assert rep.reference == Fraction(81, 2)
    assert rep.details["error"] == rep.value - Fraction(81, 2)


def test_mobius_lambda_corr_example(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    rep = mobius_lambda_corr(gf3, 2, one, one, [(T, one)])
    direct = sum(von_mangoldt(g + one) * mobius(g + T) for g in monics(gf3, 2))
    assert rep.value == direct
    # empty pair list degenerates to a plain Lambda sum
    rep0 = mobius_lambda_corr(gf3, 2, one, one, [])
    assert rep0.value == sum(von_mangoldt(g + one) for g in monics(gf3, 2))
    # invariant under permutation of the pair list
    a2 = T + one
    two_pairs = [(T, one), (a2, one)]
    r1 = mobius_lambda_corr(gf3, 3, one, one, two_pairs)
    r2 = mobius_lambda_corr(gf3, 3, one, one, list(reversed(two_pairs)))
    assert r1.value == r2.value


def test_mobius_prime_power_example(gf3):
    T = Poly.t(gf3)
    rep = mobius_prime_power_ap(gf3, 2, T, 1)
    assert rep.value == -1
    with pytest.raises(ValueError):
        mobius_prime_power_ap(gf3, 2, T, 3)  # n deg P > D
    with pytest.raises(ValueError):
        mobius_prime_power_ap(gf3, 4, T * T, 1)  # reducible P


# -- convolution identities -------------------------------------------------


def test_convolution_examples(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    assert convolution_check(T * T)
    assert convolution_check(T * T + one)  # irreducible: gives deg f
    for d in range(1, 5):
        assert all(convolution_check(f) for f in monics(gf3, d))


def test_vaughan_examples(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    f = T**3 + T + one
    for alpha in range(3):
        for beta in range(3):
            assert vaughan_check(f, alpha, beta)
    with pytest.raises(ValueError):
        vaughan_check(f, 3, 0)  # alpha >= deg f


def test_vaughan_exhaustive_small(gf3):
    for d in (1, 2, 3, 4):
        for f in monics(gf3, d):
            for alpha in range(d):
                for beta in range(d):
                    assert vaughan_check(f, alpha, beta)


# -- main term and twins ----------------------------------------------------


def test_main_term_example(gf3):
    T = Poly.t(gf3)
    rep = main_term_partial(gf3, 1, T)
    assert rep.value == Fraction(-2, 3)
    assert rep.reference == Fraction(-3, 2)
    rep0 = main_term_partial(gf3, 0, T)
    assert rep0.value == 0


def test_main_term_decay(gf3):
    T = Poly.t(gf3)
    diffs = [main_term_partial(gf3, d, T).details["difference"] for d in range(2, 7)]
    violations = sum(1 for a, b in zip(diffs, diffs[1:]) if b > a)
    assert violations == 0


def test_twin_count_example(gf3):
    one = Poly.one(gf3)
    rep = twin_count(gf3, 2, one)
    assert rep.value == 6
    # all six points come from prime-power pairs; no irreducible pair exists
    assert rep.details["prime_pairs"] == 0
    with pytest.raises(ValueError):
        twin_count(gf3, 2, Poly.t(gf3) ** 2)  # deg a >= d


def test_twin_count_loop_equals_bulk(gf3):
    from ffmobius.factor import is_irreducible

    one = Poly.one(gf3)
    # d = 1: every pair is prime; d = 2: every nonzero term has a prime
    # square on one side, so no pair is prime although the value is 6;
    # d = 4 has zero irreducible pairs at shift 1, d = 5 has six
    for d in (1, 2, 4, 5):
        rep = twin_count(gf3, d, one)
        direct = sum(von_mangoldt(f) * von_mangoldt(f + one) for f in monics(gf3, d))
        assert rep.value == direct
        pairs = sum(1 for f in monics(gf3, d) if is_irreducible(f) and is_irreducible(f + one))
        assert rep.details["prime_pairs"] == pairs
    assert pairs == 6


def test_twin_count_gf2_degree12_widens_lambda_products(gf2):
    """At d = 12 a prime pair gives Lambda*Lambda = 144, past int8.  The
    shift T^2 + T keeps f(0) and f(1), so prime pairs exist."""
    T = Poly.t(gf2)
    a = T**2 + T
    d = 12
    rep = twin_count(gf2, d, a)
    lam = [(von_mangoldt(f), von_mangoldt(f + a)) for f in monics(gf2, d)]
    assert rep.value == sum(x * y for x, y in lam)
    pairs = sum(1 for x, y in lam if x == y == d)
    assert rep.details["prime_pairs"] == pairs > 0


def test_twin_ratio_is_one_integer_division(gf9):
    """value * den / (num * q^d) is the correctly rounded float of
    Fraction(value) / reference, on seeded values and on twin reports."""
    rng = random.Random(14)
    one = Poly.one(gf9)
    for N in (1, 4):
        series = singular_series(one, N).value
        for _ in range(300):
            d = rng.randint(1, 12)
            value = rng.randrange(-(10**rng.randint(1, 30)), 10**rng.randint(1, 30))
            reference = series * gf9.q**d
            got = value * series.denominator / (series.numerator * gf9.q**d)
            assert got == float(Fraction(value) / reference)
    for d in (2, 3, 4):
        rep = twin_count(gf9, d, one, trunc=4)
        assert rep.ratio == float(Fraction(rep.value) / rep.reference)


# -- per-polynomial references for the two mu sums over a whole degree -----


def _main_term_loop(ctx, d, M, mu):
    """main_term_partial's values at degrees 0 .. d, one monic A at a time."""
    totals = [Fraction(0)]
    for k in range(1, d + 1):
        inner = 0
        for A in monics(ctx, k):
            if gcd(A, M).degree == 0:
                inner += mu(A)
        totals.append(totals[-1] + Fraction(k * inner, ctx.q**k))
    return totals


def _mobius_inv_additive_loop(ctx, d, M, mu):
    """mobius_inv_additive's value, one monic g at a time."""
    ring = residue_ring(M)
    psi = AdditiveCharacter(ring, Poly.one(ctx))
    acc = RootOfUnitySum(ctx.p)
    for g in monics(ctx, d):
        inv = ring.inv_index[ring.index(g)]
        if inv < 0:
            continue
        value = mu(g)
        if value == 0:
            continue
        acc.add(psi.exponent_index(inv), value)
    return acc.to_complex()


def _first_irreducible(ctx, m):
    return next(P for P in monics(ctx, m) if is_irreducible(P))


def _reference_moduli(ctx):
    """T, then an irreducible and a reducible squarefree M of degrees 2 and 3."""
    T = Poly.t(ctx)
    P2, P3 = _first_irreducible(ctx, 2), _first_irreducible(ctx, 3)
    return [T, P2, T * (T + Poly.one(ctx)), P3, T * P2]


@pytest.mark.parametrize("ctxname", ["gf2", "gf3", "gf5", "gf9"])
def test_degree_mu_sums_equal_per_polynomial_loops(ctxname, request):
    """The divisor-sum main term and the class-sum inverse additive twist
    equal the per-polynomial loops exactly, for d = 0 .. deg M + 2."""
    ctx = request.getfixturevalue(ctxname)
    mu = functools.cache(mobius)  # one discriminant per polynomial across both loops
    for M in [Poly.one(ctx)] + _reference_moduli(ctx):
        main_terms = _main_term_loop(ctx, M.degree + 2, M, mu)
        for d in range(M.degree + 3):
            assert main_term_partial(ctx, d, M).value == main_terms[d], (M, d)
            if M.degree >= 1:
                value = mobius_inv_additive(ctx, d, M).value
                assert value == _mobius_inv_additive_loop(ctx, d, M, mu), (M, d)


# -- inverse additive -------------------------------------------------------


def test_mobius_inv_additive_d0_and_d1(gf3):
    T = Poly.t(gf3)
    rep0 = mobius_inv_additive(gf3, 0, T)
    assert abs(rep0.value - complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))) < 1e-9
    rep1 = mobius_inv_additive(gf3, 1, T)
    # mu(T+1) psi(1) + mu(T+2) psi(2) = -(e(1) + e(2)) = 1
    assert abs(rep1.value - 1) < 1e-9
    assert abs(rep1.value) <= rep1.details["trivial_bound"]
    with pytest.raises(ValueError):
        mobius_inv_additive(gf3, 2, T * T)


def test_mobius_inv_additive_trivial_bound(gf3):
    T = Poly.t(gf3)
    M = T * (T + Poly.one(gf3))
    for d in range(0, 5):
        rep = mobius_inv_additive(gf3, d, M)
        assert abs(rep.value) <= 3**d + 1e-9


# -- derivative and square classes ------------------------------------------


def test_derivative_ratio_example(gf3):
    T = Poly.t(gf3)
    rep = derivative_ratio(gf3, 3, T, Poly.zero(gf3))
    assert rep.details["numerator"] == 3
    assert rep.details["denominator"] == 9
    assert rep.value == Fraction(1, 3)
    assert rep.reference == Fraction(1, 1)
    assert rep.ok


def test_derivative_ratio_d1(gf3):
    T = Poly.t(gf3)
    one = Poly.one(gf3)
    assert derivative_ratio(gf3, 1, T, one).value == Fraction(1)
    assert derivative_ratio(gf3, 1, T, Poly.zero(gf3)).value == 0


def test_derivative_ratio_counts_match_enumeration(gf3, gf5, gf7, gf9):
    # degrees with p | d and p not dividing d (all of them below 7 in GF(7));
    # M squarefree, T^3 + 2T + 1 and T^3 + T of degree 3
    for ctx, M, degrees in ((gf3, (1, 0, 1), (2, 3, 4)), (gf5, (2, 0, 1), (3, 4, 5)),
                            (gf9, (1, 0, 1), (2, 3, 4)), (gf3, (1, 2, 0, 1), (2, 3, 4, 5, 6)),
                            (gf7, (0, 1, 0, 1), (2, 3, 4, 5))):
        M = Poly(ctx, M)
        for d in degrees:
            derivs = {g.derivative().coeffs for g in monics(ctx, d)}
            for aidx in (0, 1, 2, ctx.q, ctx.q + 1):
                a = Poly(ctx, [aidx % ctx.q, aidx // ctx.q])
                rep = derivative_ratio(ctx, d, M, a)
                num = sum(1 for h in derivs if ((Poly(ctx, h) - a) % M).is_zero)
                assert rep.details["numerator"] == num
                assert rep.details["denominator"] == len(derivs)
    # past enumeration: at d = 40 the free residues T^(j-1) mod M span every
    # residue, so each class holds q^-m of the derivatives
    M = Poly(gf9, (3, 1, 0, 1))
    for aidx in (0, 1, 2, gf9.q, gf9.q + 1):
        rep = derivative_ratio(gf9, 40, M, Poly(gf9, [aidx % gf9.q, aidx // gf9.q]))
        assert rep.value == Fraction(1, 9**3)
        assert rep.details["denominator"] == 9 ** sum(1 for j in range(1, 40) if j % 3)


def test_square_class_count_matches_constructive_oracle(gf3):
    """Counts agree with direct enumeration of lambda * B^2 values."""
    one = Poly.one(gf3)
    zero = Poly.zero(gf3)
    for d in (1, 2, 3, 4):
        rep = square_class_count(gf3, d, one, one, zero)
        values = {zero.coeffs}
        for lam in (1, 2):
            for bdeg in range(0, (d + 1) // 2):
                for b in monics(gf3, bdeg):
                    v = (b * b).scale(lam)
                    if v.degree < d:
                        values.add(v.coeffs)
        assert rep.value == len(values)


@pytest.mark.parametrize("ctxname,M,A,a,d", [
    ("gf3", (0, 1), (1,), (1,), 3),
    ("gf5", (2, 0, 1), (2, 1), (3, 1), 4),
    ("gf5", (2, 1), (0, 0, 1), (0, 0, 1), 4),
    ("gf9", (1, 0, 1), (0, 1), (1,), 4),
    ("gf9", (3, 1), (1, 1), (0, 4), 3),
], ids=["gf3-T-1-1", "gf5-T^2+2-T+2-T+3", "gf5-T+2-T^2-T^2", "gf9-T^2+1-T-1", "gf9-T+3-T+1-4T"])
def test_square_class_count_with_progression(ctxname, M, A, a, d, request):
    """Against the per-g route: factor (a + gM) / A for every g."""
    ctx = request.getfixturevalue(ctxname)
    M, A, a = (Poly(ctx, c) for c in (M, A, a))
    rep = square_class_count(ctx, d, M, A, a)
    direct = 0
    for g in polys_below(ctx, d):
        f = a + g * M
        if f.is_zero:
            direct += 1
            continue
        h, r = divmod(f, A)
        if r.is_zero and all(m % 2 == 0 for _, m in factor(h).factors):
            direct += 1
    assert rep.value == direct > 0


# -- sign changes -----------------------------------------------------------


def test_sign_change_search_t20(gf3):
    T = Poly.t(gf3)
    rep = sign_change_search(T**20, 0.5)
    assert rep.ok
    wp = parse_poly(gf3, rep.details["witness_plus"]) if isinstance(rep.details["witness_plus"], str) else rep.details["witness_plus"]
    wm = rep.details["witness_minus"]
    assert wp.degree <= 10 and wm.degree <= 10
    assert mobius(T**20 + wp) == 1
    assert mobius(T**20 + wm) == -1


def test_sign_change_requires_char3(gf5):
    with pytest.raises(ValueError):
        sign_change_search(Poly.t(gf5) ** 20, 0.5)


def test_sign_change_eta_warning(gf3):
    T = Poly.t(gf3)
    rep = sign_change_search(T**20, 0.42)
    assert "warning" in rep.details
