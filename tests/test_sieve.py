import hashlib
import math
import random

import numpy as np
import pytest

from ffmobius import Poly, field_new, mobius, mobius_oracle, monics, sieve, von_mangoldt
from ffmobius.errors import ResourceLimitError
from ffmobius.experiments import chowla_sum, mobius_lambda_corr, twin_count
from ffmobius.factor import is_irreducible
from ffmobius.poly import monic_from_index, parse_poly, poly_index
from ffmobius.sieve import (
    affine_index_map,
    bulk_available,
    lambda_degree_sum,
    lambda_table,
    mobius_degree_sum,
    mobius_table,
    prime_mask,
    primes_of_degree,
    progression_slabs,
    progression_sum,
)

from conftest import traced_peak


def progression_values(ctx, e, terms):
    """prod_i F_i(a_i + g M_i) for every monic g of degree e, in index order:
    the slabs of progression_slabs joined into one preallocated array."""
    out, s = None, 0
    for vals in progression_slabs(ctx, e, terms):
        if out is None:
            out = np.empty(ctx.q**e, dtype=vals.dtype)
        out[s:s + vals.size] = vals
        s += vals.size
    return out


# GF(2) and GF(4) have many prime powers P^n with n >= 2 among small degrees
@pytest.mark.parametrize("ctxname,dmax", [("gf3", 6), ("gf5", 4), ("gf9", 4), ("gf2", 10), ("gf4", 5)])
def test_prime_mask_matches_is_irreducible(ctxname, dmax, request):
    ctx = request.getfixturevalue(ctxname)
    for d in range(1, dmax + 1):
        mask = prime_mask(ctx, d)
        for i in range(ctx.q**d):
            assert mask[i] == is_irreducible(monic_from_index(ctx, d, i))


@pytest.mark.parametrize("ctxname,dmax", [("gf3", 6), ("gf9", 4), ("gf7", 3), ("gf2", 10), ("gf4", 5)])
def test_mobius_table_matches_pellet(ctxname, dmax, request):
    ctx = request.getfixturevalue(ctxname)
    for d in range(0, dmax + 1):
        table = mobius_table(ctx, d)
        for i in range(ctx.q**d):
            assert table[i] == mobius(monic_from_index(ctx, d, i))


@pytest.mark.parametrize("ctxname,dmax", [("gf3", 6), ("gf9", 4), ("gf2", 10), ("gf4", 5)])
def test_lambda_table_matches_factorization(ctxname, dmax, request):
    ctx = request.getfixturevalue(ctxname)
    for d in range(1, dmax + 1):
        table = lambda_table(ctx, d)
        for i in range(ctx.q**d):
            assert table[i] == von_mangoldt(monic_from_index(ctx, d, i))


def test_primes_of_degree_counts(gf9):
    assert len(primes_of_degree(gf9, 1)) == 9
    assert len(primes_of_degree(gf9, 2)) == (81 - 9) // 2
    assert len(primes_of_degree(gf9, 3)) == (729 - 9) // 3


def test_degree_sums(gf3, gf9):
    for ctx in (gf3, gf9):
        assert mobius_degree_sum(ctx, 0) == 1
        assert mobius_degree_sum(ctx, 1) == -ctx.q
        for d in (2, 3, 4):
            assert mobius_degree_sum(ctx, d) == 0
            assert lambda_degree_sum(ctx, d) == ctx.q**d


def test_cold_mobius_table_peak_is_small(gf3):
    """One sieve pass holds no more than 16 bytes per table entry at its peak."""
    d = 12
    for dp in range(1, d // 2 + 1):
        primes_of_degree(gf3, dp)
    sieve._sieve.cache_clear()
    _, peak = traced_peak(lambda: mobius_table(gf3, d))
    assert peak < 16 * gf3.q**d


def test_sieve_makes_one_kernel_call_per_batch(gf3, monkeypatch):
    """GF(3) degree 14 marks its 508 primes of degree <= 7 and their squares,
    and no higher power, in slabs of at most _SLAB entries, one kernel call
    each: the slabs of each prime power cover its multiples exactly once."""
    d = 14
    for dp in range(1, d // 2 + 1):
        primes_of_degree(gf3, dp)
    kinds = {P: (dp, j) for dp in range(1, d // 2 + 1) for j in (1, 2)
             for P in _prime_powers(gf3, dp, j)}
    digests = {P: hashlib.sha256() for P in kinds}
    sizes = []
    kernel = sieve._affine_index

    def traced(ctx, rows, e, d_out):
        idx = kernel(ctx, rows, e, d_out)
        sizes.append(idx.size)
        # each batch holds the primes of one degree dp <= d/2, or their squares
        (dp, j), = {kinds[tuple(M)] for _, M in rows}
        assert d_out == d and e <= d - j * dp
        for (_, M), block in zip(rows, np.split(idx, len(rows))):
            digests[tuple(M)].update(block.tobytes())
        return idx

    monkeypatch.setattr(sieve, "_affine_index", traced)
    tables = sieve._sieve.__wrapped__(gf3, d)  # uncached: leaves the table cache alone
    monkeypatch.undo()
    assert max(sizes) <= sieve._SLAB
    assert sum(sizes) == sum(gf3.q ** (d - j * dp) for dp, j in kinds.values())
    # together the slabs of each prime power are its multiples, in index order
    assert len(kinds) == 2 * 508
    for P, (dp, j) in kinds.items():
        direct = affine_index_map(gf3, Poly.zero(gf3), Poly(gf3, list(P)), d - j * dp)[1]
        assert digests[P].digest() == hashlib.sha256(direct.tobytes()).digest()
    assert int(tables[0].sum()) == 0  # the Mobius sum over a degree >= 2


@pytest.mark.parametrize("ctxname,d,most", [("gf9", 7, 46), ("gf3", 14, 98)])
def test_cold_build_kernel_calls(ctxname, d, most, request, monkeypatch):
    """A cold mobius_table build, the nested builds of its primes included,
    sends _SLAB // q^(e-t) rows per kernel call, and no call returns more
    than _SLAB entries."""
    ctx = request.getfixturevalue(ctxname)
    sizes = []
    kernel = sieve._affine_index

    def traced(*args):
        idx = kernel(*args)
        sizes.append(idx.size)
        return idx

    monkeypatch.setattr(sieve, "_affine_index", traced)
    sieve._sieve.cache_clear()
    primes_of_degree.cache_clear()
    table = mobius_table(ctx, d)
    monkeypatch.undo()
    assert len(sizes) <= most
    assert max(sizes) <= sieve._SLAB
    assert int(table.sum()) == 0  # the Mobius sum over a degree >= 2


# terms that the sieve rejects, as (a, M) literals over GF(3); e = 2
BAD_TERMS = {
    "dominant-a-not-monic": [("mu", "0", "T^2"), ("mu", "2*T^5", "1")],
    "degree-collision": [("lambda", "T^3+1", "T")],
    "M-not-monic": [("mu", "1", "2*T")],
}


@pytest.mark.parametrize("name", BAD_TERMS)
def test_loop_route_rejects_the_terms_the_tables_reject(gf3, name, monkeypatch):
    """Every term is checked before a route is picked, so above the caps the
    per-polynomial loop raises the table route's ValueError."""
    terms = [(kind, parse_poly(gf3, a), parse_poly(gf3, M)) for kind, a, M in BAD_TERMS[name]]
    with pytest.raises(ValueError) as table:
        progression_sum(gf3, 2, terms)
    monkeypatch.setattr(sieve, "bulk_available", lambda ctx, degree: False)
    with pytest.raises(ValueError) as loop:
        progression_sum(gf3, 2, terms)
    assert str(loop.value) == str(table.value)


# (field, degree): the pure powers P^(d/deg P) of degree d, cubes and higher among them
@pytest.mark.parametrize("ctxname,d", [("gf2", 12), ("gf2", 16), ("gf3", 9), ("gf3", 12), ("gf4", 8)])
def test_pure_powers_and_cube_multiples(ctxname, d, request):
    """Lambda(P^(d/deg P)) = deg P, and every multiple of a cube has mu = 0,
    though the sieve marks no power above P^2."""
    ctx = request.getfixturevalue(ctxname)
    prime, mu, lam = prime_mask(ctx, d), mobius_table(ctx, d), lambda_table(ctx, d)

    def at(f):
        assert f.is_monic and f.degree == d
        i = poly_index(f) - ctx.q**d  # the leading 1 is not part of a monic's index
        return int(prime[i]), int(mu[i]), int(lam[i])

    pure = 0
    for dp in range(1, d // 2 + 1):
        if d % dp == 0:
            for P in primes_of_degree(ctx, dp):
                f = Poly(ctx, list(P)) ** (d // dp)
                assert at(f) == (False, 0, dp) == (False, mobius_oracle(f), von_mangoldt(f))
                pure += 1
    assert pure > 0
    # no other composite reads a nonzero Lambda
    assert np.count_nonzero(lam[~prime]) == pure
    rng = random.Random(d * ctx.q)
    for _ in range(40):
        dp = rng.randint(1, d // 3)
        P = Poly(ctx, list(rng.choice(primes_of_degree(ctx, dp))))
        g = monic_from_index(ctx, d - 3 * dp, rng.randrange(ctx.q ** (d - 3 * dp)))
        f = P**3 * g
        assert at(f) == (False, 0, von_mangoldt(f))
        assert mobius_oracle(f) == 0


def test_sieve_tables_are_read_only(gf3):
    values = next(progression_slabs(gf3, 3, [("mu", Poly.zero(gf3), Poly.one(gf3))]))
    with pytest.raises(ValueError):
        values[:] = 1
    for table in sieve._sieve(gf3, 3):
        assert not table.flags.writeable
        assert table.base is None or not table.base.flags.writeable  # Lambda views the counter
    assert mobius_degree_sum(gf3, 3) == 0


def test_warm_progression_holds_one_index_array(gf3):
    """Two shifted terms: each index array is dropped after its gather."""
    d = 12
    T, one = Poly.t(gf3), Poly.one(gf3)
    pairs = [(one, one), (T + Poly.constant(gf3, 2), one)]
    expected = chowla_sum(gf3, d, pairs).value  # builds the tables
    value, peak = traced_peak(lambda: chowla_sum(gf3, d, pairs).value)
    assert value == expected
    assert peak < 12 * gf3.q**d


def test_warm_progression_with_linear_moduli_holds_one_index_array(gf3):
    """Two terms with deg M = 1 read through index maps, each dropped after its gather."""
    e = 11
    T, one = Poly.t(gf3), Poly.one(gf3)
    pairs = [(one, T), (T + Poly.constant(gf3, 2), T + one)]
    expected = chowla_sum(gf3, e, pairs).value  # builds the tables
    value, peak = traced_peak(lambda: chowla_sum(gf3, e, pairs).value)
    assert value == expected
    assert peak < 12 * gf3.q**e


# every a of degree < e, a = 0 and the constants included
@pytest.mark.parametrize("ctxname,emax", [("gf2", 4), ("gf3", 3), ("gf4", 3), ("gf9", 2)])
def test_shift_read_matches_index_map(ctxname, emax, request):
    ctx = request.getfixturevalue(ctxname)
    one = Poly.one(ctx)
    for e in range(emax + 1):
        for i in range(ctx.q**e):
            a = monic_from_index(ctx, e, i) - Poly.t(ctx) ** e  # the low digits of i
            for kind, table in (("mu", mobius_table), ("lambda", lambda_table)):
                got = progression_values(ctx, e, [(kind, a, one)])
                expected = table(ctx, e)[affine_index_map(ctx, a, one, e)[1]]
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)


def test_warm_shift_terms_build_no_index_array(gf3, monkeypatch):
    """Shifts with M = 1 are read through a permutation of the low digits."""
    d = 12
    T, one = Poly.t(gf3), Poly.one(gf3)
    pairs = [(one, one), (T + Poly.constant(gf3, 2), one)]
    expected = chowla_sum(gf3, d, pairs).value  # builds the tables
    calls = []
    kernel = sieve._affine_index
    monkeypatch.setattr(sieve, "_affine_index", lambda *args: calls.append(args) or kernel(*args))
    value, peak = traced_peak(lambda: chowla_sum(gf3, d, pairs).value)
    assert value == expected
    assert calls == []
    assert peak < 3 * gf3.q**d


def test_two_stage_shift_read_peak(gf3):
    """A shift of degree e - 1 crosses slab digits: its top digit picks the
    table slab to read and its low digits permute within it, so a warm
    two-Lambda read holds under 5 bytes per entry."""
    e = 12
    T, one = Poly.t(gf3), Poly.one(gf3)
    a = T**11 + one
    terms = [("lambda", Poly.zero(gf3), one), ("lambda", a, one)]
    lam = lambda_table(gf3, e)  # builds the tables
    got, peak = traced_peak(lambda: progression_values(gf3, e, terms))
    assert peak < 5 * gf3.q**e
    assert np.array_equal(got, lam.astype(np.int16) * lam[affine_index_map(gf3, a, one, e)[1]])


def test_cached_tables_are_two_int8_tables(gf3, gf9):
    for ctx, d in ((gf3, 9), (gf9, 4)):
        tables = sieve._sieve(ctx, d)
        assert [t.dtype for t in tables] == [np.int8, np.int8]
        assert sum(t.nbytes for t in tables) == 2 * ctx.q**d


def test_negative_degree_raises(gf3):
    assert not bulk_available(gf3, -1)
    for table in (mobius_table, lambda_table):
        with pytest.raises(ValueError, match="degree must be >= 0"):
            table(gf3, -1)


# A cache bound of a few KB: GF(3) pairs of degree >= 7 and GF(9) pairs of
# degree >= 4 are each larger than it alone.
SMALL_CACHE = 4096


def _small_cache(monkeypatch, warm=()):
    """Cut the cache bound to SMALL_CACHE, warm primes_of_degree for the
    (ctx, top degree) of `warm` so no build nests another, clear the cache,
    and return the list each build then appends (q, d, cached bytes at its
    start) to."""
    for ctx, dmax in warm:
        for dp in range(1, dmax // 2 + 1):
            primes_of_degree(ctx, dp)
    monkeypatch.setattr(sieve, "SIEVE_CACHE_BYTES", SMALL_CACHE)
    sieve._sieve.cache_clear()
    builds = []
    build = sieve._sieve.__wrapped__

    def recorded(ctx, d):
        builds.append((ctx.q, d, sieve._sieve.cache_info()["bytes"]))
        return build(ctx, d)

    monkeypatch.setattr(sieve._sieve, "__wrapped__", recorded)
    return builds


def test_cache_hit_returns_the_same_arrays(gf3, gf5, gf9, monkeypatch):
    """A hit returns the cached arrays, builds nothing and makes its pair
    the most recently used, so the next eviction drops another."""
    builds = _small_cache(monkeypatch, [(gf3, 6), (gf9, 3), (gf5, 4)])
    mu, lam = sieve._sieve(gf3, 6)
    mobius_table(gf9, 3)
    assert mobius_table(gf3, 6) is mu and lambda_table(gf3, 6) is lam
    held = 2 * 3**6 + 2 * 9**3
    assert sieve._sieve.cache_info() == {"hits": 2, "misses": 2, "evictions": 0, "bytes": held}
    mobius_table(gf5, 4)  # 1,250 bytes: the GF(9) pair, now the oldest, makes room
    assert mobius_table(gf3, 6) is mu
    assert [b[:2] for b in builds] == [(3, 6), (9, 3), (5, 4)]
    assert sieve._sieve.cache_info()["evictions"] == 1


def _seeded_reads(ctxs, monkeypatch):
    """A seeded sequence of cold (ctx, d) reads under the small bound,
    nested builds of the primes included; returns the builds and, per read,
    (cached bytes after it, bytes of the pair it returned)."""
    sieve.primes_of_degree.cache_clear()
    builds = _small_cache(monkeypatch)
    rng = random.Random(19)
    first, after = {}, []
    for _ in range(60):
        ctx, dmax = rng.choice(ctxs)
        d = rng.randint(0, dmax)
        pair = sieve._sieve(ctx, d)
        for t, t0 in zip(pair, first.setdefault((ctx.q, d), [t.copy() for t in pair])):
            assert np.array_equal(t, t0)  # a rebuilt pair equals the first one
        after.append((sieve._sieve.cache_info()["bytes"], sum(t.nbytes for t in pair)))
    return builds, after


def test_cached_bytes_stay_within_the_bound(gf3, gf9, monkeypatch):
    """After every read the cache holds at most the bound, or only the pair
    just returned."""
    _, after = _seeded_reads([(gf3, 8), (gf9, 4)], monkeypatch)
    assert all(held <= max(SMALL_CACHE, newest) for held, newest in after)
    assert sieve._sieve.cache_info()["evictions"] > 0


def test_cache_evicts_before_it_builds(gf3, gf9, monkeypatch):
    """When a build starts, the cached bytes and the new pair fit under the
    bound, or nothing is cached."""
    builds, _ = _seeded_reads([(gf3, 8), (gf9, 4)], monkeypatch)
    assert any(2 * q**d > SMALL_CACHE for q, d, _ in builds)
    assert all(held == 0 or held + 2 * q**d <= SMALL_CACHE for q, d, held in builds)


def test_evicted_table_stays_equal_and_read_only(gf3, gf9, monkeypatch):
    _small_cache(monkeypatch, [(gf3, 6), (gf9, 4)])
    mu, lam = sieve._sieve(gf3, 6)
    before = [mu.copy(), lam.copy()]
    mobius_table(gf9, 4)  # 13,122 bytes: evicts the GF(3) pair
    assert sieve._sieve.cache_info()["evictions"] == 1
    for t, b in zip((mu, lam), before):
        assert np.array_equal(t, b) and not t.flags.writeable
        with pytest.raises(ValueError):
            t[0] = 0
    again = mobius_table(gf3, 6)
    assert again is not mu and np.array_equal(again, mu)


def test_ascending_degrees_build_each_pair_once(gf3, gf9, monkeypatch):
    """A degree sweep reads its pairs in ascending degree, so with the
    primes of lower degrees known it builds each pair once under any bound."""
    builds = _small_cache(monkeypatch, [(gf3, 9), (gf9, 4)])
    for ctx, dmax in ((gf3, 9), (gf9, 4)):
        for d in range(2, dmax + 1):
            assert mobius_degree_sum(ctx, d) == 0
            assert lambda_degree_sum(ctx, d) == ctx.q**d
            assert int(prime_mask(ctx, d).sum()) == len(primes_of_degree(ctx, d))
    assert [b[:2] for b in builds] == [(3, d) for d in range(2, 10)] + [(9, d) for d in range(2, 5)]


@pytest.mark.parametrize("ctxname,dmax", [("gf2", 12), ("gf3", 8), ("gf4", 6), ("gf9", 4)])
def test_prime_mask_is_lambda_equal_degree(ctxname, dmax, request):
    ctx = request.getfixturevalue(ctxname)
    for d in range(1, dmax + 1):
        mask = prime_mask(ctx, d)
        assert mask.dtype == bool and not mask.flags.writeable
        assert np.array_equal(mask, lambda_table(ctx, d) == d)


def test_product_dtypes(gf3):
    """Lambda*mu stays int8; a second Lambda factor widens to int16."""
    T, one = Poly.t(gf3), Poly.one(gf3)
    zero = Poly.zero(gf3)
    e = 5
    cases = [([("lambda", zero, one), ("mu", T + one, one)], np.int8),
             ([("mu", one, T), ("lambda", T, one)], np.int8),
             ([("lambda", zero, one), ("lambda", T + one, one)], np.int16),
             ([("lambda", one, T), ("lambda", T, one), ("mu", T**2, one)], np.int16)]
    for terms, dtype in cases:
        values = progression_values(gf3, e, terms)
        assert values.dtype == dtype
        expected = [math.prod((mobius if kind == "mu" else von_mangoldt)(a + g * M)
                              for kind, a, M in terms) for g in monics(gf3, e)]
        assert values.tolist() == expected


def _random_poly(ctx, rng, degree):
    """A random polynomial of degree < degree, zero included."""
    return Poly(ctx, [rng.randrange(ctx.q) for _ in range(rng.randint(0, degree))])


# (field, e): GF(2) and GF(4) have many prime powers, GF(9) is an extension
@pytest.mark.parametrize("ctxname,e", [("gf2", 9), ("gf3", 6), ("gf4", 4), ("gf9", 3)])
def test_progression_sum_equals_values_sum(ctxname, e, request):
    ctx = request.getfixturevalue(ctxname)
    rng = random.Random(ctx.q * 100 + e)
    T, one = Poly.t(ctx), Poly.one(ctx)
    cases = [[("mu", one, one), ("mu", T**(e - 1) + one, one)],  # difference T^(e-1)
             [("lambda", T**(e - 1), one), ("mu", Poly.zero(ctx), one)]]
    for _ in range(12):  # seeded shift sets
        cases.append([(rng.choice(("mu", "lambda")), _random_poly(ctx, rng, e), one)
                      for _ in range(rng.randint(1, 3))])
    for _ in range(6):  # shifts mixed with affine terms
        M = T + Poly.constant(ctx, rng.randrange(ctx.q))
        cases.append([("lambda", _random_poly(ctx, rng, e), one),
                      ("mu", _random_poly(ctx, rng, e + 1), M)])
    for terms in cases:
        assert progression_sum(ctx, e, terms) == int(progression_values(ctx, e, terms).sum())


def test_correlations_leave_cached_tables_unchanged(gf3):
    d = 7
    T, one = Poly.t(gf3), Poly.one(gf3)
    before = [t.copy() for t in sieve._sieve(gf3, d)]
    chowla_sum(gf3, d, [(one, one), (T + one, one)])
    mobius_lambda_corr(gf3, d, T, one, [(one, one)])
    twin_count(gf3, d, one)
    progression_values(gf3, d, [("mu", Poly.zero(gf3), one), ("mu", one, one)])
    for t, b in zip(sieve._sieve(gf3, d), before):
        assert np.array_equal(t, b)


def test_shift_read_results(gf3):
    """a = 0 hands out the read-only cached table; a shifted read is a new
    array that a caller may write into."""
    one = Poly.one(gf3)
    assert next(progression_slabs(gf3, 4, [("mu", Poly.zero(gf3), one)])) is mobius_table(gf3, 4)
    for a in (Poly.constant(gf3, 2), Poly.t(gf3) + one):
        values = next(progression_slabs(gf3, 4, [("mu", a, one)]))
        assert values.size == gf3.q**4 and values.flags.writeable
        values[:] = 1
        assert mobius_degree_sum(gf3, 4) == 0


def test_cold_sieve_peak_gf3_degree13(gf3):
    """The counter and the two tables take 4 bytes per monic; marking and
    decoding add only slab-sized transients, so a cold degree-13 build
    holds under 6.5 bytes per monic at its peak."""
    d = 13
    for dp in range(1, d // 2 + 1):
        primes_of_degree(gf3, dp)
    sieve._sieve.cache_clear()
    _, peak = traced_peak(lambda: mobius_table(gf3, d))
    assert peak < 6.5 * gf3.q**d


def test_cold_sieve_peak_gf9_degree7(gf9):
    """The one-byte counter becomes Lambda in place, so the two int8 tables
    are the only full-size arrays: a cold degree-7 build holds under 3
    bytes per monic at its peak."""
    d = 7
    for dp in range(1, d // 2 + 1):
        primes_of_degree(gf9, dp)
    sieve._sieve.cache_clear()
    _, peak = traced_peak(lambda: mobius_table(gf9, d))
    assert peak < 3 * gf9.q**d


def test_omega_field_wraps_at_eight_primes(gf2):
    """The counter keeps omega mod 8.  Over GF(2) the 8 primes of degree
    <= 4 have degrees summing to 22, so their product f wraps omega to 0:
    mu(f) = +1 and Lambda(f) = 0.  At degree 23, f times a linear prime
    has a square factor, so mu = 0."""
    primes = [Poly(gf2, list(P)) for dp in range(1, 5) for P in primes_of_degree(gf2, dp)]
    assert len(primes) == 8
    f = math.prod(primes[1:], start=primes[0])
    T = Poly.t(gf2)
    for g, mu in ((f, 1), (f * T, 0)):
        i = poly_index(g) - gf2.q**g.degree  # the leading 1 is not part of a monic's index
        assert int(mobius_table(gf2, g.degree)[i]) == mobius_oracle(g) == mu
        assert int(lambda_table(gf2, g.degree)[i]) == von_mangoldt(g) == 0
    sieve._sieve.cache_clear()  # 12.6M entries: leave no large table cached


def test_warm_twin_count_peak_gf3_degree12(gf3):
    """twin_count sums its int16 Lambda*Lambda product slab by slab; one
    full-size product and its int8 gather alone would take 3 bytes per
    monic, and the warm call holds under 2.5."""
    d, a = 12, Poly.one(gf3)
    expected = twin_count(gf3, d, a, trunc=2)  # builds the tables
    report, peak = traced_peak(lambda: twin_count(gf3, d, a, trunc=2))
    assert (report.value, report.details) == (expected.value, expected.details)
    assert peak < 2.5 * gf3.q**d


def _direct(ctx, e, terms):
    """The product read through affine_index_map, one whole index array per
    term, in int64: the unslabbed reference."""
    out = np.ones(ctx.q**e, dtype=np.int64)
    for kind, a, M in terms:
        deg, idx = affine_index_map(ctx, a, M, e)
        out *= (mobius_table if kind == "mu" else lambda_table)(ctx, deg)[idx]
    return out


# (field, e): _SLAB is cut to q^3 below, so g's top e - 3 digits are fixed per slab
SMALL_SLABS = [("gf3", 6), ("gf4", 5), ("gf9", 5)]


@pytest.mark.parametrize("ctxname,e", SMALL_SLABS)
def test_small_slab_sieve_tables(ctxname, e, request, monkeypatch):
    ctx = request.getfixturevalue(ctxname)
    for d in (e, e + 1):
        expected = sieve._sieve(ctx, d)
        monkeypatch.setattr(sieve, "_SLAB", ctx.q**3)
        assert sieve._slab_split(ctx.q, d - 1)[0] > 0  # the linear primes' slabs fix top digits
        for got, table in zip(sieve._sieve.__wrapped__(ctx, d), expected):
            assert got.dtype == table.dtype
            assert np.array_equal(got, table)
        monkeypatch.undo()


def _small_slab_terms(ctx, e, rng):
    T, one, zero = Poly.t(ctx), Poly.one(ctx), Poly.zero(ctx)
    top = T**(e - 1)
    dense = top + _random_poly(ctx, rng, e - 1)
    M2 = T**2 + T + Poly.constant(ctx, rng.randrange(1, ctx.q))
    return [
        [("lambda", zero, one), ("lambda", top + one, one)],  # a shift of degree e - 1
        [("mu", dense, one), ("lambda", one, one)],
        [("lambda", dense, one), ("mu", top * T + one, T), ("mu", zero, one)],  # a dominates
        [("mu", one, T), ("lambda", T + one, T + one)],  # deg M = 1
        [("mu", dense, M2), ("lambda", zero, one), ("lambda", top, one), ("mu", one, T)],
        [("mu", _random_poly(ctx, rng, e), one)],
        [("lambda", one, M2)],
    ]


@pytest.mark.parametrize("ctxname,e", SMALL_SLABS)
def test_small_slab_progressions(ctxname, e, request, monkeypatch):
    ctx = request.getfixturevalue(ctxname)
    cases = _small_slab_terms(ctx, e, random.Random(ctx.q * 10 + e))
    expected = [(_direct(ctx, e, terms), progression_values(ctx, e, terms)) for terms in cases]
    monkeypatch.setattr(sieve, "_SLAB", ctx.q**3)
    for terms, (direct, unslabbed) in zip(cases, expected):
        assert all(v.size <= ctx.q**3 for v in progression_slabs(ctx, e, terms))
        got = progression_values(ctx, e, terms)
        assert got.dtype == unslabbed.dtype
        assert np.array_equal(got, direct)
        assert progression_sum(ctx, e, terms) == int(direct.sum())


@pytest.mark.parametrize("ctxname,e", SMALL_SLABS)
def test_small_slab_twin_count(ctxname, e, request, monkeypatch):
    ctx = request.getfixturevalue(ctxname)
    T, one = Poly.t(ctx), Poly.one(ctx)
    shifts = [one, T ** (e - 1) + T + one, T ** (e - 2) * Poly.constant(ctx, ctx.q - 1)]
    expected = [twin_count(ctx, e, a, trunc=2) for a in shifts]
    monkeypatch.setattr(sieve, "_SLAB", ctx.q**3)
    for a, report in zip(shifts, expected):
        got = twin_count(ctx, e, a, trunc=2)
        assert got.value == report.value
        assert got.details["prime_pairs"] == report.details["prime_pairs"] > 0


def test_loop_path_yields_slabs(gf3, monkeypatch):
    """Above the caps the per-polynomial loop yields int64 slabs too."""
    e = 5
    T, one = Poly.t(gf3), Poly.one(gf3)
    terms = [("lambda", T**4 + one, one), ("mu", one, T)]
    expected = progression_values(gf3, e, terms)
    monkeypatch.setattr(sieve, "bulk_available", lambda ctx, degree: False)
    monkeypatch.setattr(sieve, "_SLAB", gf3.q**2)
    slabs = list(progression_slabs(gf3, e, terms))
    assert [v.size for v in slabs] == [9] * 27
    assert all(v.dtype == np.int64 for v in slabs)
    assert np.array_equal(np.concatenate(slabs), expected)
    assert progression_sum(gf3, e, terms) == int(expected.sum())


def _prime_powers(ctx, dp, j):
    return [(Poly(ctx, list(P)) ** j).coeffs for P in primes_of_degree(ctx, dp)]


# (field, degree of the primes, power j, e); the sieve's own batches and e = 0
@pytest.mark.parametrize("ctxname,dp,j,e", [
    ("gf3", 2, 1, 3),
    ("gf3", 2, 2, 1),
    ("gf9", 1, 1, 2),
    ("gf4", 2, 1, 3),
    ("gf4", 1, 3, 2),
    ("gf3", 3, 1, 0),
], ids=["gf3-deg2", "gf3-squares", "gf9", "gf4", "gf4-cubes", "e0"])
def test_batched_kernel_joins_single_calls(ctxname, dp, j, e, request):
    """A batch of rows (offset, M) gives the blocks of its rows one by one:
    the sieve's own rows of offset 0, rows that share M and differ in the
    offset, and rows that differ in both."""
    ctx = request.getfixturevalue(ctxname)
    Ms = _prime_powers(ctx, dp, j)
    d_out = e + dp * j
    rng = random.Random(ctx.q * 100 + d_out)
    offsets = [_random_poly(ctx, rng, d_out).coeffs for _ in Ms]
    for rows in ([((), M) for M in Ms], [(a, Ms[0]) for a in offsets], list(zip(offsets, Ms))):
        batch = sieve._affine_index(ctx, rows, e, d_out)
        singles = [sieve._affine_index(ctx, [row], e, d_out) for row in rows]
        assert len(rows) > 1
        assert batch.dtype == np.int64
        assert np.array_equal(batch, np.concatenate(singles))


# (field, a, M, e, degree of a + g*M); coefficients low first
@pytest.mark.parametrize("ctxname,a,M,e,deg", [
    ("gf9", [5, 0, 1], [3, 1], 3, 4),
    ("gf3", [], [2, 1, 1], 3, 5),  # the sieve's own call shape
    ("gf5", [3, 1], [1, 2, 1], 0, 2),
    ("gf3", [0, 1, 0, 2, 0, 1], [1, 0, 1], 2, 5),  # a dominates; digit 4 is g's leading 1
    ("gf9", [7, 1], [1], 3, 3),
    ("gf4", [2, 1], [3, 2, 1], 3, 5),
], ids=["gf9", "a0-degM2", "e0", "a-dominant", "M1", "gf4"])
def test_affine_index_map_matches_direct(ctxname, a, M, e, deg, request):
    ctx = request.getfixturevalue(ctxname)
    a, M = Poly(ctx, a), Poly(ctx, M)
    d_out, idx = affine_index_map(ctx, a, M, e)
    assert d_out == deg
    assert idx.shape == (ctx.q**e,)
    for i in range(ctx.q**e):
        f = a + monic_from_index(ctx, e, i) * M
        assert f.is_monic and f.degree == deg
        assert monic_from_index(ctx, deg, int(idx[i])) == f


def test_affine_index_map_dominant_a(gf3):
    T = Poly.t(gf3)
    a = T**4 + T + Poly.one(gf3)
    M = T + Poly.one(gf3)
    deg, idx = affine_index_map(gf3, a, M, 2)
    assert deg == 4
    for i in range(9):
        g = monic_from_index(gf3, 2, i)
        assert monic_from_index(gf3, 4, int(idx[i])) == a + g * M


def test_affine_index_map_shift(gf9):
    one = Poly.one(gf9)
    a = Poly.constant(gf9, 7)
    deg, idx = affine_index_map(gf9, a, one, 2)
    assert deg == 2
    for i in range(81):
        g = monic_from_index(gf9, 2, i)
        assert monic_from_index(gf9, 2, int(idx[i])) == g + a


def test_affine_index_map_rejects_collision(gf3):
    T = Poly.t(gf3)
    with pytest.raises(ValueError):
        affine_index_map(gf3, T**3, T, 2)  # deg a = e + deg M


def test_bulk_caps():
    big = field_new(521)  # q above the bulk cap
    assert not bulk_available(big, 2)
    with pytest.raises(ResourceLimitError):
        mobius_table(big, 2)


def test_mobius_table_basis_invariance():
    """Two different GF(9) moduli give identical mu statistics (the values
    are basis-independent even though encodings differ)."""
    c1 = field_new(3, 2)
    c2 = field_new(3, 2, modulus=[2, 1, 1])  # another irreducible quadratic
    assert c1.modulus != c2.modulus
    for d in range(0, 4):
        t1 = np.sort(mobius_table(c1, d))
        t2 = np.sort(mobius_table(c2, d))
        assert (t1 == t2).all()
        assert mobius_degree_sum(c1, d) == mobius_degree_sum(c2, d)
        assert lambda_degree_sum(c1, d) == lambda_degree_sum(c2, d)
