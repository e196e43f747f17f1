import tracemalloc

import numpy as np
import pytest

from ffmobius import Poly, field_new, mobius, sieve, von_mangoldt
from ffmobius.errors import ResourceLimitError
from ffmobius.factor import is_irreducible
from ffmobius.poly import monic_from_index
from ffmobius.sieve import (
    affine_index_map,
    bulk_available,
    lambda_degree_sum,
    lambda_table,
    mobius_degree_sum,
    mobius_table,
    prime_mask,
    primes_of_degree,
)


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
    tracemalloc.start()
    try:
        mobius_table(gf3, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * gf3.q**d


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
