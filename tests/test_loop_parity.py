"""The per-polynomial loop path of each bulk sum against its sieve path.

With ffmobius.sieve.bulk_available forced to False, every sum below runs
the one loop in sieve.progression_slabs over monic polynomials; the whole
canonical report (or the integer, for the degree sums) must equal the one
the numpy sieve path gives.
"""

import pytest

from ffmobius import Poly, sieve
from ffmobius.experiments import (
    chowla_sum,
    lambda_ap_sum,
    main_term_partial,
    mobius_ap_sum,
    mobius_inv_additive,
    mobius_lambda_corr,
    mobius_prime_power_ap,
    twin_count,
)


def _cases(ctx, d):
    T = Poly.t(ctx)
    one = Poly.one(ctx)
    M = T**2 + one  # irreducible over GF(3), squarefree over GF(9)
    reports = [
        ("chowla", lambda: chowla_sum(ctx, d, [(one, one), (T, one), (one, T)])),
        ("mobius-ap", lambda: mobius_ap_sum(ctx, d + 1, M, T)),
        ("lambda-ap", lambda: lambda_ap_sum(ctx, d + 1, M, T)),
        ("mobius-lambda-corr", lambda: mobius_lambda_corr(ctx, d, one, T, [(T, one)])),
        ("prime-power-ap", lambda: mobius_prime_power_ap(ctx, d + 1, T + one, 2)),
        ("twin", lambda: twin_count(ctx, d, one)),
        ("main-term", lambda: main_term_partial(ctx, d + 1, M * (T + one))),
        ("mobius-inv-additive", lambda: mobius_inv_additive(ctx, d + 1, M)),
    ]
    cases = [(name, lambda run=run: run().to_json(canonical=True)) for name, run in reports]
    return cases + [
        ("mobius-degree-sum", lambda: sieve.mobius_degree_sum(ctx, d + 1)),
        ("lambda-degree-sum", lambda: sieve.lambda_degree_sum(ctx, d + 1)),
    ]


@pytest.mark.parametrize("field,d", [("gf3", 5), ("gf9", 3)])
def test_loop_path_equals_sieve_path(request, monkeypatch, field, d):
    ctx = request.getfixturevalue(field)
    bulk = {name: run() for name, run in _cases(ctx, d)}
    monkeypatch.setattr(sieve, "bulk_available", lambda ctx, degree: False)
    for name, run in _cases(ctx, d):
        assert run() == bulk[name], name
