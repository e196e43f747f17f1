"""The per-polynomial loop path of each bulk experiment against its sieve path.

With ffmobius.sieve.bulk_available forced to False, every experiment below
runs its own fallback loop over monic polynomials; the whole canonical report
must equal the one the numpy sieve path gives.
"""

import pytest

from ffmobius import Poly, sieve
from ffmobius.experiments import (
    chowla_sum,
    lambda_ap_sum,
    mobius_ap_sum,
    mobius_lambda_corr,
    mobius_prime_power_ap,
    twin_count,
)


def _cases(ctx, d):
    T = Poly.t(ctx)
    one = Poly.one(ctx)
    M = T**2 + one  # irreducible over GF(3), squarefree over GF(9)
    return [
        ("chowla", lambda: chowla_sum(ctx, d, [(one, one), (T, one), (one, T)])),
        ("mobius-ap", lambda: mobius_ap_sum(ctx, d + 1, M, T)),
        ("lambda-ap", lambda: lambda_ap_sum(ctx, d + 1, M, T)),
        ("mobius-lambda-corr", lambda: mobius_lambda_corr(ctx, d, one, T, [(T, one)])),
        ("prime-power-ap", lambda: mobius_prime_power_ap(ctx, d + 1, T + one, 2)),
        ("twin", lambda: twin_count(ctx, d, one)),
    ]


@pytest.mark.parametrize("field,d", [("gf3", 5), ("gf9", 3)])
def test_loop_path_equals_sieve_path(request, monkeypatch, field, d):
    ctx = request.getfixturevalue(field)
    bulk = {name: run().to_json(canonical=True) for name, run in _cases(ctx, d)}
    monkeypatch.setattr(sieve, "bulk_available", lambda ctx, degree: False)
    for name, run in _cases(ctx, d):
        assert run().to_json(canonical=True) == bulk[name], name
