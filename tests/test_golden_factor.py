"""Factorizations, pinned by digest.

tests/golden/factorizations.json records, for each field and degree of
FIELDS, a SHA-256 of the factorizations of every monic of that degree in
encoding order: each line lists the primes by degree and base-q index with
their multiplicities, in the order factor returns them.  Any change to the
oracle's kernels must leave every line as it is.  Regenerate the file (only
when the factorization encoding is meant to change) with

    PYTHONPATH=src python3 tests/test_golden_factor.py
"""

import hashlib
import json
import os
import sys

import pytest

from ffmobius import factor, field_new, monics, poly_index

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "factorizations.json")

# (p, k, largest degree)
FIELDS = [(3, 1, 6), (3, 2, 4)]


def factor_record(p, k, d) -> str:
    ctx = field_new(p, k)
    lines = []
    for f in monics(ctx, d):
        fac = factor(f)
        lines.append(" ".join(f"{P.degree}:{poly_index(P)}^{e}" for P, e in fac.factors))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def golden() -> dict:
    return {f"{p}^{k}:{d}": factor_record(p, k, d) for p, k, dmax in FIELDS for d in range(dmax + 1)}


@pytest.fixture(scope="module")
def recorded():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", [(p, k, d) for p, k, dmax in FIELDS for d in range(dmax + 1)],
                         ids=lambda c: f"{c[0]}^{c[1]}:{c[2]}")
def test_factorizations_match_golden(case, recorded):
    p, k, d = case
    assert factor_record(p, k, d) == recorded[f"{p}^{k}:{d}"]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
