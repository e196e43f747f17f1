"""Sieve tables, pinned by digest.

tests/golden/sieve_tables.json records, for each field and degree of
FIELDS, a SHA-256 of the dtype and bytes of prime_mask, mobius_table and
lambda_table, and, as lambda_values, a SHA-256 of the Lambda values widened
to little-endian int64, which no change of the table's dtype moves.
Regenerate it (only when a table encoding is meant to
change) with

    PYTHONPATH=src python3 tests/test_golden_sieve.py
"""

import hashlib
import json
import os
import sys

import pytest

from ffmobius import field_new
from ffmobius.sieve import lambda_table, mobius_table, prime_mask

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "sieve_tables.json")

# (p, k, largest degree): the sweep's two fields up to their largest sweep
# degree; GF(2) and GF(4), where prime powers P^j with j >= 2 are common;
# and GF(5) and GF(8), more fields with cubes and pure powers P^j, j >= 3
FIELDS = [(3, 1, 14), (3, 2, 7), (2, 1, 16), (2, 2, 8), (5, 1, 8), (2, 3, 6)]

TABLES = {"prime": prime_mask, "mu": mobius_table, "lambda": lambda_table}


def _digest(table) -> str:
    return hashlib.sha256(str(table.dtype).encode() + table.tobytes()).hexdigest()


def sieve_record(p, k, d) -> dict:
    ctx = field_new(p, k)
    record = {name: _digest(fn(ctx, d)) for name, fn in TABLES.items()}
    record["lambda_values"] = hashlib.sha256(lambda_table(ctx, d).astype("<i8").tobytes()).hexdigest()
    return record


def golden() -> dict:
    return {f"{p}^{k}:{d}": sieve_record(p, k, d)
            for p, k, dmax in FIELDS for d in range(1, dmax + 1)}


@pytest.fixture(scope="module")
def recorded():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", [(p, k, d) for p, k, dmax in FIELDS for d in range(1, dmax + 1)],
                         ids=lambda c: f"{c[0]}^{c[1]}:{c[2]}")
def test_sieve_tables_match_golden(case, recorded):
    p, k, d = case
    assert sieve_record(p, k, d) == recorded[f"{p}^{k}:{d}"]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
