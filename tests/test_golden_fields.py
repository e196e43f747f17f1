"""Field tables and residue-field logs, pinned by digest.

tests/golden/field_tables.json records, for each field of FIELDS, the
modulus, the generator and a SHA-256 of every table of field_new's
context, and for each prime of LOCAL_LOGS the generator and a digest of
local_logs(P).dlog.  Regenerate it (only when an encoding is meant to
change) with

    PYTHONPATH=src python3 tests/test_golden_fields.py
"""

import hashlib
import json
import os
import sys

import pytest

from ffmobius import field_new, parse_poly
from ffmobius.characters import local_logs

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "field_tables.json")

# (p, k): every prime field up to 7, the small extension fields, 3^7 (past
# the pair-table cap), 2^10 (the largest pair table) and 31^2.
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2),
          (3, 3), (7, 2), (3, 4), (5, 3), (3, 5), (2, 8), (3, 7), (2, 10), (31, 2)]

TABLES = ("exp_table", "dlog_table", "inv_table", "neg_table", "quad_char_table",
          "add_table", "mul_table")

LOCAL_LOGS = [((3, 1), "T^2+1"), ((3, 1), "T^3+2*T+1"), ((3, 1), "T^5+2*T+1"),
              ((3, 2), "T+2"), ((3, 2), "T^2+T+3"), ((3, 2), "T^3+T+5")]


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def field_record(p, k) -> dict:
    ctx = field_new(p, k)
    rec = {"modulus": list(ctx.modulus), "generator": ctx.generator}
    for name in TABLES:
        rec[name] = _digest(getattr(ctx, name))
    return rec


def local_logs_record(pk, text) -> dict:
    logs = local_logs(parse_poly(field_new(*pk), text))
    return {"generator": list(logs.generator.coeffs), "dlog": _digest(logs.dlog)}


def golden() -> dict:
    return {
        "fields": {f"{p}^{k}": field_record(p, k) for p, k in FIELDS},
        "local_logs": {f"{p}^{k}:{text}": local_logs_record((p, k), text)
                       for (p, k), text in LOCAL_LOGS},
    }


@pytest.fixture(scope="module")
def recorded():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("pk", FIELDS, ids=lambda pk: f"{pk[0]}^{pk[1]}")
def test_field_tables_match_golden(pk, recorded):
    assert field_record(*pk) == recorded["fields"][f"{pk[0]}^{pk[1]}"]


@pytest.mark.parametrize("case", LOCAL_LOGS, ids=lambda c: f"{c[0][0]}^{c[0][1]}:{c[1]}")
def test_local_logs_match_golden(case, recorded):
    (p, k), text = case
    assert local_logs_record((p, k), text) == recorded["local_logs"][f"{p}^{k}:{text}"]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
