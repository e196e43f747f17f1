"""Runtime limits and the factorization seed.

The caps that bound table sizes and the fixed seed of the randomized
equal-degree splitting live here, so results are reproducible run to run
and failures on oversized inputs are loud instead of gradual.
"""

from __future__ import annotations

import os

# Field construction refuses q above this unless FFMOBIUS_TABLE_CAP says otherwise.
DEFAULT_TABLE_CAP = 1 << 20

# Full q*q add/mul tables are built only for extension fields up to this size.
PAIR_TABLE_CAP = 1 << 10

# Per-ring lookup tables (additive-character values, residue products) are
# built only up to this many entries.
RING_TABLE_CAP = 1 << 16

# field_new() interns this many contexts (least recently used dropped); each
# holds q-sized tables, so the bound keeps large fields from piling up.
FIELD_CACHE_SIZE = 32

# factor() memoises this many factorizations (least recently used dropped),
# enough for the distinct inputs of one exhaustive decomposition sweep; the
# per-polynomial Frobenius rows and divisor-pair histograms share the bound.
FACTOR_CACHE_SIZE = 1 << 15

# numpy bulk kernels (sieves, index maps) apply only up to these sizes.
BULK_Q_CAP = 256
BULK_SIZE_CAP = 1 << 24

# Base seed for equal-degree splitting; per-polynomial streams are derived
# from it so factorizations do not depend on call order.
CZ_SEED = 24601

def field_table_cap() -> int:
    """Field-size cap, overridable via the FFMOBIUS_TABLE_CAP env var."""
    raw = os.environ.get("FFMOBIUS_TABLE_CAP")
    if not raw:
        return DEFAULT_TABLE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"FFMOBIUS_TABLE_CAP must be an integer, got {raw!r}") from None
