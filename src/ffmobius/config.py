"""Runtime limits and the factorization seed.

The caps that bound table sizes and the fixed seed of the randomized
equal-degree splitting live here, so results are reproducible run to run
and failures on oversized inputs are loud instead of gradual.
"""

from __future__ import annotations

import os

# Field construction refuses q above this unless FFMOBIUS_TABLE_CAP says otherwise.
DEFAULT_TABLE_CAP = 1 << 20

# Full q*q add/mul tables are built for every field, prime or extension, up
# to this size; past it the pair tables compute each entry from the digit and
# log formulas, read by the same flat index.
PAIR_TABLE_CAP = 1 << 10

# field_new() interns this many contexts (least recently used dropped); each
# holds q-sized tables, so the bound keeps large fields from piling up.
FIELD_CACHE_SIZE = 32

# factor() memoises this many factorizations (least recently used dropped),
# enough for the distinct inputs of one exhaustive decomposition sweep; the
# memos of distinct_degree_split, inverse_mod, quadratic_character_mod,
# _frobenius (Frobenius rows) and _pair_histogram share the bound.
FACTOR_CACHE_SIZE = 1 << 15

# numpy bulk kernels (sieves, index maps) apply only up to these sizes.
BULK_Q_CAP = 256
BULK_SIZE_CAP = 1 << 24

# The sieve caches its (mu, Lambda) table pairs, 2 bytes per monic, up to this
# many bytes (least recently used dropped, before each build); the pair just
# built is kept even when it alone is larger, so a degree sweep holds one
# large pair and at most this much of the others.
SIEVE_CACHE_BYTES = 1 << 23

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
