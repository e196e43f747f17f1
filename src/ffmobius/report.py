"""Experiment reports and their canonical JSON form.

Reports serialize with sorted keys and a fixed value encoding, so a rerun
with identical parameters and seed is byte-identical regardless of worker
count.  runtime_ms is the one wall-clock field; the canonical form drops
it so determinism checks and golden files stay stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .poly import Poly, format_poly

__all__ = ["ExperimentReport", "encode_value", "report_json"]


# Integers up to this many bits print in decimal (about 3900 digits, under
# CPython's default 4300-digit limit on int -> str); longer ones in hex.
DECIMAL_BITS = 13000


def _int_text(n: int) -> str:
    """Decimal, or 0x-prefixed hex past DECIMAL_BITS; int(text, 0) reads both."""
    return str(n) if n.bit_length() <= DECIMAL_BITS else hex(n)


def _approx(v: Fraction) -> float | None:
    """float(v), or None (JSON null) past the float range: JSON has no
    infinities, and the exact value is in "rational"."""
    try:
        return float(v)
    except OverflowError:
        return None


def encode_value(v: Any):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return v
    if isinstance(v, Fraction):
        return {"rational": f"{_int_text(v.numerator)}/{_int_text(v.denominator)}", "approx": _approx(v)}
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, Poly):
        return format_poly(v)
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): encode_value(x) for k, x in v.items()}
    return str(v)


@dataclass
class ExperimentReport:
    experiment: str
    field: tuple[int, int]  # (p, k)
    params: dict[str, Any]
    value: Any
    value_exact: Any = None
    reference: Any = None
    ratio: float | None = None
    ok: bool | None = None
    details: dict[str, Any] = field(default_factory=dict)
    runtime_ms: int = 0
    seed: int = 0

    def to_dict(self, canonical: bool = False) -> dict:
        out = {
            "experiment": self.experiment,
            "field": {"p": self.field[0], "k": self.field[1]},
            "params": encode_value(self.params),
            "value": encode_value(self.value),
            "value_exact": encode_value(self.value_exact),
            "reference": encode_value(self.reference),
            "ratio": self.ratio,
            "ok": self.ok,
            "details": encode_value(self.details),
            "seed": self.seed,
        }
        if not canonical:
            out["runtime_ms"] = self.runtime_ms
        return out

    def to_json(self, canonical: bool = False) -> str:
        return json.dumps(self.to_dict(canonical), sort_keys=True, separators=(",", ":"))


def report_json(reports, canonical: bool = False) -> str:
    return "\n".join(r.to_json(canonical) for r in reports)
