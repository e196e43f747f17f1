import json
from fractions import Fraction

from ffmobius import ExperimentReport, Poly
from ffmobius.report import encode_value


def test_encode_value_forms(gf3):
    T = Poly.t(gf3)
    assert encode_value(5) == 5
    assert encode_value(Fraction(3, 2)) == {"rational": "3/2", "approx": 1.5}
    assert encode_value(complex(1, -2)) == {"re": 1.0, "im": -2.0}
    assert encode_value(T + Poly.one(gf3)) == "T+1"
    assert encode_value([T, 1]) == ["T", 1]
    assert encode_value({"x": T}) == {"x": "T"}


def test_encode_value_fractions_of_any_size():
    """Parts past DECIMAL_BITS print in hex; int(part, 0) reads either form."""
    for v in (Fraction(-(3**9000), 7), Fraction(5, 3**9000), Fraction(3**9000 + 1, 2**9000)):
        enc = encode_value(v)
        num, den = enc["rational"].split("/")
        assert Fraction(int(num, 0), int(den, 0)) == v
        json.dumps(enc, allow_nan=False)
    assert encode_value(Fraction(-(3**9000), 7))["approx"] is None
    assert encode_value(Fraction(5, 3**9000))["approx"] == 0.0


def test_report_canonical_drops_runtime(gf3):
    rep = ExperimentReport("demo", (3, 1), {"f": Poly.t(gf3)}, value=1, runtime_ms=123)
    full = json.loads(rep.to_json())
    canon = json.loads(rep.to_json(canonical=True))
    assert full["runtime_ms"] == 123
    assert "runtime_ms" not in canon
    full.pop("runtime_ms")
    assert full == canon


def test_report_json_sorted_and_compact(gf3):
    rep = ExperimentReport("demo", (3, 1), {"b": 1, "a": 2}, value=Fraction(1, 3))
    text = rep.to_json(canonical=True)
    assert text.index('"a"') < text.index('"b"')
    assert ": " not in text
    json.loads(text)


def test_reports_roundtrip_deterministically(gf3):
    rep1 = ExperimentReport("demo", (3, 1), {"f": Poly.t(gf3)}, value=complex(0.5, 0.25), seed=7)
    rep2 = ExperimentReport("demo", (3, 1), {"f": Poly.t(gf3)}, value=complex(0.5, 0.25), seed=7)
    assert rep1.to_json(canonical=True) == rep2.to_json(canonical=True)
