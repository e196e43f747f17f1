import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ffmobius.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def jlines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_twin_example(capsys):
    code, out = run(capsys, "twin", "--q", "3", "--d", "2", "--a", "1")
    assert code == 0
    (rep,) = jlines(out)
    assert rep["value"] == 6
    assert rep["field"] == {"p": 3, "k": 1}


@pytest.mark.parametrize("argv", [
    ["twin", "--p", "3", "--k", "2", "--d", "2", "--a", "1"],
    ["chowla", "--p", "3", "--d", "2", "--pair", "1"],
], ids=["p-k", "p-as-pair-prefix"])
def test_p_k_field_spelling_rejected(argv, capsys):
    """--q P^K is the one field spelling; --p is not read as a prefix of
    --pair either."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ffmobius: error: ") and err.count("\n") == 1


def test_explicit_modulus(capsys):
    code, out = run(capsys, "twin", "--q", "3^2", "--modulus", "2,1,1",
                    "--d", "2", "--a", "1", "--canonical")
    assert code == 0
    (rep,) = jlines(out)
    # basis-independent value: matches the default-modulus run
    _, out_default = run(capsys, "twin", "--q", "3^2", "--d", "2", "--a", "1", "--canonical")
    assert rep["value"] == jlines(out_default)[0]["value"]


def test_d_range_sweep(capsys):
    code, out = run(capsys, "mobius-ap", "--q", "3", "--M", "T", "--a", "1", "--d-range", "2..5")
    assert code == 0
    reps = jlines(out)
    assert [r["params"]["D"] for r in reps] == [2, 3, 4, 5]
    assert reps[0]["value"] == -1


def test_csv_output(capsys):
    """Details get columns after the params, and rationals print as floats:
    the GF(9) reference at --sing-trunc 4 has parts of about 11,000 digits."""
    code, out = run(capsys, "twin", "--q", "3^2", "--d-range", "2..3", "--a", "1",
                    "--sing-trunc", "4", "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("experiment,p,k,seed,value")
    assert lines[0].endswith(",param:sing_trunc,detail:prime_pairs")
    assert len(lines) == 3
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["detail:prime_pairs"] for r in rows] == ["18", "69"]
    for r in rows:
        assert 0 < float(r["reference"]) < float(r["value"]) * 2


def test_decompose_verify(capsys):
    code, out = run(capsys, "decompose", "--q", "3", "--a", "T^4", "--M", "1",
                    "--rprime", "0", "--d", "3", "--verify")
    assert code == 0
    (rep,) = jlines(out)
    assert rep["details"]["D"] == "T^3"
    assert rep["details"]["E"] == "T"
    assert rep["details"]["counterexamples"] == 0
    assert rep["value"] in (-1, 1)


def test_decompose_degenerate_class(capsys):
    """chi vanishes on the whole class: no sign, every mu is 0."""
    code, out = run(capsys, "decompose", "--q", "3", "--a", "T^5+T^3", "--M", "1",
                    "--rprime", "1", "--d", "3", "--verify", "--canonical")
    assert code == 0
    assert out == (
        '{"details":{"all_mu_zero":true,"degenerate_class":true},"experiment":"decompose",'
        '"field":{"k":1,"p":3},"ok":true,"params":{"M":"1","a":"T^5+T^3","d":3,"rprime":"1"},'
        '"ratio":null,"reference":null,"seed":0,"value":null,"value_exact":null}\n')


def test_char_sum_selectors(capsys):
    code, out = run(capsys, "char-sum", "--q", "3", "--g", "T^2+1", "--char", "quadratic",
                    "--f", "T", "--t", "1")
    assert code == 0
    (rep,) = jlines(out)
    assert rep["ok"] is True
    code, out = run(capsys, "char-sum", "--q", "3", "--g", "T^2+1", "--char", "idx:3",
                    "--f", "T", "--t", "1")
    assert code == 0


def test_principal_char_rejected(capsys):
    code = main(["char-sum", "--q", "3", "--g", "T^2+1", "--char", "principal",
                 "--f", "T", "--t", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("ffmobius: error: ")


@pytest.mark.parametrize("argv, env", [
    (["twin", "--q", "3", "--a", "0", "--d", "3"], {}),
    (["mobius-ap", "--q", "3", "--M", "T", "--a", "1", "--D", "3"], {"FFMOBIUS_TABLE_CAP": "abc"}),
    (["mobius-ap", "--q", "2^25", "--M", "T", "--a", "1", "--D", "3"], {}),
    (["char-sum", "--q", "3^2", "--g", "T^2+1", "--char", "idx:9", "--t", "1"], {}),
    (["char-sum", "--q", "3", "--g", "T^2+1", "--char", "cubic", "--t", "1"], {}),
    (["mobius-ap", "--q", "3", "--M", "T", "--a", "1"], {}),
    (["twin", "--d", "3"], {}),
    (["kloosterman-aggregate", "--q", "5", "--M", "T", "--b", "1;2;3;1;2"], {}),
    (["mobius-ap", "--q", "3", "--M", "T", "--a", "1", "--d-range", "5..2"], {}),
    (["mobius-ap", "--q", "3", "--M", "T", "--a", "1", "--d-range", "2"], {}),
    (["twin", "--q", "3^", "--d", "3"], {}),
    (["twin", "--q", "^2", "--d", "3"], {}),
    (["twin", "--q", "3^x", "--d", "3"], {}),
    (["twin", "--q", "3", "--d", "3", "--no-such-flag"], {}),
    (["twin", "--q", "3", "--d", "x"], {}),
    ([], {}),
    (["chowla", "--q", "3", "--pair", "1", "--d", "-1"], {}),
    (["mobius-lambda-corr", "--q", "3", "--a", "1", "--d", "-1"], {}),
    (["derivative-ratio", "--q", "3", "--M", "T", "--d", "0"], {}),
    (["derivative-ratio", "--q", "3", "--M", "T", "--d", "-1"], {}),
    (["main-term", "--q", "3", "--M", "T", "--d", "-2"], {}),
    (["mobius-inv-additive", "--q", "3", "--M", "T", "--d", "-1"], {}),
    (["sign-change", "--q", "3", "--f", "T^20", "--eta", "inf"], {}),
    (["sign-change", "--q", "3", "--f", "T^20", "--eta=-inf"], {}),
    (["sign-change", "--q", "3", "--f", "T^20", "--eta", "nan"], {}),
    (["square-class", "--q", "3", "--d", "2", "--alpha", "inf"], {}),
    (["square-class", "--q", "3", "--d", "2", "--alpha", "nan"], {}),
], ids=["twin-a0", "table-cap-env", "past-table-cap", "char-idx", "char-selector",
        "no-degree", "no-field", "five-shifts", "reversed-d-range", "one-ended-d-range",
        "q-no-degree", "q-no-prime", "q-bad-degree", "unknown-flag", "non-integer-d",
        "no-subcommand", "chowla-negative-d", "corr-negative-d", "derivative-d0",
        "derivative-negative-d", "main-term-negative-d", "inv-additive-negative-d",
        "eta-inf", "eta-minus-inf", "eta-nan", "alpha-inf", "alpha-nan"])
def test_bad_input_exits_2_with_one_line(argv, env, capsys, monkeypatch):
    """Bad input is a usage or domain error: exit 2, a single stderr line,
    no traceback and no report; exit 1 stays reserved for a failed bound."""
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ffmobius: error: ") and err.count("\n") == 1


def test_kloosterman_and_c_sum(capsys):
    code, out = run(capsys, "kloosterman", "--q", "3", "--M", "T", "--x", "1", "--z", "1")
    assert code == 0
    (rep,) = jlines(out)
    assert abs(rep["value"]["re"] - (-1)) < 1e-9
    code, out = run(capsys, "c-sum", "--q", "3", "--M", "T", "--g", "1", "--h", "0")
    assert code == 0
    (rep,) = jlines(out)
    assert rep["ok"] is True


@pytest.mark.parametrize("argv", [
    ["kloosterman", "--q", "5", "--M", "T^2+2", "--psi-h", "0"],
    ["c-sum", "--q", "5", "--M", "T^2+2", "--psi-h", "0"],
    ["c-sum", "--q", "5", "--M", "T^2", "--psi-h", "T"],
], ids=["kloosterman-trivial-psi", "c-sum-trivial-psi", "c-sum-square-modulus"])
def test_no_bound_is_claimed_outside_its_domain(argv, capsys):
    """A trivial psi, or C(g, h) mod a non-squarefree M, has no bound to
    fail: the report is advisory and the exit status 0, not 1."""
    code, out = run(capsys, *argv)
    assert code == 0
    (rep,) = jlines(out)
    assert rep["ok"] is None and rep["reference"] is None and rep["ratio"] is None


def test_kloosterman_aggregate_cli(capsys):
    code, out = run(capsys, "kloosterman-aggregate", "--q", "5", "--M", "T",
                    "--b", "1;2;3;1;2;3", "--z", "0")
    assert code == 0
    (rep,) = jlines(out)
    assert rep["ok"] is True


def test_singular_series_cli(capsys):
    code, out = run(capsys, "singular-series", "--q", "3", "--a", "1", "--N", "1")
    assert code == 0
    (rep,) = jlines(out)
    assert rep["value"]["rational"] == "27/64"


def test_determinism_across_threads(capsys):
    """Identical seed and params, different thread counts: byte-identical
    canonical JSON."""
    outs = []
    for threads in ("1", "2", "4"):
        code, out = run(capsys, "chowla", "--q", "3", "--pair", "1", "--pair", "T",
                        "--d-range", "2..5", "--threads", threads, "--canonical")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_exit_code_on_failure(capsys, monkeypatch):
    """A hard inequality violation must give a nonzero exit."""
    import ffmobius.cli as cli_mod

    def fake(*a, **kw):
        from ffmobius.report import ExperimentReport

        return [ExperimentReport("twin", (3, 1), {}, value=0, ok=False)]

    monkeypatch.setattr(cli_mod, "_dispatch", lambda args, ctx: fake())
    assert main(["twin", "--q", "3", "--d", "2"]) == 1


def test_parser_reuse_keeps_each_calls_pairs(capsys):
    """The parser is built once per process; append-action defaults must
    not carry --pair values from one call into the next."""
    for pairs in (["1", "T"], ["T^2+1"], []):
        argv = ["mobius-lambda-corr", "--q", "3", "--a", "2", "--d", "3", "--canonical"]
        for a in pairs:
            argv += ["--pair", a]
        code, out = run(capsys, *argv)
        assert code == 0
        (rep,) = jlines(out)
        assert rep["params"]["pairs"] == [f"{a}:1" for a in pairs]


@pytest.mark.parametrize("bulk", [True, False])
def test_mobius_ap_char2_on_both_paths(capsys, monkeypatch, bulk):
    """mobius falls back to the factorization oracle in characteristic 2,
    so the loop path answers what the sieve path answers."""
    from ffmobius import sieve

    if not bulk:
        monkeypatch.setattr(sieve, "bulk_available", lambda ctx, degree: False)
    code, out = run(capsys, "mobius-ap", "--q", "2", "--M", "T", "--a", "1", "--D", "3")
    assert code == 0
    assert jlines(out)[0]["value"] == -1


def test_singular_series_past_decimal_digit_limit(capsys):
    """The GF(9) Euler product at N = 4 has parts of about 12,000 digits;
    they serialize exactly, in hex, without touching the int -> str limit."""
    from fractions import Fraction

    from ffmobius import Poly, field_new, singular_series

    code, out = run(capsys, "singular-series", "--q", "3^2", "--a", "1", "--N", "4")
    assert code == 0
    (rep,) = jlines(out)
    num, den = (int(part, 0) for part in rep["value"]["rational"].split("/"))
    ctx = field_new(3, 2)
    assert Fraction(num, den) == singular_series(Poly.one(ctx), 4).value
    assert rep["value"]["approx"] == float(Fraction(num, den))


def test_repeated_calls_share_one_field_and_the_factor_memo():
    """51 decompose calls in one process build GF(3) once, and every call
    after the first is served from the factor module's memos: factor's and
    the distinct-degree split's, which rad and rad1 read."""
    script = """
import contextlib, gc, io
from ffmobius.cli import main
from ffmobius.field import FieldCtx
from ffmobius.factor import distinct_degree_split, factor
memos = (factor, distinct_degree_split)
argv = ["decompose", "--q", "3", "--a", "T^4", "--M", "1", "--rprime", "0", "--d", "3", "--verify"]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(argv) == 0
    first = [memo.cache_info() for memo in memos]
    for _ in range(50):
        assert main(argv) == 0
last = [memo.cache_info() for memo in memos]
gc.collect()
live = sum(isinstance(o, FieldCtx) and o.q == 3 for o in gc.get_objects())
print(live, sum(b.misses - a.misses for a, b in zip(first, last)), sum(b.hits - a.hits for a, b in zip(first, last)))
"""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    live, new_misses, new_hits = map(int, done.stdout.split())
    assert live == 1
    assert new_misses == 0 and new_hits > 0
