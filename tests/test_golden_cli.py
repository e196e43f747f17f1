"""Canonical CLI output, byte for byte, for one small run of every subcommand.

tests/golden/cli_canonical.jsonl is the concatenated stdout of INVOCATIONS
in order.  Regenerate it (only when a report is meant to change) with

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import contextlib
import io
import os
import sys

from ffmobius import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli_canonical.jsonl")

INVOCATIONS = [
    ["char-sum", "--q", "3^2", "--g", "T^2+1", "--char", "idx:0,5", "--f", "T", "--t", "1"],
    ["rk-bound", "--q", "3", "--f", "T", "--g", "T^2+1", "--t", "1"],
    ["chowla", "--q", "3", "--pair", "1", "--pair", "T", "--pair", "1:T", "--d", "3"],
    ["chowla", "--q", "3^2", "--pair", "1", "--pair", "T", "--d-range", "2..4"],
    ["mobius-ap", "--q", "3", "--M", "T^2+1", "--a", "T", "--D", "5", "--seed", "7"],
    ["lambda-ap", "--q", "3", "--M", "T^2+1", "--a", "T", "--D", "5"],
    ["convolution", "--q", "3", "--f", "T^4+T+2"],
    ["vaughan", "--q", "3", "--f", "T^4+T+2", "--alpha", "1", "--beta", "2"],
    ["main-term", "--q", "3", "--M", "T", "--d", "3"],
    ["twin", "--q", "3", "--a", "1", "--d", "3", "--sing-trunc", "2"],
    ["mobius-lambda-corr", "--q", "3", "--a", "1", "--M", "T", "--pair", "T", "--d", "3"],
    ["mobius-inv-additive", "--q", "3", "--M", "T^2+1", "--d", "3"],
    ["derivative-ratio", "--q", "3", "--M", "T", "--a", "1", "--d", "4"],
    ["square-class", "--q", "3", "--M", "T", "--A", "1", "--a", "1", "--d", "3"],
    ["sign-change", "--q", "3", "--f", "T^20", "--eta", "0.5"],
    ["prime-power-ap", "--q", "3", "--P", "T+1", "--n", "2", "--D", "4"],
    ["kloosterman", "--q", "5", "--M", "T^2+2", "--x", "1", "--z", "T"],
    ["c-sum", "--q", "3", "--M", "T^2+1", "--g", "1", "--h", "T"],
    ["kloosterman-aggregate", "--q", "5", "--M", "T", "--b", "1;2;3;1;2;4", "--z", "1"],
    ["singular-series", "--q", "3", "--a", "T", "--N", "3", "--method", "coefficient-sum"],
    ["decompose", "--q", "3", "--a", "T^4", "--M", "1", "--rprime", "0", "--d", "3", "--verify"],
]


def canonical_output() -> str:
    buf = io.StringIO()
    for argv in INVOCATIONS:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--canonical"])
        assert code == 0, argv
    return buf.getvalue()


def test_canonical_output_matches_golden():
    with open(GOLDEN, encoding="utf-8", newline="") as fh:
        assert canonical_output() == fh.read()


def test_every_subcommand_is_covered():
    assert {argv[0] for argv in INVOCATIONS} == set(cli.REGISTRY)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(canonical_output())
    sys.exit(0)
