"""Every command in the README's CLI block runs and exits 0, and its degree
sweeps print the plot-ready CSV tables."""

import csv
import io
import re
import shlex
from pathlib import Path

import pytest

from ffmobius.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# GF(9), d = 2..7: the columns of the README sweeps, as the sweep scripts
# that these lines replaced printed them (mu and Lambda sums over 1 mod T,
# the Chowla sum of mu(f) mu(f + T), the twin pair sum and its prime pairs).
SWEEP_COLUMNS = {
    "mobius-ap": {"value": [-1, -1, -1, -1, -1, -1]},
    "lambda-ap": {"value": [10, 91, 820, 7381, 66430, 597871]},
    "chowla": {"value": [0, -9, 9, 171, 1962, 10314]},
    "twin": {"value": [72, 630, 3168, 49050, 466416, 4154661],
             "detail:prime_pairs": [18, 69, 198, 1962, 12954, 84789]},
}


def _cli_commands():
    text = README.read_text()
    block = re.search(r"^## CLI$.*?^```\n(.*?)^```$", text, re.M | re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("ffmobius ")]


def test_readme_cli_block_found():
    assert len(_cli_commands()) >= 9
    assert set(SWEEP_COLUMNS) <= {argv[0] for argv in _cli_commands()}


@pytest.mark.parametrize("argv", _cli_commands(), ids=lambda argv: argv[0])
def test_readme_command_exits_zero(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out
    if argv[0] in SWEEP_COLUMNS:
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r.get("param:d") or r["param:D"]) for r in rows] == list(range(2, 8))
        for column, values in SWEEP_COLUMNS[argv[0]].items():
            assert [int(r[column]) for r in rows] == values
        assert all(float(r["reference"]) > 0 for r in rows)
