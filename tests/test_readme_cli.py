"""Every command in the README's CLI block runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from ffmobius.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_commands():
    text = README.read_text()
    block = re.search(r"^## CLI$.*?^```\n(.*?)^```$", text, re.M | re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("ffmobius ")]


def test_readme_cli_block_found():
    assert len(_cli_commands()) >= 5


@pytest.mark.parametrize("argv", _cli_commands(), ids=lambda argv: argv[0])
def test_readme_command_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out
