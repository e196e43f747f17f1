"""Every command in the README's CLI and Scripts blocks runs and exits 0."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ffmobius.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _block_lines(section, prefix):
    text = README.read_text()
    block = re.search(rf"^## {section}$.*?^```\n(.*?)^```$", text, re.M | re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith(prefix)]


def _cli_commands():
    return _block_lines("CLI", "ffmobius ")


def _script_commands():
    return _block_lines("Scripts", "python3 scripts/")


def test_readme_cli_block_found():
    assert len(_cli_commands()) >= 5
    assert len(_script_commands()) >= 3


@pytest.mark.parametrize("argv", _cli_commands(), ids=lambda argv: argv[0])
def test_readme_command_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", _script_commands(), ids=lambda argv: Path(argv[0]).stem)
def test_readme_script_exits_zero(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
