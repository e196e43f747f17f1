"""The README's Library block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs():
    text = README.read_text()
    block = re.search(r"^## Library$.*?^```python\n(.*?)^```$", text, re.M | re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["data"].S in (-1, 1)
