"""Every top-level import in the package modules and the test files is
used, and every private top-level name is referenced somewhere in the
package.

No linter runs on this repository, so this catches the imports, helpers and
module-level caches a refactor leaves behind.  __init__.py is skipped for
imports: it imports names to re-export them.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "ffmobius"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"] + sorted(TESTS.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names listed in __all__ count as used: they are re-exported
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"tests/{p.name}" if p.parent == TESTS else p.name)
def test_no_unused_top_level_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    assert _unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]


def _unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and assignments that no module
    of `sources` (name -> text) references by name, attribute or import."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            out += [f"{module}: {name} (line {node.lineno})" for name in names
                    if name.startswith("_") and not name.startswith("__") and name not in referenced]
    return sorted(out)


def test_every_private_name_is_referenced():
    assert _unreferenced_private({p.name: p.read_text() for p in SOURCES}) == []


def test_detects_an_unreferenced_private_function():
    source = "def _used():\n    return 1\n\n\ndef _left_over():\n    return _used()\n"
    assert _unreferenced_private({"m.py": source}) == ["m.py: _left_over (line 5)"]


def _unread_constants(config: str, sources: dict[str, str]) -> list[str]:
    """Top-level constants of the `config` source that neither a module of
    `sources` (name -> text) nor config itself reads by name, attribute or
    import; config's own functions count as readers (field_table_cap reads
    DEFAULT_TABLE_CAP)."""
    tree = ast.parse(config)
    constants = [t.id for node in tree.body if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name)]
    read = set()
    for t in [tree] + [ast.parse(text) for text in sources.values()]:
        for node in ast.walk(t):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [name for name in constants if name not in read]


def test_every_config_constant_is_read():
    others = {p.name: p.read_text() for p in SOURCES if p.name != "config.py"}
    assert _unread_constants((PACKAGE / "config.py").read_text(), others) == []


def test_detects_an_unread_config_constant():
    assert _unread_constants("USED = 1\nLEFT_OVER = 2\n", {"m.py": "from .config import USED\n"}) == ["LEFT_OVER"]


# Unbounded memos allowed in src/ffmobius, each with the reason it is bounded anyway.
UNBOUNDED_MEMOS = {
    "sieve.primes_of_degree": "the sieve asks only for degrees up to half its own, at most 12",
    "cli.build_parser": "takes no arguments, so it holds one parser",
}


def _last_name(node) -> str | None:
    """`cache` for both functools.cache and a bare cache."""
    return getattr(node, "attr", getattr(node, "id", None))


def _unbounded_memos(sources: dict[str, str]) -> list[str]:
    """module.function for every function of `sources` (name -> text)
    decorated with functools.cache, a bare cache or lru_cache(maxsize=None)."""
    out = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                if isinstance(dec, ast.Call):  # lru_cache(None) or lru_cache(maxsize=None)
                    sizes = dec.args[:1] + [k.value for k in dec.keywords if k.arg == "maxsize"]
                    unbounded = _last_name(dec.func) == "lru_cache" and any(
                        isinstance(s, ast.Constant) and s.value is None for s in sizes)
                else:
                    unbounded = _last_name(dec) == "cache"
                if unbounded:
                    out.append(f"{name.removesuffix('.py')}.{node.name}")
    return sorted(out)


def test_every_memo_is_bounded():
    # exactly the allowlist: an entry whose memo is gone or bounded is dropped from it
    assert _unbounded_memos({p.name: p.read_text() for p in SOURCES}) == sorted(UNBOUNDED_MEMOS)


def test_detects_an_unbounded_memo():
    source = "@functools.cache\ndef f(x): return x\n"
    assert _unbounded_memos({"m.py": source}) == ["m.f"]
    assert _unbounded_memos({"m.py": "@lru_cache(maxsize=None)\ndef f(x): return x\n"}) == ["m.f"]
    assert _unbounded_memos({"m.py": "@functools.lru_cache(None)\ndef f(x): return x\n"}) == ["m.f"]
    assert _unbounded_memos({"m.py": "@lru_cache(maxsize=8)\ndef f(x): return x\n"}) == []


def test_every_file_parses_as_the_oldest_supported_python():
    """pyproject admits Python >= 3.10, so no file may use newer syntax."""
    root = TESTS.parent
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py"))
    assert {p.relative_to(root).parts[0] for p in paths} == {"src", "tests", "perfbench"}
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
