"""What perfbench/ reads of the package still exists.

The benchmark wraps ffmobius functions by name (perfbench/spans.py) and
calls the progression sums with threads= (perfbench/workloads.py), but its
own self-test writes into perfbench/out/ and is not part of the test suite.
These checks read both files with ast only, so a refactor that drops or
renames a name the benchmark uses fails here instead.
"""

import ast
import importlib
import inspect
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _literal(path: pathlib.Path, name: str):
    """The value of the top-level assignment `name = <literal>` in path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} has no {name}")


def test_span_entry_points_resolve():
    entry_points = _literal(PERFBENCH / "spans.py", "ENTRY_POINTS")
    methods = _literal(PERFBENCH / "spans.py", "METHODS")
    assert "sieve" in entry_points and "affine_index_map" in entry_points["sieve"]
    missing = []
    for layer, names in entry_points.items():
        mod = importlib.import_module(f"ffmobius.{layer}")
        missing += [f"{layer}.{name}" for name in names if not callable(getattr(mod, name, None))]
    for layer, pairs in methods.items():
        mod = importlib.import_module(f"ffmobius.{layer}")
        missing += [f"{layer}.{cls}.{meth}" for cls, meth in pairs
                    if not callable(getattr(getattr(mod, cls, None), meth, None))]
    assert missing == []


def test_workload_sums_accept_threads():
    """The six progression sums the sweep calls with threads=."""
    experiments = importlib.import_module("ffmobius.experiments")
    called = {
        node.func.attr
        for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "experiments"
        and any(k.arg == "threads" for k in node.keywords)
    }
    assert called == {"mobius_ap_sum", "lambda_ap_sum", "mobius_prime_power_ap",
                      "chowla_sum", "twin_count", "mobius_lambda_corr"}
    for name in called:
        assert "threads" in inspect.signature(getattr(experiments, name)).parameters, name
