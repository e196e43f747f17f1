"""Span tracing around the public entry points of each ffmobius layer.

The benchmark never edits the package.  Instead it replaces, from outside,
every reference to a layer's public functions (the module attribute and
every name another ffmobius module imported directly) with a wrapper that
records a span: name, layer, start, end and parent.  Spans stay in memory
and are written out once the run ends; self time per layer is derived from
them afterwards.

Hot scalar methods (FieldCtx.mul/add, Poly arithmetic) stay unwrapped: at
tens of millions of calls per run their wrappers would swamp the run.
Generators (monics, polys_below, ...) stay unwrapped too, because a span
around them would close before any work is done.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

LAYERS = ("field", "poly", "factor", "arith", "sieve", "experiments",
          "characters", "decomposition", "report", "cli")

# Public entry points per layer, by module attribute name.  sieve's
# bulk_available is a size predicate, not sieve work, and stays unwrapped so
# that a loop-path op reads zero sieve calls.
ENTRY_POINTS = {
    "field": ("field_new",),
    "poly": ("gcd", "ext_gcd", "resultant", "discriminant", "is_squarefree",
             "poly_index", "poly_from_index", "monic_from_index",
             "parse_poly", "format_poly"),
    "factor": ("factor", "is_irreducible", "rad", "rad1", "divisors",
               "divisor_count", "pth_root"),
    "arith": ("mobius", "mobius_oracle", "von_mangoldt", "euler_phi",
              "jacobi", "jacobi_oracle", "inverse_mod", "singular_series"),
    "sieve": ("prime_mask", "primes_of_degree", "mobius_table", "lambda_table",
              "affine_index_map", "mobius_degree_sum", "lambda_degree_sum"),
    "experiments": ("char_sum_check", "char_sum_exhaustive", "rk_bound",
                    "rk_bound_report", "chowla_sum", "mobius_ap_sum",
                    "lambda_ap_sum", "convolution_check", "vaughan_check",
                    "main_term_partial", "twin_count", "mobius_lambda_corr",
                    "mobius_inv_additive", "derivative_ratio",
                    "square_class_count", "sign_change_search",
                    "mobius_prime_power_ap", "kloosterman_report",
                    "c_sum_report", "kloosterman_aggregate_report"),
    "characters": ("jacobi_character", "quadratic_character_mod",
                   "residue_ring", "local_logs", "additive_character",
                   "kloosterman", "rational_kloosterman_aggregate", "c_sum"),
    "decomposition": ("derivative_class_rep", "decompose",
                      "verify_decomposition", "principal_implies_square"),
    "report": ("encode_value", "report_json"),
    "cli": ("main",),
}

# Methods that callers reach through an object rather than a module name.
METHODS = {
    "characters": (("DirichletCharacter", "__call__"),),
    "report": (("ExperimentReport", "to_json"),),
}

SIEVE_TABLES = ("prime_mask", "mobius_table", "lambda_table")


class Tracer:
    """Collects spans; installed once per traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start_ns, end_ns, parent]
        self.tables: list[tuple] = []  # (id(array), nbytes) per table call
        self.json_bytes = 0
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._keep: list = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, layer: str) -> int:
        st = self._stack()
        if st:
            parent = st[-1]
        elif self._main_stack:
            # a pool worker thread: its caller is whatever the main thread
            # is blocked in
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:  # pool threads open spans too
            idx = len(self.spans)
            self.spans.append([name, layer, time.perf_counter_ns(), 0, parent])
        st.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self._stack().pop()

    def wrap(self, fn, name: str, layer: str):
        tracer = self
        short = name.split(".")[-1]
        if layer == "sieve" and short in SIEVE_TABLES:
            on_return = tracer._table_returned
        elif name == "report.ExperimentReport.to_json":
            on_return = tracer._json_returned
        else:
            on_return = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def _table_returned(self, arr) -> None:
        self._keep.append(arr)  # keeps ids unique for the life of the run
        self.tables.append((id(arr), int(arr.nbytes)))

    def _json_returned(self, text: str) -> None:
        self.json_bytes += len(text.encode())


def install(tracer: Tracer) -> None:
    """Replace every reference to each entry point, in every ffmobius module."""
    for layer in LAYERS:
        importlib.import_module(f"ffmobius.{layer}")
    modules = [m for n, m in list(sys.modules.items()) if n == "ffmobius" or n.startswith("ffmobius.")]
    replace: dict[int, object] = {}
    for layer, names in ENTRY_POINTS.items():
        mod = importlib.import_module(f"ffmobius.{layer}")
        for name in names:
            orig = getattr(mod, name)
            if id(orig) not in replace:
                replace[id(orig)] = tracer.wrap(orig, f"{layer}.{name}", layer)
    for mod in modules:
        for key, val in list(vars(mod).items()):
            new = replace.get(id(val))
            if new is not None:
                setattr(mod, key, new)
    for layer, methods in METHODS.items():
        mod = importlib.import_module(f"ffmobius.{layer}")
        for cls_name, meth in methods:
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(getattr(cls, meth), f"{layer}.{cls_name}.{meth}", layer))


def _union_ns(intervals) -> int:
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s[4] >= 0:
            children.setdefault(s[4], []).append((s[2], s[3]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[2], s[3]
        kids = [(max(a, lo), min(b, hi)) for a, b in children.get(i, ()) if b > lo and a < hi]
        out.append((hi - lo) - _union_ns(kids))
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    """Spans as [name index, start ns, end ns, parent index]; -1 is no parent."""
    names: dict[str, int] = {}
    rows = []
    for name, _layer, start, end, parent in tracer.spans:
        rows.append([names.setdefault(name, len(names)), start, end, parent])
    with open(path, "w") as fh:
        json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, op_spans: list[int]) -> dict:
    """Per-layer figures, each as (value, unit), derived from the spans."""
    spans = tracer.spans
    selfs = self_times(spans)
    ops = set(op_spans)
    root = [-1] * len(spans)  # the op each span belongs to
    under_sieve = [False] * len(spans)  # has a sieve span among its ancestors
    for i, (_name, _layer, _s, _e, parent) in enumerate(spans):
        if i in ops:
            root[i] = i
        elif parent >= 0:
            root[i] = root[parent]
            under_sieve[i] = under_sieve[parent] or spans[parent][1] == "sieve"

    self_ns = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    by_name: dict[str, list[int]] = {}
    sieve_ops = set()
    table_ns = 0
    for i, (name, layer, start, end, _parent) in enumerate(spans):
        if layer not in self_ns:
            continue
        self_ns[layer] += selfs[i]
        calls[layer] += 1
        by_name.setdefault(name, []).append(end - start)
        if layer == "sieve":
            sieve_ops.add(root[i])
            if not under_sieve[i] and name.split(".")[-1] in SIEVE_TABLES + ("primes_of_degree",):
                table_ns += end - start

    def total_s(name):
        return sum(by_name.get(name, ())) / 1e9

    def mean_us(name):
        d = by_name.get(name, ())
        return sum(d) / len(d) / 1e3 if d else 0.0

    def count(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    seen, hits, table_bytes = set(), 0, 0
    for arr_id, nbytes in tracer.tables:
        if arr_id in seen:
            hits += 1
        else:
            seen.add(arr_id)
            table_bytes += nbytes

    m = {}
    m["field.new_s"] = (total_s("field.field_new"), "s")
    m["field.new_calls"] = (count("field.field_new"), "count")
    for layer in ("poly", "factor"):
        m[f"{layer}.self_s"] = (self_ns[layer] / 1e9, "s")
        m[f"{layer}.calls"] = (calls[layer], "count")
    m["arith.self_s"] = (self_ns["arith"] / 1e9, "s")
    m["arith.mobius_us"] = (mean_us("arith.mobius"), "us")
    m["arith.oracle_us"] = (mean_us("arith.mobius_oracle"), "us")
    m["arith.von_mangoldt_us"] = (mean_us("arith.von_mangoldt"), "us")
    m["arith.jacobi_calls"] = (count("arith.jacobi", "arith.jacobi_oracle"), "count")
    m["sieve.calls"] = (calls["sieve"], "count")
    m["sieve.table_s"] = (table_ns / 1e9, "s")
    m["sieve.index_map_s"] = (total_s("sieve.affine_index_map"), "s")
    m["sieve.self_s"] = (self_ns["sieve"] / 1e9, "s")
    m["sieve.table_mb"] = (table_bytes / 2**20, "MiB")
    m["sieve.cache_hit_ratio"] = (hits / len(tracer.tables) if tracer.tables else 0.0, "ratio")
    m["experiments.self_s"] = (self_ns["experiments"] / 1e9, "s")
    m["experiments.loop_share"] = (
        sum(1 for i in op_spans if i not in sieve_ops) / len(op_spans) if op_spans else 0.0, "ratio")
    m["characters.self_s"] = (self_ns["characters"] / 1e9, "s")
    m["characters.calls"] = (calls["characters"], "count")
    m["decomposition.self_s"] = (self_ns["decomposition"] / 1e9, "s")
    m["decomposition.classes"] = (count("decomposition.decompose"), "count")
    m["report.self_s"] = (self_ns["report"] / 1e9, "s")
    m["report.bytes"] = (tracer.json_bytes, "bytes")
    m["cli.self_s"] = (self_ns["cli"] / 1e9, "s")
    return m


# The end-to-end metric (and workload) each per-layer metric should move.
MOVES = {
    "field.new_s": "setup_s on verify and sweep (fields built in set-up)",
    "field.new_calls": "setup_s on verify and sweep (fields built in set-up)",
    "poly.self_s": "items_per_s, op_p90_ms on verify; nothing on sweep",
    "poly.calls": "items_per_s, op_p90_ms on verify; nothing on sweep",
    "factor.self_s": "items_per_s, op_p90_ms on verify; nothing on sweep",
    "factor.calls": "items_per_s, op_p90_ms on verify; nothing on sweep",
    "arith.self_s": "items_per_s on verify",
    "arith.mobius_us": "items_per_s on verify",
    "arith.oracle_us": "items_per_s on verify",
    "arith.von_mangoldt_us": "items_per_s on verify",
    "arith.jacobi_calls": "items_per_s on verify",
    "sieve.calls": "zero on verify; items_per_s on sweep",
    "sieve.table_s": "items_per_s, op_p90_ms on sweep",
    "sieve.index_map_s": "items_per_s, op_p90_ms on sweep",
    "sieve.self_s": "items_per_s, op_p90_ms on sweep",
    "sieve.table_mb": "peak_rss_mb on sweep",
    "sieve.cache_hit_ratio": "peak_rss_mb on sweep",
    "experiments.self_s": "op_p50_ms on sweep",
    "experiments.loop_share": "items_per_s on verify (1.0 there, 0.0 on sweep)",
    "experiments.threads_speedup": "items_per_s on sweep (measured there only; 1.0 on verify)",
    "characters.self_s": "items_per_s on verify",
    "characters.calls": "items_per_s on verify",
    "decomposition.self_s": "op_p90_ms on verify",
    "decomposition.classes": "op_p90_ms on verify",
    "report.self_s": "op_p50_ms, ok_ops on sweep",
    "report.bytes": "op_p50_ms, ok_ops on sweep",
    "cli.self_s": "op_p50_ms, ok_ops on sweep",
    "trace.overhead_s": "none: traced minus untraced wall time of the same round",
}
