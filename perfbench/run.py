"""The ffmobius benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload verify|sweep --seed N
                             --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Each round runs the workload's whole op
list once in a fresh interpreter (perfbench/worker.py, PYTHONPATH=src),
one round at a time; another round starts while the run is expected to end
within half a round of --seconds, so the measured time averages --seconds,
and at least two rounds always run.  The first round also runs the exact
checks.  The program is a black box: only the public ffmobius
API is called, and nothing under src/ is changed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
one untraced reference round, one traced round (spans around every layer
entry point) and, on sweep, one untraced round at --threads 1, and
prints the per-layer metrics.  Human-readable lines come first; the last
stdout line is one JSON object with correct, attempted, failed, metrics.
The full result, with host facts, is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from spans import MOVES

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("verify", "sweep")
THREADS = 2  # --threads for every round; only the per-polynomial loop uses it
SETUP_SAMPLES = 5  # set-up time is the median of at least this many spawns
MIN_ROUNDS = 2
MIN_OPS = 110  # per run, pooled over rounds
ROUND_TIMEOUT = 150  # seconds; a round that runs longer is a failure


class BenchError(Exception):
    pass


def src_dir() -> str:
    path = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(path, "ffmobius", "__init__.py")):
        raise BenchError(f"no ffmobius package under {path}; run from the root of a checkout")
    return path


def spawn(workload, seed, *, threads=THREADS, trace=0, check=False, setup_only=False, toy=False) -> dict:
    """One round in a fresh interpreter.  setup_s runs from the spawn to the
    child's first op, less the time the child spent making its inputs;
    round_s is the child's whole life minus its checks."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--threads", str(threads), "--trace", str(trace)]
    cmd += ["--check"] * check + ["--setup-only"] * setup_only + ["--toy"] * toy
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir() + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # numpy's BLAS pool is never used here; keep the child at its own threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{workload} round exceeded {ROUND_TIMEOUT}s") from exc
    end = time.monotonic_ns()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} round failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    res["setup_s"] = (res["ready_ns"] - t0 - res["gen_ns"]) / 1e9
    res["round_s"] = (end - t0 - res.get("check_ns", 0)) / 1e9
    return res


def measure_rounds(workload, seed, seconds, toy=False) -> list[dict]:
    """Rounds while the run should end within half a round of `seconds`, so
    that a run lasts `seconds` on average whatever the round length, and at
    least MIN_ROUNDS of them with MIN_OPS ops in all, so that ten or more
    ops lie beyond p90 and a workload with long rounds (sweep) never runs
    one round on some seeds and two on others."""
    rounds = [spawn(workload, seed, check=True, toy=toy)]
    while not toy:
        spent = sum(r["round_s"] for r in rounds)
        ops = sum(len(r["ops"]) for r in rounds)
        if spent + 0.5 * spent / len(rounds) > seconds and ops >= MIN_OPS and len(rounds) >= MIN_ROUNDS:
            break
        rounds.append(spawn(workload, seed))
    return rounds


def tally(rounds) -> dict:
    """Op statuses across rounds; a value that differs from the first
    round's is a wrong value."""
    first = rounds[0]["values"]
    attempted = failed = wrong = 0
    errors: dict[str, int] = {}
    for r in rounds:
        for op_id, _items, _dt, status in r["ops"]:
            if status == "ok" and r["values"][op_id] != first[op_id]:
                status = "wrong"
            attempted += 1
            if status != "ok":
                failed += 1
                wrong += status == "wrong"
                errors[status] = errors.get(status, 0) + 1
    checks = [c for r in rounds for c in r["checks"]]
    bad_checks = [name for name, ok in checks if not ok]
    return {"attempted": attempted, "failed": failed, "wrong": wrong, "errors": errors,
            "checks": len(checks), "bad_checks": bad_checks,
            "correct": wrong == 0 and not bad_checks}


def percentile(sorted_vals, frac):
    """Nearest-rank percentile."""
    return sorted_vals[max(0, math.ceil(frac * len(sorted_vals)) - 1)]


def end_to_end(rounds, setups, t) -> tuple[dict, dict]:
    ops = [op for r in rounds for op in r["ops"]]
    lat = sorted(dt / 1e6 for _id, _items, dt, _st in ops)
    # items over op time pooled across the whole run: every round weighs in,
    # where a median of a few round rates would drop half of them
    rate = sum(items for _id, items, _dt, _st in ops) / (sum(lat) / 1e3)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (rate, "1/s"),
        "op_p50_ms": (percentile(lat, 0.50), "ms"),
        "op_p90_ms": (percentile(lat, 0.90), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in rounds) / 1024, "MiB"),
        "ok_ops": ((t["attempted"] - t["failed"]) / t["attempted"], "ratio"),
    }
    info = {
        "failed_ops": (t["failed"] / t["attempted"], "ratio"),
        "ops": (len(lat), "count"),
        "ops_beyond_p90": (sum(1 for v in lat if v > metrics["op_p90_ms"][0]), "count"),
        "rounds": (len(rounds), "count"),
        "setup_samples": (len(setups), "count"),
    }
    return metrics, info


def run_untraced(workload, seed, seconds, toy=False):
    rounds = measure_rounds(workload, seed, seconds, toy)
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < (1 if toy else SETUP_SAMPLES):
        setups.append(spawn(workload, seed, setup_only=True)["setup_s"])
    t = tally(rounds)
    metrics, info = end_to_end(rounds, setups, t)
    return t, metrics, info


def run_traced(workload, seed, toy=False):
    base = spawn(workload, seed, check=True, toy=toy)
    traced = spawn(workload, seed, trace=1, toy=toy)
    rounds = [base, traced]
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    speedup = 1.0
    if workload == "sweep":  # the only workload that passes --threads on
        single = spawn(workload, seed, threads=1, toy=toy)
        rounds.append(single)
        speedup = single["wall_ns"] / base["wall_ns"]
    metrics["experiments.threads_speedup"] = (speedup, "ratio")
    metrics["trace.overhead_s"] = ((traced["wall_ns"] - base["wall_ns"]) / 1e9, "s")
    t = tally(rounds)
    info = {"failed_ops": (t["failed"] / t["attempted"], "ratio"),
            "traced_wall_s": (traced["wall_ns"] / 1e9, "s"),
            "untraced_wall_s": (base["wall_ns"] / 1e9, "s")}
    return t, metrics, info


def host_facts(seed) -> dict:
    import numpy

    src = src_dir()
    digest = hashlib.sha256()
    pkg = os.path.join(src, "ffmobius")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ffmobius_commit": commit,
        "ffmobius_src_sha256": digest.hexdigest()[:16],
        "machine": platform.machine(),
        "seed": seed,
    }


def run(args) -> int:
    host = host_facts(args.seed)
    if args.trace:
        t, metrics, info = run_traced(args.workload, args.seed)
    else:
        t, metrics, info = run_untraced(args.workload, args.seed, args.seconds)
    for key, val in host.items():
        print(f"host {key} {val}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in {**metrics, **info}.items():
        moves = f"  (moves {MOVES[name]})" if args.trace and name in MOVES else ""
        print(f"metric {name} {value:.6g} {unit}{moves}")
    for status, n in sorted(t["errors"].items()):
        print(f"failed {n} x {status}")
    print(f"checks {t['checks'] - len(t['bad_checks'])}/{t['checks']} passed"
          + (f"; failed: {', '.join(t['bad_checks'][:10])}" if t["bad_checks"] else ""))
    result = {"correct": t["correct"], "attempted": t["attempted"], "failed": t["failed"],
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**result, "host": host, "info": {k: v[0] for k, v in info.items()},
                   "errors": t["errors"], "bad_checks": t["bad_checks"]}, fh, indent=1)
    print(json.dumps(result, separators=(",", ":")))
    return 0


def self_test() -> int:
    """Every workload at toy size, traced and untraced, with the metric
    names and units checked against BENCHMARK.json."""
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("FAIL workloads in BENCHMARK.json differ from", WORKLOADS)
        return 1
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            if trace:
                t, metrics, _ = run_traced(workload, 1, toy=True)
            else:
                t, metrics, _ = run_untraced(workload, 1, 0, toy=True)
            got = {name: unit for name, (_v, unit) in metrics.items()}
            good = got == want[trace] and t["wrong"] == 0 and not t["bad_checks"]
            ok = ok and good
            print(f"{'PASS' if good else 'FAIL'} {workload} trace={trace} "
                  f"ops={t['attempted']} failed={t['failed']} checks={t['checks']}"
                  + ("" if got == want[trace] else f" names differ: {sorted(set(got) ^ set(want[trace]))}"))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="toy-size run of every workload")
    args = ap.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
