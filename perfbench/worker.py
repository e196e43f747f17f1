"""One round of one workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  The
round builds its fields and inputs (set-up), runs every op of the plan
once in order (timed phase), optionally runs the exact checks, and prints
one JSON object on its last stdout line.  With --trace 1 the ffmobius
entry points are wrapped first and per-layer figures are added to that
object; the raw spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ffmobius as ff  # noqa: E402
from ffmobius import sieve  # noqa: E402

import spans as bench_trace  # noqa: E402
import workloads  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, "out")


def load_expected(workload: str) -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh).get(workload, {})


def zeta_checks(plan, ctxs) -> list:
    """sum of mu over monics of degree d is 1, -q, 0 (d = 0, 1, >= 2) and
    sum of Lambda is q^d."""
    out = []
    for p, k, d in plan.zeta:
        ctx = ctxs[(p, k)]
        mu = sieve.mobius_degree_sum(ctx, d)
        want = 1 if d == 0 else (-ctx.q if d == 1 else 0)
        lam = sieve.lambda_degree_sum(ctx, d)
        out.append([f"zeta:{ctx.q}:d={d}", mu == want and lam == ctx.q**d])
    return out


def run_round(args) -> dict:
    tracer = None
    if args.trace:
        tracer = bench_trace.Tracer()
        bench_trace.install(tracer)
    ctxs = {pk: ff.field_new(*pk) for pk in workloads.FIELDS[args.workload]}
    if tracer:
        tracer.enabled = False
    # making the seeded inputs is the benchmark's work, not the program's
    # set-up, so its time is reported and left out of setup_s
    gen_ns = time.monotonic_ns()
    plan = workloads.build(args.workload, args.seed, ctxs, toy=args.toy, threads=args.threads)
    ready_ns = time.monotonic_ns()
    gen_ns = ready_ns - gen_ns
    if args.setup_only:
        return {"ready_ns": ready_ns, "gen_ns": gen_ns}

    expected = None
    if args.seed == workloads.DEFAULT_SEED and not args.toy and args.workload != "verify":
        expected = load_expected(args.workload)
    ops = []
    values = {}
    op_spans = []
    if tracer:
        tracer.enabled = True
    t_phase = time.perf_counter_ns()
    for op in plan.ops:
        if tracer:
            op_spans.append(tracer.open(op.id, "bench"))
        t0 = time.perf_counter_ns()
        try:
            ok, value = op.run()
            status = "ok" if ok else "wrong"
        except Exception as exc:  # a failed op is counted, never fatal
            status, value = f"error: {type(exc).__name__}: {str(exc)[:120]}", None
        dt = time.perf_counter_ns() - t0
        if tracer:
            tracer.close(op_spans[-1])
        if status == "ok" and expected is not None and expected.get(op.id) != value:
            status = "wrong"
        values[op.id] = value
        ops.append([op.id, op.items, dt, status])
    wall_ns = time.perf_counter_ns() - t_phase
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"ready_ns": ready_ns, "gen_ns": gen_ns, "ops": ops, "values": values, "wall_ns": wall_ns,
           "rss_kb": rss_kb, "checks": []}
    if tracer:
        tracer.enabled = False
        out["layers"] = bench_trace.layer_metrics(tracer, op_spans)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        bench_trace.write_spans(tracer, path)
    if args.check:
        t_check = time.perf_counter_ns()
        checks = zeta_checks(plan, ctxs)
        status = {row[0]: row for row in ops}
        for op in plan.ops:
            if op.cross_check and values[op.id] is not None:
                agree = op.sum.per_poly() == values[op.id]
                checks.append([f"cross:{op.id}", agree])
                if not agree:
                    status[op.id][3] = "wrong"
        if expected is not None:
            checks.append(["expected-values-recorded", all(op.id in expected for op in plan.ops)])
        out["checks"] = checks
        out["check_ns"] = time.perf_counter_ns() - t_check
    return out


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true", help="run the exact checks after the round")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    ap.add_argument("--toy", action="store_true", help="toy-size inputs, for the self-test")
    return ap.parse_args(argv)


if __name__ == "__main__":
    result = run_round(parse_args())
    sys.stdout.write(json.dumps(result, separators=(",", ":")) + "\n")
