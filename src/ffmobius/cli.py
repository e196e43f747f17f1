"""Command line harness: one subcommand per experiment, JSON-lines output.

    ffmobius <experiment> --q P^K [--modulus c0,c1,...] [flags]
             [--d-range lo..hi] [--out json|csv] [--seed S] [--threads N]

Every report records the --seed value, which seeds nothing (no computation
is randomized), and its runtime_ms.  --threads is accepted and has no
effect.  Exit status is 0 when every emitted report has ok in {true, null},
1 when any hard inequality fails, and 2 on bad input (a usage or domain
error), which prints one "ffmobius: error: ..." line on stderr and no
report.  --canonical drops the wall-clock field so identical runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

from . import experiments
from .characters import characters_mod, jacobi_character
from .errors import ResourceLimitError
from .field import field_new
from .poly import Poly, format_poly, parse_poly
from .report import ExperimentReport, encode_value


def _arg(flag, convert=None, **kwargs):
    """One subcommand argument; convert(ctx, raw) turns the parsed string
    into the value the experiment takes, once the field is known."""
    return flag, convert, kwargs


def _poly(flag, **kwargs):
    # parse_poly is looked up per call, so wrappers installed on the module
    # attribute (perfbench/spans.py) still see every call
    return _arg(flag, lambda ctx, raw: parse_poly(ctx, raw), **kwargs)


def _finite(raw: str) -> float:
    """A float flag that takes finite values only: inf would overflow or
    print as Infinity, which is not JSON."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return value


def _parse_pairs(ctx, raw_pairs):
    pairs = []
    for item in raw_pairs:
        if ":" in item:
            a_str, m_str = item.split(":", 1)
        else:
            a_str, m_str = item, "1"
        pairs.append((parse_poly(ctx, a_str), parse_poly(ctx, m_str)))
    return pairs


def _parse_shifts(ctx, raw):
    b = [parse_poly(ctx, s) for s in raw.split(";")]
    if len(b) != 6:
        raise ValueError("--b needs six ';'-separated polynomials")
    return b


def _select_char(ctx, g, spec: str):
    if spec == "quadratic":
        return jacobi_character(g)
    chars = characters_mod(g)
    if spec == "principal":
        return next(iter(chars))
    if spec.startswith("idx:"):
        want = tuple(int(e) for e in spec[4:].split(","))
        for chi in chars:
            if chi.exponents == want:
                return chi
        raise ValueError(f"no character with exponents {want}")
    raise ValueError(f"unknown character selector {spec!r}")


@dataclass(frozen=True)
class Experiment:
    """One subcommand: its help, its arguments, and the experiments call."""

    help: str
    run: Callable  # (ctx, args) -> ExperimentReport, args already converted
    args: tuple = ()  # _arg/_poly declarations
    sweep: str | None = None  # "d" or "D": the integer degree --d-range replaces


# Each subcommand is declared once, here: its help, its arguments (with the
# conversion of those that name polynomials), the degree --d-range sweeps and
# the experiments function it calls.  build_parser and _dispatch read it.
REGISTRY = {
    "char-sum": Experiment(
        "short character sum against the binomial bound",
        lambda ctx, a: experiments.char_sum_check(a.g, _select_char(ctx, a.g, a.char), a.f, a.t),
        (_poly("--g", required=True, help="squarefree monic modulus"),
         _arg("--char", default="quadratic", help="principal | quadratic | idx:<e1,e2,...>"),
         _poly("--f", default="0", help="shift polynomial"),
         _arg("--t", type=int, required=True, help="interval exponent"))),
    "rk-bound": Experiment(
        "splitting-field rank bound r(f, g, t)",
        lambda ctx, a: experiments.rk_bound_report(a.f, a.g, a.t),
        (_poly("--f", default="0"), _poly("--g", required=True), _arg("--t", type=int, required=True))),
    "chowla": Experiment(
        "sum of products of shifted Mobius values",
        lambda ctx, a: experiments.chowla_sum(ctx, a.d, a.pair),
        (_arg("--pair", _parse_pairs, action="append", required=True, help="a or a:M (repeatable)"),),
        sweep="d"),
    "mobius-ap": Experiment(
        "Mobius sum over an arithmetic progression",
        lambda ctx, a: experiments.mobius_ap_sum(ctx, a.D, a.M, a.a),
        (_poly("--M", required=True), _poly("--a", required=True)), sweep="D"),
    "lambda-ap": Experiment(
        "von Mangoldt sum over a progression",
        lambda ctx, a: experiments.lambda_ap_sum(ctx, a.D, a.M, a.a),
        (_poly("--M", required=True), _poly("--a", required=True)), sweep="D"),
    "convolution": Experiment(
        "Lambda = -(1 * mu deg) identity check",
        lambda ctx, a: experiments.convolution_report(a.f),
        (_poly("--f", required=True),)),
    "vaughan": Experiment(
        "bilinear Mobius identity check",
        lambda ctx, a: experiments.vaughan_report(a.f, a.alpha, a.beta),
        (_poly("--f", required=True), _arg("--alpha", type=int, required=True),
         _arg("--beta", type=int, required=True))),
    "main-term": Experiment(
        "partial sum of the progression main-term series",
        lambda ctx, a: experiments.main_term_partial(ctx, a.d, a.M),
        (_poly("--M", required=True),), sweep="d"),
    "twin": Experiment(
        "Lambda(f) Lambda(f+a) pair sum",
        lambda ctx, a: experiments.twin_count(ctx, a.d, a.a, trunc=a.sing_trunc),
        (_poly("--a", default="1"), _arg("--sing-trunc", type=int)), sweep="d"),
    "mobius-lambda-corr": Experiment(
        "Lambda times Mobius product correlation",
        lambda ctx, a: experiments.mobius_lambda_corr(ctx, a.d, a.a, a.M, a.pair),
        (_poly("--a", required=True), _poly("--M", default="1"),
         _arg("--pair", _parse_pairs, action="append", default=[])), sweep="d"),
    "mobius-inv-additive": Experiment(
        "Mobius against inverse additive characters",
        lambda ctx, a: experiments.mobius_inv_additive(ctx, a.d, a.M, a.psi_h),
        (_poly("--M", required=True), _poly("--psi-h", default="1")), sweep="d"),
    "derivative-ratio": Experiment(
        "density of derivatives in a residue class",
        lambda ctx, a: experiments.derivative_ratio(ctx, a.d, a.M, a.a),
        (_poly("--M", required=True), _poly("--a", default="0")), sweep="d"),
    "square-class": Experiment(
        "count of a+gM of shape lambda A B^2",
        lambda ctx, a: experiments.square_class_count(ctx, a.d, a.M, a.A, a.a, alpha=a.alpha),
        (_poly("--M", default="1"), _poly("--A", default="1"), _poly("--a", default="0"),
         _arg("--alpha", type=_finite, default=0.25)), sweep="d"),
    "sign-change": Experiment(
        "search both Mobius signs among cube perturbations",
        lambda ctx, a: experiments.sign_change_search(a.f, a.eta),
        (_poly("--f", required=True), _arg("--eta", type=_finite, default=0.5))),
    "prime-power-ap": Experiment(
        "Mobius sum over f = 1 mod P^n",
        lambda ctx, a: experiments.mobius_prime_power_ap(ctx, a.D, a.P, a.n),
        (_poly("--P", required=True), _arg("--n", type=int, default=1)), sweep="D"),
    "kloosterman": Experiment(
        "Kloosterman sum S(x, z)",
        lambda ctx, a: experiments.kloosterman_report(a.M, a.x, a.z, a.psi_h),
        (_poly("--M", required=True), _poly("--x", default="1"), _poly("--z", default="1"),
         _poly("--psi-h", default="1"))),
    "c-sum": Experiment(
        "complete twisted-inverse sum C(g, h)",
        lambda ctx, a: experiments.c_sum_report(a.M, a.g, a.h, a.psi_h),
        (_poly("--M", required=True), _poly("--g", default="1"), _poly("--h", default="0"),
         _poly("--psi-h", default="1"))),
    "kloosterman-aggregate": Experiment(
        "aggregate Kloosterman sum over a rational map",
        lambda ctx, a: experiments.kloosterman_aggregate_report(a.M, a.b, a.z),
        (_poly("--M", required=True),
         _arg("--b", _parse_shifts, required=True, help="six shifts separated by ';'"),
         _poly("--z", default="0"))),
    "singular-series": Experiment(
        "twin-pair constant by both truncation routes",
        lambda ctx, a: experiments.singular_series_report(a.a, a.N, a.method),
        (_poly("--a", default="1"), _arg("--N", type=int, default=4),
         _arg("--method", choices=("euler-product", "coefficient-sum"), default="euler-product"))),
    "decompose": Experiment(
        "Mobius-to-character decomposition of a progression",
        lambda ctx, a: experiments.decompose_report(a.a, a.M, a.rprime, a.d, a.verify),
        (_poly("--a", required=True), _poly("--M", default="1"), _poly("--rprime", default="0"),
         _arg("--d", type=int, required=True), _arg("--verify", action="store_true"))),
}


def _add_common(sp):
    sp.add_argument("--q", help="field size as P^K or a prime")
    sp.add_argument("--modulus", help="field modulus c0,c1,...,ck (low to high)")
    sp.add_argument("--seed", type=int, default=0, help="recorded in each report; seeds nothing")
    sp.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    sp.add_argument("--out", choices=("json", "csv"), default="json")
    sp.add_argument("--canonical", action="store_true", help="omit runtime_ms")
    sp.add_argument("--d-range", dest="d_range", help="sweep the degree: lo..hi")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise the ValueError that main reports as one line and
    exit 2; subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ffmobius parser, built once per process: parse_args leaves the
    parser unchanged and gives each call its own namespace."""
    ap = _Parser(prog="ffmobius", description=__doc__)
    sub = ap.add_subparsers(dest="experiment", required=True)
    for name, exp in REGISTRY.items():
        # exact flags only: a prefix of a flag is not read as the flag
        sp = sub.add_parser(name, help=exp.help, allow_abbrev=False)
        _add_common(sp)
        if exp.sweep:
            sp.add_argument("--" + exp.sweep, type=int)
        for flag, _, kwargs in exp.args:
            sp.add_argument(flag, **kwargs)
    return ap


def _field_from_args(args):
    if not args.q:
        raise ValueError("a field is required: --q P^K")
    p_str, k_str = args.q.split("^", 1) if "^" in args.q else (args.q, "1")
    try:
        p, k = int(p_str), int(k_str)
    except ValueError:
        raise ValueError(f"--q takes P^K or a prime P, got {args.q!r}") from None
    modulus = None
    if args.modulus:
        modulus = [int(c) for c in args.modulus.split(",")]
    return field_new(p, k, modulus)


def _d_values(args, default):
    if args.d_range:
        lo, sep, hi = args.d_range.partition("..")
        if not (sep and lo.isdecimal() and hi.isdecimal() and int(lo) <= int(hi)):
            raise ValueError(f"--d-range takes lo..hi with integers lo <= hi, got {args.d_range!r}")
        return list(range(int(lo), int(hi) + 1))
    if default is None:
        raise ValueError("a degree is required (--d/--D or --d-range)")
    return [default]


def _dispatch(args, ctx) -> list[ExperimentReport]:
    """Convert the arguments, run the experiment once per degree, and stamp
    each report with the seed and its runtime."""
    exp = REGISTRY[args.experiment]
    for flag, convert, _ in exp.args:
        if convert is not None:
            dest = flag[2:].replace("-", "_")
            setattr(args, dest, convert(ctx, getattr(args, dest)))
    degrees = _d_values(args, getattr(args, exp.sweep)) if exp.sweep else [None]
    reports = []
    for d in degrees:
        if exp.sweep:
            setattr(args, exp.sweep, d)
        t0 = time.perf_counter()
        report = exp.run(ctx, args)
        report.runtime_ms = int((time.perf_counter() - t0) * 1000)
        report.seed = args.seed
        reports.append(report)
    return reports


def _csv_dump(reports) -> str:
    """One row per report: the fixed columns, then one param:<key> column per
    parameter and one detail:<key> column per details entry."""
    keys = ["experiment", "p", "k", "seed", "value", "reference", "ratio", "ok", "runtime_ms"]
    param_keys = sorted({k for r in reports for k in r.params})
    detail_keys = sorted({k for r in reports for k in r.details})
    header = keys + [f"param:{k}" for k in param_keys] + [f"detail:{k}" for k in detail_keys]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for r in reports:
        flat = {
            "experiment": r.experiment,
            "p": r.field[0],
            "k": r.field[1],
            "seed": r.seed,
            "value": _scalar(r.value),
            "reference": _scalar(r.reference),
            "ratio": r.ratio,
            "ok": r.ok,
            "runtime_ms": r.runtime_ms,
        }
        row = [flat[k] for k in keys]
        for extra, names in ((r.params, param_keys), (r.details, detail_keys)):
            row += [_scalar(extra[k]) if extra.get(k) is not None else "" for k in names]
        writer.writerow(row)
    return out.getvalue()


def _scalar(v):
    """A CSV cell: polynomials in the literal grammar, rationals as their
    float approximation (empty past the float range; the exact value is in
    the JSON output), lists joined by ';'."""
    if isinstance(v, Poly):
        return format_poly(v)
    if isinstance(v, complex):
        return f"{v.real}+{v.imag}j"
    enc = encode_value(v)
    if isinstance(enc, dict):
        return enc.get("approx", str(enc))
    if isinstance(enc, list):
        return ";".join(str(x) for x in enc)
    return enc


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        ctx = _field_from_args(args)
        reports = _dispatch(args, ctx)
    except (ValueError, ResourceLimitError) as exc:
        print(f"ffmobius: error: {exc}", file=sys.stderr)
        return 2
    if args.out == "csv":
        sys.stdout.write(_csv_dump(reports))
    else:
        for r in reports:
            print(r.to_json(canonical=args.canonical))
    return 0 if all(r.ok in (True, None) for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
