"""The two workloads: seeded inputs, one op list per round, and the exact
checks each op's result must pass.

An op is one unit of exact work with a fixed item count (polynomials,
residue classes or character values whose term it computes).  `build`
turns (workload, seed) and the workload's FIELDS into a Plan, a list of
ops.  Every op is a closure that calls the public ffmobius API and returns
(ok, value): ok is False when the op's own exact check failed, value is
the exact result that later checks compare.

Why each workload exists:
  verify    exhaustive exact-identity checks: per-polynomial routes
            (discriminant, factorization oracle, resultant Jacobi), the
            fixed-derivative decomposition, character and Weil bounds.
            The sieve does no work here, so kernel work shows here.
  sweep     README-style CLI degree sweeps over the bulk (numpy sieve)
            range, through cli.main with --canonical output captured.  The
            per-polynomial routes do almost nothing here.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

import ffmobius as ff
from ffmobius import cli, experiments
from ffmobius.characters import AdditiveCharacter, residue_ring
from ffmobius.factor import irreducibles
from ffmobius.poly import format_poly, monics

WORKLOADS = ("verify", "sweep")
DEFAULT_SEED = 0

# Fields per workload, as (p, k).  All of them are built during set-up.
FIELDS = {
    "verify": ((3, 1), (5, 1), (3, 2)),
    "sweep": ((3, 1), (3, 2)),
}


@dataclass
class Op:
    id: str
    items: int
    run: object  # () -> (ok, value)
    sum: object = None  # the Sum behind an experiment op
    cross_check: bool = False  # recompute the value per polynomial after the run


@dataclass
class Plan:
    ops: list
    # (p, k, degree) triples whose zeta identities are checked after the run
    zeta: list


def build(workload: str, seed: int, ctxs: dict, toy: bool = False, threads: int = 2) -> Plan:
    if workload == "verify":
        return _verify_plan(seed, ctxs, toy)
    if workload == "sweep":
        return _sweep_plan(seed, ctxs, toy, threads)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Seeded inputs.
# ---------------------------------------------------------------------------


def _rand_coeffs(rng, ctx, d: int, dense: bool) -> list[int]:
    """d random coefficients; dense ones are all nonzero, which fixes the
    work an index map does per coefficient."""
    lo = 1 if dense else 0
    return [rng.randrange(lo, ctx.q) for _ in range(d)]


def _rand_monic(rng, ctx, d: int, dense: bool = False):
    return ff.Poly(ctx, _rand_coeffs(rng, ctx, d, dense) + [1])


def _rand_unit(rng, ctx) -> int:
    return rng.randrange(1, ctx.q)


def _rand_squarefree(rng, ctx, d: int, dense: bool = False):
    while True:
        M = _rand_monic(rng, ctx, d, dense)
        if ff.is_squarefree(M):
            return M


def _rand_coprime(rng, ctx, M, dense: bool = False):
    """A nonzero residue of degree < deg M coprime to M."""
    while True:
        a = ff.Poly(ctx, _rand_coeffs(rng, ctx, M.degree, dense))
        if not a.is_zero and ff.gcd(a, M).degree == 0:
            return a


def _linear(ctx, c: int):
    return ff.Poly(ctx, [c, 1])


# ---------------------------------------------------------------------------
# verify: route agreement, decomposition, character and Weil bounds.
# ---------------------------------------------------------------------------


def _route_op(ctx, fs, g, tag):
    """mobius vs mobius_oracle and jacobi vs jacobi_oracle on each f, with
    von_mangoldt alongside: Lambda(f) must divide deg f, and equal it only
    when f is irreducible (mu = -1)."""

    def run():
        ok, values = True, []
        for f in fs:
            mu = ff.mobius(f)
            lam = ff.von_mangoldt(f)
            ok = ok and mu == ff.mobius_oracle(f) and (lam == 0 or f.degree % lam == 0)
            if lam == f.degree > 0:
                ok = ok and mu == -1
            if f.degree >= 1:
                ok = ok and ff.jacobi(g, f) == ff.jacobi_oracle(g, f)
            values.append((mu, lam))
        return ok, values

    return Op(f"route:{ctx.q}:{tag}", len(fs), run)


def _batches(seq, size: int):
    seq = list(seq)
    return [seq[i:i + size] for i in range(0, len(seq), size)]


def _decomp_classes(ctx, ks, ms, ds):
    """Every (a, M, r', d) class of the exhaustive decomposition sweep."""
    derivs = {d: sorted({g.derivative().coeffs for g in monics(ctx, d)}) for d in ds}
    out = []
    for m in ms:
        for M in monics(ctx, m):
            for k in ks:
                for a in monics(ctx, k):
                    if ff.gcd(a, M).degree != 0:
                        continue
                    for d in ds:
                        if k == d + m:
                            continue
                        for dc in derivs[d]:
                            out.append((a, M, ff.Poly(ctx, dc), d))
    return out


def _decomp_op(classes, tag):
    """decompose + verify_decomposition on each (a, M, r', d) class: no
    counterexample, and every class point checked."""

    def run():
        ok, values = True, []
        for a, M, rp, d in classes:
            try:
                data = ff.decompose(a, M, rp, d)
            except ff.DegenerateClassError:
                values.append("degenerate")
                continue
            res = ff.verify_decomposition(data, a, M, rp, d)
            ok = ok and data.S in (-1, 0, 1) and not res.counterexamples and res.checks == _class_size(a.ctx, d)
            values.append((data.S, res.checks))
        return ok, values

    return Op(f"decompose:{tag}", sum(_class_size(c[0].ctx, c[3]) for c in classes), run)


def _class_size(ctx, d: int) -> int:
    return ctx.q ** (-(-d // ctx.p))


def _char_sum_op(ctx, m):
    # items: every (g, nontrivial chi mod g, residue f, t <= m) the sweep checks
    items = sum((ff.euler_phi(g) - 1) * ctx.q**m * (m + 1)
                for g in monics(ctx, m) if ff.is_squarefree(g))

    def run():
        res = experiments.char_sum_exhaustive(ctx, m)
        return res.violations == 0 and res.checks == items, res.checks

    return Op(f"char-sum:{ctx.q}:m={m}", items, run)


def _weil_op(ctx, P, i):
    ring = residue_ring(P)
    units = list(ring.units)
    bound = 2 * (ctx.q**P.degree) ** 0.5

    def run():
        psi = AdditiveCharacter(ring, ff.Poly.one(ctx))
        ok = True
        for xi in units:
            x = ring.poly(xi)
            for zi in units:
                v = ff.kloosterman(P, psi, x, ring.poly(zi))
                ok = ok and abs(v) <= bound + 1e-9
        return ok, None

    return Op(f"weil:{ctx.q}:{i}", len(units) ** 2, run)


def _verify_plan(seed, ctxs, toy):
    rng = random.Random(f"verify:{seed}")
    ops = []
    # exhaustive route agreement on a fixed degree set, plus a seeded
    # sample at a higher degree
    spec = ((3, 1, 6, 10), (5, 1, 4, 8), (3, 2, 3, 6)) if not toy else ((3, 1, 2, 4), (5, 1, 1, 3), (3, 2, 1, 3))
    sample = 300 if not toy else 2
    # an op checks a batch of like inputs, so its time is an average over
    # them and the percentiles do not hinge on single polynomials.  Batches
    # of 16 in the exhaustive part put the median op among about 130 route
    # batches of like cost; batches of 32 put it at the edge of a 20 -> 30 ms
    # step, where it moved with the seed
    for p, k, dmax, dhigh in spec:
        ctx = ctxs[(p, k)]
        g = _rand_squarefree(rng, ctx, 3)
        for d in range(dmax + 1):
            for i, fs in enumerate(_batches(monics(ctx, d), 16)):
                ops.append(_route_op(ctx, fs, g, f"d={d}:{i}"))
        sampled = [_rand_monic(rng, ctx, dhigh) for _ in range(sample)]
        for i, fs in enumerate(_batches(sampled, 30)):
            ops.append(_route_op(ctx, fs, g, f"d={dhigh}:s{i}"))
    # a seeded slice of the fixed-derivative classes of the exhaustive sweep,
    # stratified by (q, deg a, deg M, d) so each seed draws the same mix, and
    # within a stratum k evenly spaced classes from a seeded offset, which
    # spreads the picks over the stratum's moduli and residues alike on
    # every seed
    gf3, gf9 = ctxs[(3, 1)], ctxs[(3, 2)]
    classes = _decomp_classes(gf3, [0, 1, 2, 3], [0, 1], [3]) + _decomp_classes(gf9, [0, 1, 2], [0, 1], [1, 2, 3])
    strata: dict[tuple, list[int]] = {}
    for i, (a, M, _rp, d) in enumerate(classes):
        strata.setdefault((a.ctx.q, a.degree, M.degree, d), []).append(i)
    want = 600 if not toy else 1
    picks = []
    for members in strata.values():
        n = len(members)
        k = max(1, round(want * n / len(classes)))
        offset = rng.random()
        picks += [members[int((offset + i) * n / k)] for i in range(k)]
    for i, batch in enumerate(_batches(sorted(picks), 10)):
        ops.append(_decomp_op([classes[j] for j in batch], i))
    for m in (1, 2) if not toy else (1,):
        ops.append(_char_sum_op(gf9, m))
    gf5 = ctxs[(5, 1)]
    for dP in (1, 2) if not toy else (1,):
        for i, P in enumerate(irreducibles(gf5, dP)):
            ops.append(_weil_op(gf5, P, f"d={dP}:{i}"))
    return Plan(ops, zeta=[])


# ---------------------------------------------------------------------------
# Experiment sums.
# ---------------------------------------------------------------------------


@dataclass
class Sum:
    """One experiment sum with its parameters, runnable through the CLI or
    through the experiments module, and recomputable per polynomial."""

    cmd: str
    ctx: object
    deg: int  # the subcommand's own degree argument (--D or --d)
    params: dict

    @property
    def items(self) -> int:
        q, P = self.ctx.q, self.params
        if self.cmd in ("mobius-ap", "lambda-ap"):
            return q ** (self.deg - P["M"].degree)
        if self.cmd == "prime-power-ap":
            return q ** (self.deg - P["n"] * P["P"].degree)
        return q**self.deg

    def argv(self, threads: int) -> list[str]:
        ctx, P = self.ctx, self.params
        out = [self.cmd, "--q", f"{ctx.p}^{ctx.k}" if ctx.k > 1 else str(ctx.p)]
        if self.cmd in ("mobius-ap", "lambda-ap"):
            out += ["--M", format_poly(P["M"]), "--a", format_poly(P["a"]), "--D", str(self.deg)]
        elif self.cmd == "prime-power-ap":
            out += ["--P", format_poly(P["P"]), "--n", str(P["n"]), "--D", str(self.deg)]
        elif self.cmd == "chowla":
            for a, M in P["pairs"]:
                out += ["--pair", f"{format_poly(a)}:{format_poly(M)}"]
            out += ["--d", str(self.deg)]
        elif self.cmd == "twin":
            out += ["--a", format_poly(P["a"]), "--d", str(self.deg), "--sing-trunc", str(P["trunc"])]
        elif self.cmd == "mobius-lambda-corr":
            out += ["--a", format_poly(P["a"]), "--M", format_poly(P["M"])]
            for a, M in P["pairs"]:
                out += ["--pair", f"{format_poly(a)}:{format_poly(M)}"]
            out += ["--d", str(self.deg)]
        return out + ["--threads", str(threads), "--canonical"]

    def call(self, threads: int):
        """The experiments function behind the subcommand, called directly."""
        ctx, P, d = self.ctx, self.params, self.deg
        if self.cmd == "mobius-ap":
            return experiments.mobius_ap_sum(ctx, d, P["M"], P["a"], threads=threads)
        if self.cmd == "lambda-ap":
            return experiments.lambda_ap_sum(ctx, d, P["M"], P["a"], threads=threads)
        if self.cmd == "prime-power-ap":
            return experiments.mobius_prime_power_ap(ctx, d, P["P"], P["n"], threads=threads)
        if self.cmd == "chowla":
            return experiments.chowla_sum(ctx, d, P["pairs"], threads=threads)
        if self.cmd == "twin":
            return experiments.twin_count(ctx, d, P["a"], trunc=P["trunc"], threads=threads)
        if self.cmd == "mobius-lambda-corr":
            return experiments.mobius_lambda_corr(ctx, d, P["a"], P["M"], P["pairs"], threads=threads)
        raise ValueError(self.cmd)

    def per_poly(self) -> int:
        """The same sum term by term: mobius_oracle for mu, von_mangoldt for
        Lambda, over every monic g of the enumerated degree."""
        ctx, P, d = self.ctx, self.params, self.deg
        mu, lam = ff.mobius_oracle, ff.von_mangoldt
        if self.cmd in ("mobius-ap", "lambda-ap"):
            r, M = P["a"] % P["M"], P["M"]
            fn = mu if self.cmd == "mobius-ap" else lam
            return sum(fn(r + g * M) for g in monics(ctx, d - M.degree))
        if self.cmd == "prime-power-ap":
            Pn, one = P["P"] ** P["n"], ff.Poly.one(ctx)
            return sum(mu(one + g * Pn) for g in monics(ctx, d - Pn.degree))
        if self.cmd == "chowla":
            total = 0
            for g in monics(ctx, d):
                term = 1
                for a, M in P["pairs"]:
                    term *= mu(a + g * M)
                total += term
            return total
        if self.cmd == "twin":
            return sum(lam(f) * lam(f + P["a"]) for f in monics(ctx, d))
        if self.cmd == "mobius-lambda-corr":
            total = 0
            for g in monics(ctx, d):
                term = lam(P["a"] + g * P["M"])
                for a, M in P["pairs"]:
                    term *= mu(a + g * M)
                total += term
            return total
        raise ValueError(self.cmd)

    def key(self) -> str:
        return " ".join(self.argv(1)[:-3])


def _cli_op(s: Sum, threads: int, cross_check: bool) -> Op:
    argv = s.argv(threads)

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        lines = buf.getvalue().strip().splitlines()
        if code != 0 or len(lines) != 1:
            return False, None
        return True, json.loads(lines[0])["value"]

    return Op(s.key(), s.items, run, s, cross_check)


# ---------------------------------------------------------------------------
# sweep: bulk-range CLI degree sweeps.
# ---------------------------------------------------------------------------


def _sweep_sums(rng, ctx, D: int) -> list[Sum]:
    """The six subcommands at output degree D (every table they read has
    degree D), README form for twin."""
    one = ff.Poly.one(ctx)
    M = _rand_squarefree(rng, ctx, 2, dense=True)
    a = _rand_coprime(rng, ctx, M, dense=True)
    c, c2 = _rand_unit(rng, ctx), _rand_unit(rng, ctx)
    return [
        Sum("mobius-ap", ctx, D, {"M": M, "a": a}),
        Sum("lambda-ap", ctx, D, {"M": M, "a": a}),
        Sum("chowla", ctx, D, {"pairs": [(one, one), (_linear(ctx, c), one)]}),
        Sum("twin", ctx, D, {"a": ff.Poly.constant(ctx, _rand_unit(rng, ctx)), "trunc": 4}),
        Sum("mobius-lambda-corr", ctx, D, {"a": ff.Poly.constant(ctx, _rand_unit(rng, ctx)), "M": one,
                                           "pairs": [(_linear(ctx, c2), one)]}),
        Sum("prime-power-ap", ctx, D, {"P": _linear(ctx, _rand_unit(rng, ctx)), "n": 2}),
    ]


SWEEP_RANGE = {(3, 1): range(2, 15), (3, 2): range(2, 8)}
SWEEP_TOY = {(3, 1): range(2, 5), (3, 2): range(2, 4)}


def _sweep_plan(seed, ctxs, toy, threads):
    rng = random.Random(f"sweep:{seed}")
    ops, zeta = [], []
    for (p, k), degrees in (SWEEP_TOY if toy else SWEEP_RANGE).items():
        ctx = ctxs[(p, k)]
        for D in degrees:
            for s in _sweep_sums(rng, ctx, D):
                ops.append(_cli_op(s, threads, cross_check=s.items <= 81))
            zeta.append((p, k, D))
    return Plan(ops, zeta)
