"""Theorem-level sums as reproducible, parameterized experiments.

Each operation returns an ExperimentReport: the exact value, the bound or
main term it is measured against, the ratio, and a pass/fail flag where a
hard inequality is claimed (ok=None on advisory/trend quantities whose
implied constants are not pinned down at desk scale).

Exact comparisons are carried out in integers and Fractions; only sums of
complex unit roots fall back to floats, always with the 1e-9 tolerance and
magnitudes far below where it could matter.

The mu/Lambda sums over progressions all take their values from
sieve.progression_slabs, which gathers from the numpy sieve tables within
the caps and loops over the monic polynomials above them, slab by slab;
sums that need only the total call its exact sum, sieve.progression_sum.
The sieve checks every term (M monic, a + gM monic of one degree) on both
routes, so the sums here check only their own preconditions.  The main
term sums it over the divisors D of M (mu(gD), g monic), and mu against
psi of the inverse over the unit classes r mod M (mu(r + gM)).  Their
`threads` keyword has no effect: it is accepted only because the
benchmark (perfbench/workloads.py) passes it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (
    euler_phi,
    mobius,
    singular_series,
    von_mangoldt,
)
from .characters import (
    AdditiveCharacter,
    DirichletCharacter,
    RootOfUnitySum,
    c_sum,
    digit_matrix,
    kloosterman,
    local_logs,
    rational_kloosterman_aggregate,
    residue_ring,
)
from .config import BULK_SIZE_CAP, FACTOR_CACHE_SIZE
from .decomposition import decompose, verify_decomposition
from .errors import DegenerateClassError, ResourceLimitError
from .extension import embed_field, lift_poly
from .factor import distinct_degree_split, divisors, factor, is_irreducible
from .field import FieldCtx
from .poly import (
    Poly,
    format_poly,
    gcd,
    is_squarefree,
    monics,
    poly_from_index,
    poly_index,
    polys_below,
)
from .report import ExperimentReport
from . import sieve

__all__ = [
    "char_sum_check",
    "CharSumSweep",
    "char_sum_exhaustive",
    "rk_bound",
    "rk_bound_report",
    "chowla_sum",
    "mobius_ap_sum",
    "lambda_ap_sum",
    "convolution_check",
    "convolution_report",
    "vaughan_check",
    "vaughan_report",
    "main_term_partial",
    "twin_count",
    "singular_series_report",
    "mobius_lambda_corr",
    "mobius_inv_additive",
    "derivative_ratio",
    "square_class_count",
    "sign_change_search",
    "mobius_prime_power_ap",
    "kloosterman_report",
    "c_sum_report",
    "kloosterman_aggregate_report",
    "decompose_report",
]


# ---------------------------------------------------------------------------
# Short character sums and their rank bound.
# ---------------------------------------------------------------------------


def _char_sum_bound(q: int, m: int, t: int) -> float:
    return (math.sqrt(q) + 1) * math.comb(m - 1, t) * q ** (t / 2)


def char_sum_check(g: Poly, chi: DirichletCharacter, f: Poly, t: int) -> ExperimentReport:
    """|sum over deg h < t of chi(f+h)| against (sqrt(q)+1) C(m-1,t) q^(t/2)."""
    ctx = g.ctx
    m = g.degree
    if chi.is_principal:
        raise ValueError("character must be nontrivial")
    if chi.modulus != g:
        raise ValueError("character modulus must be g")
    if not 0 <= t <= m:
        raise ValueError("need 0 <= t <= deg g")
    exact = None
    if chi.is_real:
        exact = sum(chi(f + h) for h in polys_below(ctx, t))
        value = abs(exact)
    else:
        value = abs(sum(complex(chi(f + h)) for h in polys_below(ctx, t)))
    reference = _char_sum_bound(ctx.q, m, t)
    ratio = value / reference if reference > 0 else (0.0 if value <= 1e-9 else math.inf)
    return ExperimentReport(
        experiment="char-sum",
        field=(ctx.p, ctx.k),
        params={"g": g, "char": chi.label(), "f": f, "t": t},
        value=value,
        value_exact=exact,
        reference=reference,
        ratio=ratio,
        ok=value <= reference + 1e-9,
    )


@dataclass
class CharSumSweep:
    checks: int
    violations: int
    max_ratio: float


def _interval_sums(g: Poly):
    """Yield S_t for t = 0..deg g: S_t[i, x] = sum over deg h < t of
    chi_i(f + h), where chi_i runs over the nontrivial characters mod the
    squarefree g in characters_mod order and f is the residue of index
    x * q^t.

    S_t(f) only depends on the digits of f at positions >= t, and
    S_{t+1}(f) = sum_c S_t(f + c T^t) sums over digit t, the fastest axis in
    base-q index order: each level adds up groups of q adjacent entries, and
    the array shrinks by q.  Reduction mod each prime P is F_p-linear, so the
    residues x mod P are one product of the base-p digit rows of x.
    """
    ctx = g.ctx
    p, q, m = ctx.p, ctx.q, g.degree
    digits = digit_matrix(ctx, m)
    locs = [local_logs(P) for P, _ in factor(g).factors]
    lcm = math.lcm(*(loc.order for loc in locs))
    # all nontrivial exponent vectors, lexicographic
    exps = np.array(
        [e for e in itertools.product(*(range(loc.order) for loc in locs))][1:],
        dtype=np.int64,
    )
    if len(exps) == 0:
        return
    n = len(exps)
    dlogs = np.empty((len(locs), q**m), dtype=np.int64)
    for row, loc in zip(dlogs, locs):
        # the image of e_i, the residue of index p^i, mod P: its index, then
        # its digits in row i of the matrix of x -> x mod P
        place = p ** np.arange(ctx.k * loc.degree)
        basis = [poly_index(poly_from_index(ctx, p**i, m) % loc.prime) for i in range(ctx.k * m)]
        residue = digits @ (np.array(basis)[:, None] // place % p) % p @ place
        row[:] = np.array(loc.dlog)[residue]  # dlog[0] = -1 marks the zero divisors
    weights = np.array([lcm // loc.order for loc in locs], dtype=np.int64)
    phases = (exps * weights) @ np.where(dlogs < 0, 0, dlogs)
    phases %= lcm
    s = np.exp(2j * np.pi * np.arange(lcm) / lcm)[phases]
    # reduced in place and dropped before the first yield, so the caller's
    # np.abs(s) reuses this memory: one g's arrays then stay below glibc's
    # heap trim threshold, and the GF(9), m = 3 sweep takes about 4k page
    # faults instead of 560k
    del phases
    s[:, (dlogs < 0).any(axis=0)] = 0.0
    yield s
    for _ in range(m):
        s = s.reshape(n, -1, q).sum(axis=2)
        yield s


def char_sum_exhaustive(ctx: FieldCtx, m: int) -> CharSumSweep:
    """Sweep every squarefree monic g of degree m, every nontrivial character
    mod g, every residue f mod g, and every t <= m.

    The short sum only depends on f mod g, so running over residues covers
    all longer f as well; _interval_sums gives every S_t of one g, and the
    sweep keeps their maxima against the bound.
    """
    q = ctx.q
    size = q**m
    # the values of one g fill (phi(g) - 1) <= q^m - 2 rows of q^m entries
    if (size - 2) * size > BULK_SIZE_CAP:
        raise ResourceLimitError("character sweep too large")
    checks = violations = 0
    max_ratio = 0.0
    bounds = [_char_sum_bound(q, m, t) for t in range(m + 1)]
    for g in monics(ctx, m):
        if not is_squarefree(g):
            continue
        for bound, s in zip(bounds, _interval_sums(g)):
            amax = float(np.abs(s).max())
            checks += len(s) * size
            if bound > 0:
                max_ratio = max(max_ratio, amax / bound)
                if amax > bound + 1e-9:
                    violations += 1
            elif amax > 1e-9:
                violations += 1
    return CharSumSweep(checks=checks, violations=violations, max_ratio=max_ratio)


def rk_bound(f: Poly, g: Poly, t: int) -> tuple[int, bool]:
    """r(f, g, t): over the splitting field of g, sum C(deg gcd(f+h, g)-1, t)
    for deg h < t with gcd degree above t; checked against C(m-1, t)."""
    ctx = g.ctx
    m = g.degree
    if not (g.is_monic and m >= 1 and is_squarefree(g)):
        raise ValueError("g must be squarefree monic nonconstant")
    if not 0 <= t <= m:
        raise ValueError("need 0 <= t <= deg g")
    L = math.lcm(*(d for _, d, _ in distinct_degree_split(g)))
    if (ctx.q**L) ** max(t, 1) > BULK_SIZE_CAP or ctx.q**L > BULK_SIZE_CAP:
        raise ResourceLimitError("splitting field enumeration above cap")
    big, emb = embed_field(ctx, L)
    fb = lift_poly(f, big, emb)
    gb = lift_poly(g, big, emb)
    r = 0
    for h in polys_below(big, t):
        d = gcd(fb + h, gb).degree
        if d > t:
            r += math.comb(d - 1, t)
    return r, r <= math.comb(m - 1, t)


def rk_bound_report(f: Poly, g: Poly, t: int) -> ExperimentReport:
    r, ok = rk_bound(f, g, t)
    ref = math.comb(g.degree - 1, t)
    return ExperimentReport(
        experiment="rk-bound",
        field=(g.ctx.p, g.ctx.k),
        params={"f": f, "g": g, "t": t},
        value=r,
        value_exact=r,
        reference=ref,
        ratio=r / ref if ref else (0.0 if r == 0 else math.inf),
        ok=ok,
    )


# ---------------------------------------------------------------------------
# Correlation sums of mu and Lambda.
# ---------------------------------------------------------------------------


def _check_pairs_distinct(pairs) -> None:
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            ai, Mi = pairs[i]
            aj, Mj = pairs[j]
            if ai * Mj == aj * Mi:
                raise ValueError("shift pairs must be distinct as fractions a/M")


def _progression_report(experiment: str, ctx: FieldCtx, e: int, terms, params: dict) -> ExperimentReport:
    """The exact progression_sum of terms over the monic g of degree e,
    against the trivial scale q^e; advisory."""
    value = sieve.progression_sum(ctx, e, terms)
    reference = ctx.q**e
    return ExperimentReport(
        experiment=experiment,
        field=(ctx.p, ctx.k),
        params=params,
        value=value,
        value_exact=value,
        reference=reference,
        ratio=abs(value) / reference,
        ok=None,
    )


def chowla_sum(ctx: FieldCtx, d: int, pairs, threads: int = 1) -> ExperimentReport:
    """Exact sum over monic g of degree d of prod_i mu(a_i + g M_i)."""
    if not pairs:
        raise ValueError("need at least one (a, M) pair")
    if not all(a.is_monic and M.is_monic for a, M in pairs):
        raise ValueError("shift pairs must be monic")
    _check_pairs_distinct(pairs)
    return _progression_report(
        "chowla", ctx, d, [("mu", a, M) for a, M in pairs],
        {"d": d, "pairs": [f"{format_poly(a)}:{format_poly(M)}" for a, M in pairs]})


def mobius_ap_sum(ctx: FieldCtx, D: int, M: Poly, a: Poly, threads: int = 1) -> ExperimentReport:
    """Exact sum of mu over monic f of degree D with f = a mod M, against
    the trivial scale X / |M| = q^(D - deg M)."""
    if gcd(a, M).degree != 0:
        raise ValueError("a must be coprime to M")
    m = M.degree
    if m < 1 or D < m:
        raise ValueError("need deg M >= 1 and D >= deg M")
    return _progression_report("mobius-ap", ctx, D - m, [("mu", a % M, M)], {"D": D, "M": M, "a": a})


def lambda_ap_sum(ctx: FieldCtx, D: int, M: Poly, a: Poly, threads: int = 1) -> ExperimentReport:
    """Exact sum of Lambda over the progression, reported against q^D/phi(M)."""
    if gcd(a, M).degree != 0:
        raise ValueError("a must be coprime to M")
    if not is_squarefree(M):
        raise ValueError("Lambda progression sums expect squarefree M")
    m = M.degree
    if m < 1 or D < m:
        raise ValueError("need deg M >= 1 and D >= deg M")
    value = sieve.progression_sum(ctx, D - m, [("lambda", a % M, M)])
    phi = euler_phi(M)
    main = Fraction(ctx.q**D, phi)
    err = value - main
    return ExperimentReport(
        experiment="lambda-ap",
        field=(ctx.p, ctx.k),
        params={"D": D, "M": M, "a": a},
        value=value,
        value_exact=value,
        reference=main,
        ratio=float(abs(err) * phi / ctx.q**D),
        ok=None,
        details={"error": err},
    )


def mobius_lambda_corr(ctx: FieldCtx, d: int, a: Poly, M: Poly, pairs, threads: int = 1) -> ExperimentReport:
    """Exact sum over monic g of degree d of Lambda(a+gM) prod mu(a_i+g M_i)."""
    if gcd(a, M).degree != 0:
        raise ValueError("a must be coprime to M")
    if any(ai == a and Mi == M for ai, Mi in pairs):
        raise ValueError("(a, M) must differ from every correlation pair")
    if pairs:
        _check_pairs_distinct(pairs)
    return _progression_report(
        "mobius-lambda-corr", ctx, d, [("lambda", a, M)] + [("mu", ai, Mi) for ai, Mi in pairs],
        {"d": d, "a": a, "M": M, "pairs": [f"{format_poly(x)}:{format_poly(y)}" for x, y in pairs]})


def mobius_prime_power_ap(ctx: FieldCtx, D: int, P: Poly, n: int, threads: int = 1) -> ExperimentReport:
    """Exact sum of mu over monic f of degree D with f = 1 mod P^n."""
    if not is_irreducible(P):
        raise ValueError("P must be irreducible")
    if n < 1:
        raise ValueError("n must be >= 1")
    dP = P.degree
    if n * dP > D:
        raise ValueError("need n * deg P <= D")
    return _progression_report("prime-power-ap", ctx, D - n * dP, [("mu", Poly.one(ctx), P**n)],
                               {"D": D, "P": P, "n": n})


# ---------------------------------------------------------------------------
# Convolution identities and the main-term series.
# ---------------------------------------------------------------------------


def convolution_check(f: Poly) -> bool:
    """Lambda(f) = -sum over monic divisors A (deg >= 1) of deg(A) mu(A)."""
    if f.is_zero or not f.is_monic:
        raise ValueError("f must be monic nonzero")
    rhs = 0
    for A in divisors(f):
        if A.degree >= 1:
            rhs -= A.degree * mobius(A)
    return von_mangoldt(f) == rhs


def vaughan_check(f: Poly, alpha: int, beta: int) -> bool:
    """Bilinear splitting of mu: for max(alpha, beta) < deg f,
    mu(f) = -sum_{deg g <= alpha, deg h <= beta, gh | f} mu(g) mu(h)
            +sum_{deg g > alpha, deg h > beta, gh | f} mu(g) mu(h)."""
    if f.is_zero or not f.is_monic:
        raise ValueError("f must be monic nonzero")
    if alpha < 0 or beta < 0 or max(alpha, beta) >= f.degree:
        raise ValueError("need 0 <= alpha, beta and max(alpha, beta) < deg f")
    hist = _pair_histogram(f.ctx, f.coeffs)
    small = sum(sum(row[:beta + 1]) for row in hist[:alpha + 1])
    large = sum(sum(row[beta + 1:]) for row in hist[alpha + 1:])
    return mobius(f) == -small + large


@functools.lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _pair_histogram(ctx, coeffs) -> tuple[tuple[int, ...], ...]:
    """H[deg g][deg h] = sum of mu(g) mu(h) over every pair gh | f, each pair
    enumerated with mobius on both: one pass per f serves every (alpha, beta)."""
    f = Poly._raw(ctx, coeffs)
    n = f.degree
    hist = [[0] * (n + 1) for _ in range(n + 1)]
    for D in divisors(f):
        for g in divisors(D):
            h = D // g
            hist[g.degree][h.degree] += mobius(g) * mobius(h)
    return tuple(tuple(row) for row in hist)


def convolution_report(f: Poly) -> ExperimentReport:
    ok = convolution_check(f)
    return ExperimentReport("convolution", (f.ctx.p, f.ctx.k), {"f": f}, value=ok, ok=ok)


def vaughan_report(f: Poly, alpha: int, beta: int) -> ExperimentReport:
    ok = vaughan_check(f, alpha, beta)
    return ExperimentReport("vaughan", (f.ctx.p, f.ctx.k),
                            {"f": f, "alpha": alpha, "beta": beta}, value=ok, ok=ok)


def main_term_partial(ctx: FieldCtx, d: int, M: Poly) -> ExperimentReport:
    """Partial series sum_{k<=d} k q^-k sum_{A monic deg k, (A,M)=1} mu(A),
    reported against its limit -q^m/phi(M)."""
    if not is_squarefree(M) or not M.is_monic:
        raise ValueError("M must be squarefree monic")
    if d < 0:
        raise ValueError("degree must be >= 0")
    q = ctx.q
    zero = Poly.zero(ctx)
    total = Fraction(0)
    for k in range(1, d + 1):
        # [(A, M) = 1] = sum of mu(D) over D | (A, M): A = gD, g monic of degree k - deg D
        inner = sum(mobius(D) * sieve.progression_sum(ctx, k - D.degree, [("mu", zero, D)])
                    for D in divisors(M) if D.degree <= k)
        total += Fraction(k * inner, q**k)
    reference = -Fraction(q**M.degree, euler_phi(M)) if M.degree >= 1 else -Fraction(1)
    diff = abs(total - reference)
    return ExperimentReport(
        experiment="main-term",
        field=(ctx.p, ctx.k),
        params={"d": d, "M": M},
        value=total,
        value_exact=total,
        reference=reference,
        ratio=float(diff),
        ok=None,
        details={"difference": diff},
    )


# ---------------------------------------------------------------------------
# Twin pairs.
# ---------------------------------------------------------------------------


def twin_count(ctx: FieldCtx, d: int, a: Poly, trunc: int | None = None, threads: int = 1) -> ExperimentReport:
    """Exact sum of Lambda(f) Lambda(f+a) over monic f of degree d, plus the
    raw count of irreducible pairs, against the singular series times q^d."""
    if a.is_zero or not a.degree < d:
        raise ValueError("need 0 <= deg a < d and a nonzero")
    N = trunc if trunc is not None else d
    one = Poly.one(ctx)
    value = prime_pairs = 0
    for vals in sieve.progression_slabs(ctx, d, [("lambda", Poly.zero(ctx), one), ("lambda", a, one)]):
        value += int(vals.sum())
        prime_pairs += int(np.count_nonzero(vals == d * d))  # Lambda(f) = d only for prime f
    series = singular_series(a, N).value
    reference = series * ctx.q**d
    # value / reference as one correctly rounded int division, no Fraction gcd
    ratio = value * series.denominator / (series.numerator * ctx.q**d) if series else math.inf
    return ExperimentReport(
        experiment="twin",
        field=(ctx.p, ctx.k),
        params={"d": d, "a": a, "sing_trunc": N},
        value=value,
        value_exact=value,
        reference=reference,
        ratio=ratio,
        ok=None,
        details={"prime_pairs": prime_pairs},
    )


def singular_series_report(a: Poly, N: int, method: str = "euler-product") -> ExperimentReport:
    """The twin-pair constant for shift a, truncated at N by either route."""
    appr = singular_series(a, N, method)
    return ExperimentReport("singular-series", (a.ctx.p, a.ctx.k),
                            {"a": a, "N": N, "method": method}, value=appr.value)


# ---------------------------------------------------------------------------
# Mobius against inverse additive characters.
# ---------------------------------------------------------------------------


def mobius_inv_additive(ctx: FieldCtx, d: int, M: Poly, h: Poly | None = None) -> ExperimentReport:
    """sum over monic g of degree d coprime to M of mu(g) psi_h(inverse of g),
    against the subsquare-root reference q^(3m/16 + 25d/32)."""
    if not is_squarefree(M) or not M.is_monic or M.degree < 1:
        raise ValueError("M must be squarefree monic nonconstant")
    if d < 0:
        raise ValueError("degree must be >= 0")
    ring = residue_ring(M)
    psi = AdditiveCharacter(ring, h if h is not None else Poly.one(ctx))
    acc = RootOfUnitySum(ctx.p)
    m = M.degree
    for r in ring.units:
        if d < m and r // ctx.q**d != 1:  # R itself is not monic of degree d
            continue
        R = poly_from_index(ctx, r, m)
        # mu summed over the monic g of degree d in the class R: R + BM with B
        # monic of degree d - m; at d <= m the class holds one g, R + M or R
        mu_sum = (sieve.progression_sum(ctx, d - m, [("mu", R, M)]) if d > m
                  else mobius(R + M if d == m else R))
        acc.add(psi.exponent_index(ring.inv_index[r]), mu_sum)
    value = acc.to_complex()
    reference = ctx.q ** (3 * m / 16 + 25 * d / 32)
    return ExperimentReport(
        experiment="mobius-inv-additive",
        field=(ctx.p, ctx.k),
        params={"d": d, "M": M, "h": psi.h},
        value=value,
        reference=reference,
        ratio=abs(value) / reference,
        ok=None,
        details={"trivial_bound": ctx.q**d},
    )


# ---------------------------------------------------------------------------
# Derivative classes and square classes.
# ---------------------------------------------------------------------------


def derivative_ratio(ctx: FieldCtx, d: int, M: Poly, a: Poly) -> ExperimentReport:
    """Fraction of attained derivatives g' (g monic of degree d) lying in the
    class a mod M, against the exact bound q^-min(m, floor((d-1)/p))."""
    if not is_squarefree(M) or not M.is_monic:
        raise ValueError("M must be squarefree monic")
    if d < 1:
        raise ValueError("degree must be >= 1")
    p = ctx.p
    # g' is supported on positions j-1 for p not dividing j <= d: the free
    # coefficients j g_j, j < d, run over all of GF(q) as g_j does (j is a
    # unit mod p), and position d-1 holds the fixed leading term d mod p.
    free = [j - 1 for j in range(1, d) if j % p]
    coeffs = [0] * d
    coeffs[d - 1] = d % p
    denominator = ctx.q ** len(free)
    numerator = 0
    for values in itertools.product(range(ctx.q), repeat=len(free)):
        for i, c in zip(free, values):
            coeffs[i] = c
        if ((Poly(ctx, coeffs) - a) % M).is_zero:
            numerator += 1
    value = Fraction(numerator, denominator)
    reference = Fraction(1, ctx.q ** min(M.degree, (d - 1) // p))
    return ExperimentReport(
        experiment="derivative-ratio",
        field=(ctx.p, ctx.k),
        params={"d": d, "M": M, "a": a},
        value=value,
        value_exact=value,
        reference=reference,
        ratio=float(value / reference) if reference else math.inf,
        ok=value <= reference,
        details={"numerator": numerator, "denominator": denominator},
    )


def square_class_count(ctx: FieldCtx, d: int, M: Poly, A: Poly, a: Poly, alpha: float = 0.25) -> ExperimentReport:
    """Count g with deg g < d and a + gM = lambda A B^2 (lambda a unit),
    reported against q^((1/2+alpha)d); advisory, no pinned constant."""
    if not (M.is_monic and A.is_monic):
        raise ValueError("M and A must be monic")
    count = 0
    for g in polys_below(ctx, d):
        f = a + g * M
        if f.is_zero:
            count += 1  # lambda * A * 0^2
            continue
        h, r = divmod(f, A)
        if not r.is_zero:
            continue
        if all(mult % 2 == 0 for _, _, mult in distinct_degree_split(h.monic())):
            count += 1
    reference = ctx.q ** ((0.5 + alpha) * d)
    return ExperimentReport(
        experiment="square-class",
        field=(ctx.p, ctx.k),
        params={"d": d, "M": M, "A": A, "a": a, "alpha": alpha},
        value=count,
        value_exact=count,
        reference=reference,
        ratio=count / reference,
        ok=None,
    )


# ---------------------------------------------------------------------------
# Sign changes in short intervals (characteristic 3).
# ---------------------------------------------------------------------------


def sign_change_search(f: Poly, eta: float) -> ExperimentReport:
    """Search for both Mobius signs among cube perturbations of f.

    Normalizes the coefficients of f below degree c (c the largest even
    non-multiple of 3 under eta*deg f): the T^c coefficient becomes 1 and
    every non-multiple-of-3 exponent below c is zeroed.  Probes f + b^3 for
    monic b of degree floor(c/3) first, then larger b while the total
    perturbation stays within deg <= eta * deg f.
    """
    ctx = f.ctx
    if ctx.p != 3:
        raise ValueError("sign-change search requires characteristic 3")
    if not f.is_monic:
        raise ValueError("f must be monic")
    d = f.degree
    budget = eta * d
    if math.floor(budget) < 5:
        raise ValueError("need floor(eta * deg f) >= 5")
    warning = None
    if not 3 / 7 < eta < 1:
        warning = "eta outside (3/7, 1); theorem range not satisfied, running anyway"
    c = None
    for cand in range(int(math.ceil(budget)) - 1, 1, -1):
        if cand < budget and cand % 2 == 0 and cand % 3 != 0:
            c = cand
            break
    if c is None:
        raise ValueError("no admissible normalization exponent below eta * deg f")
    coeffs = list(f.coeffs)
    while len(coeffs) <= c:
        coeffs.append(0)
    coeffs[c] = 1
    for jj in range(c):
        if jj % 3 != 0:
            coeffs[jj] = 0
    base = Poly(ctx, coeffs)
    plus = minus = None
    probes = 0
    max_b_deg = int(budget // 3)
    for bdeg in range(c // 3, max_b_deg + 1):
        for b in monics(ctx, bdeg):
            probes += 1
            cand = base + b**3
            mu = mobius(cand)
            if mu == 1 and plus is None:
                plus = cand - f
            elif mu == -1 and minus is None:
                minus = cand - f
            if plus is not None and minus is not None:
                break
        if plus is not None and minus is not None:
            break
    ok = plus is not None and minus is not None
    details = {
        "c": c,
        "probes": probes,
        "witness_plus": plus,
        "witness_minus": minus,
        "budget_degree": int(budget),
    }
    if warning:
        details["warning"] = warning
    return ExperimentReport(
        experiment="sign-change",
        field=(ctx.p, ctx.k),
        params={"f": f, "eta": eta},
        value=probes,
        reference=None,
        ratio=None,
        ok=ok,
        details=details,
    )


# ---------------------------------------------------------------------------
# Report wrappers for the exponential sums.
# ---------------------------------------------------------------------------


def kloosterman_report(M: Poly, x: Poly, z: Poly, h: Poly | None = None) -> ExperimentReport:
    ctx = M.ctx
    ring = residue_ring(M)
    psi = AdditiveCharacter(ring, h if h is not None else Poly.one(ctx))
    value = kloosterman(M, psi, x, z)
    ok = None
    reference = None
    if is_irreducible(ring.M) and not psi.is_trivial:  # the Weil bound's domain
        xi, zi = ring.index(x), ring.index(z)
        if xi and zi:
            reference = 2 * math.sqrt(ring.size)
            ok = abs(value) <= reference + 1e-9
    return ExperimentReport(
        experiment="kloosterman",
        field=(ctx.p, ctx.k),
        params={"M": M, "x": x, "z": z, "h": psi.h},
        value=value,
        reference=reference,
        ratio=abs(value) / reference if reference else None,
        ok=ok,
    )


def c_sum_report(M: Poly, g: Poly, h: Poly, twist: Poly | None = None) -> ExperimentReport:
    ctx = M.ctx
    ring = residue_ring(M)
    psi = AdditiveCharacter(ring, twist if twist is not None else Poly.one(ctx))
    value, bound, ok = c_sum(M, psi, g, h)
    return ExperimentReport(
        experiment="c-sum",
        field=(ctx.p, ctx.k),
        params={"M": M, "g": g, "h": h, "psi_h": psi.h},
        value=value,
        reference=bound,
        ratio=abs(value) / bound if bound else None,
        ok=ok,
    )


def kloosterman_aggregate_report(M: Poly, b, z: Poly) -> ExperimentReport:
    ctx = M.ctx
    value, bound, ok = rational_kloosterman_aggregate(M, tuple(b), z)
    return ExperimentReport(
        experiment="kloosterman-aggregate",
        field=(ctx.p, ctx.k),
        params={"M": M, "b": list(b), "z": z},
        value=value,
        reference=bound,
        ratio=abs(value) / bound if bound else None,
        ok=ok,
    )


# ---------------------------------------------------------------------------
# The Mobius-to-character decomposition of a progression.
# ---------------------------------------------------------------------------


def decompose_report(a: Poly, M: Poly, rprime: Poly, d: int, verify: bool = False) -> ExperimentReport:
    """decompose(a, M, rprime, d), and with verify the class-wide check."""
    ctx = a.ctx
    params = {"a": a, "M": M, "rprime": rprime, "d": d}
    try:
        data = decompose(a, M, rprime, d)
    except DegenerateClassError:
        return ExperimentReport("decompose", (ctx.p, ctx.k), params, value=None, ok=True,
                                details={"degenerate_class": True, "all_mu_zero": True})
    details = {"D": data.D, "E": data.E, "E1": data.E1, "w": data.w, "chi": data.chi.label()}
    ok = None
    if verify:
        res = verify_decomposition(data, a, M, rprime, d)
        details.update(
            class_size=res.class_size,
            checks=res.checks,
            counterexamples=len(res.counterexamples),
            all_zero=res.all_zero,
        )
        ok = res.ok
    return ExperimentReport("decompose", (ctx.p, ctx.k), params,
                            value=data.S, ok=ok, details=details)
