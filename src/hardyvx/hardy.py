"""The Hardy averaging operator and Rayleigh-quotient machinery.

Two independent evaluation routes are provided for (1/x) * integral_0^x f:
the cumulative-integral route and the scaled route based on the identity
Hf(x)/x = integral_0^1 f(t x) dt, used to cross-validate quadrature.

The C1 sweep takes the quotient of a power member x^-beta in closed form,
1/(1 - beta) for every p, since Hf(x)/x = f(x)/(1 - beta).  It builds no
other average as a sampled function: ``lpnorm.quotient_norms`` prepares
every other member's numerator from running totals and solves it in the
stream that solves the denominators, and ``_quotient`` holds the one
order in which a member in L^p(.) is skipped for want of a quotient.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .exponent import ExponentFunction, ExponentLike, on_grid
from .grids import (
    DivergentHeadError,
    FunctionLike,
    LogGrid,
    SampledFunction,
    _cell_integrals,
    as_segments,
    cumulative_integral,
    head_fit,
)
from .lpnorm import (
    NORM_TOL,
    NormValue,
    UnboundedNormError,
    luxemburg_norm,  # bench/selftest.py reads hardy.luxemburg_norm
    modular,
    quotient_norms,
)

__all__ = [
    "hardy_average",
    "hardy_average_scaled",
    "rayleigh_quotient",
    "operator_norm_lower_bound",
    "necessity_test_function",
    "QuotientResult",
    "OperatorNormResult",
    "FamilyMember",
    "power_family",
    "dyadic_indicator_family",
    "necessity_family",
    "necessity_levels",
    "ResolutionError",
]

logger = logging.getLogger(__name__)

# nodes of each t-grid of ``hardy_average_scaled``
T_NODES = 257
# spacing of the exponents beta of ``power_family``
BETA_STEP = 0.05
# deepest level j of the necessity family's blocks (2^-j-1, 2^-j)
NECESSITY_DEPTH = 33


class ResolutionError(ValueError):
    """Too few grid points to resolve a test-function support."""


# ---------------------------------------------------------------------------
# the operator

def hardy_average(f: FunctionLike) -> SampledFunction:
    """x -> (1/x) * integral_0^x f, sampled on f's grid:
    ``cumulative_integral`` divided by x, raising its DivergentHeadError."""
    H = cumulative_integral(f)
    return SampledFunction(H.grid, H.values / H.grid.points)


def hardy_average_scaled(f: FunctionLike) -> SampledFunction:
    """Same operator via Hf(x)/x = integral_0^1 f(t x) dt.

    Each segment's support is mapped into t exactly; within a segment the
    integrand is smooth and a per-segment geometric t-grid of
    ``T_NODES`` nodes is used.
    """
    segs = as_segments(f)
    grid = segs[0].grid
    pts = grid.points
    out = np.zeros(grid.n)
    for seg in segs:
        lo, hi = seg.effective_support()
        v0, q = head_fit(seg.values[0], seg.values[1], grid)
        for i, x in enumerate(pts):
            t_lo = max(lo, 0.0) / x
            t_hi = min(hi, x) / x
            if t_lo >= min(t_hi, 1.0):
                continue
            t_hi = min(t_hi, 1.0)
            acc = 0.0
            t_cut = grid.x_min / x
            if t_lo < t_cut:
                # below x_min use the fitted power closed form
                if q <= -1.0:
                    raise DivergentHeadError(
                        "head of f is not integrable at 0")
                c = v0 / grid.x_min ** q
                t_head = min(t_cut, t_hi)
                acc += c * x ** q * t_head ** (q + 1.0) / (q + 1.0)
                t_lo = t_head
            if t_lo < t_hi:
                # clamp strictly inside the support so boundary quadrature
                # nodes don't round out and read zero
                x_lo = max(lo, grid.x_min) * (1.0 + 1e-12)
                x_hi = hi * (1.0 - 1e-12)
                u = np.linspace(math.log(t_lo), math.log(t_hi), T_NODES)
                vs = seg.evaluate(np.clip(np.exp(u) * x, x_lo, x_hi))
                acc += float(np.sum(_cell_integrals(u, vs, u[:-1], u[1:])))
            out[i] += acc
    return SampledFunction(grid, out)


# ---------------------------------------------------------------------------
# quotients

@dataclass(frozen=True)
class QuotientResult:
    value: float
    numerator: NormValue
    denominator: NormValue

    @property
    def bounds(self) -> tuple[float, float]:
        """Interval bound propagated from both certified norm brackets."""
        nlo, nhi = self.numerator.bracket
        dlo, dhi = self.denominator.bracket
        return (nlo / dhi if dhi > 0 else 0.0,
                nhi / dlo if dlo > 0 else math.inf)


def _quotient(den, num):
    """The QuotientResult of a denominator ||f|| and numerator ||x^-1 Hf||
    from ``quotient_norms``, or the exception that rules it out, in this
    order: an unbounded denominator (UnboundedNormError), a zero one
    (ZeroDivisionError), a divergent Hardy head (DivergentHeadError), an
    unbounded numerator (UnboundedNormError)."""
    if isinstance(den, UnboundedNormError):
        return den
    if den.value == 0.0:
        return ZeroDivisionError("Rayleigh quotient of the zero function")
    if isinstance(num, Exception):
        return num
    return QuotientResult(num.value / den.value, num, den)


def rayleigh_quotient(f: FunctionLike, p: ExponentLike,
                      tol: float = NORM_TOL) -> QuotientResult:
    """||x^-1 Hf|| / ||f|| in the Luxemburg norm over (x_min, 1], whether
    or not f lies in L^p(.): ``_quotient`` of f's ``quotient_norms``,
    raising the exception that rules it out."""
    ((_, den, num),) = quotient_norms([f], p, tol)
    result = _quotient(den, num)
    if isinstance(result, Exception):
        raise result
    return result


@dataclass(frozen=True)
class FamilyMember:
    label: str
    f: FunctionLike
    level: int | None = None  # dyadic scale index, when the member has one
    beta: float | None = None  # f = x^-beta, for a power member


def power_family(p: ExponentFunction, grid: LogGrid) -> list[FamilyMember]:
    """f(x) = x**(-beta) for beta in steps of ``BETA_STEP`` up to
    1/p_minus - 0.01.

    Non-integrable members are filtered later by the runner; the list is
    built from the exponent bounds alone.
    """
    p_minus, _ = p.bounds((0.0, 1.0))
    beta_max = 1.0 / p_minus - 0.01
    betas = [round(BETA_STEP * k, 10)
             for k in range(1, int(beta_max / BETA_STEP) + 1)]
    if beta_max > 0 and (not betas or betas[-1] < beta_max - 1e-12):
        betas.append(round(beta_max, 10))
    members = []
    for beta in betas:
        f = SampledFunction(grid, grid.points ** (-beta))
        members.append(FamilyMember(f"power:beta={beta:g}", f, beta=beta))
    return members


def dyadic_indicator_family(grid: LogGrid) -> list[FamilyMember]:
    """Indicators of the dyadic blocks (2^-k-1, 2^-k) above x_min."""
    members = []
    for k in range(1, int(math.log2(1.0 / grid.x_min))):
        lo, hi = 2.0 ** -(k + 1), 2.0 ** -k
        if lo < grid.x_min:
            break
        f = SampledFunction(grid, np.ones(grid.n), support=(lo, hi))
        members.append(FamilyMember(f"dyadic:k={k}", f, level=k))
    return members


def necessity_test_function(p: ExponentLike, grid: LogGrid,
                            a: float) -> list[SampledFunction]:
    """f0(x) = x**(-1/p(x)) on (a/2, a), zero elsewhere.

    Its modular equals ln 2 for every exponent, so its norm is <= 1.
    Returned as segments split at discontinuities of p, with node values
    carrying the one-sided exponent of their segment, so jump exponents
    are handled exactly.  Only the nodes of ``node_slice(a/2, a)``, the
    cells meeting the block, carry f0; every reader of a segment reads no
    others, and the rest hold 1, which keeps the values positive.
    """
    if a / 2.0 < grid.x_min:
        raise ValueError("need x_min < a/2")
    block = grid.node_slice(a / 2.0, a)
    x = grid.points[block]
    inside = np.count_nonzero((x > a / 2.0) & (x < a))
    if inside < 8:
        raise ResolutionError(
            f"only {inside} grid points fall inside (a/2, a) for a={a:g}")
    p = on_grid(p, grid)
    segs = []
    for s, t in p.pieces(a / 2.0, a):
        vals = np.ones(grid.n)
        vals[block] = np.exp(-np.log(x) / p.p_at(block, s, t))
        segs.append(SampledFunction(grid, vals, support=(s, t)))
    return segs


def necessity_levels(grid: LogGrid, depth: int) -> list[int]:
    """Levels j <= depth whose block (a/2, a), a = 2^-j, lies above x_min."""
    return [j for j in range(1, depth + 1) if 2.0 ** -(j + 1) > grid.x_min]


def necessity_family(p: ExponentLike, grid: LogGrid,
                     depth: int = NECESSITY_DEPTH) -> list[FamilyMember]:
    """Necessity test functions at the levels of ``necessity_levels``;
    levels the grid cannot resolve are left out and logged."""
    p = on_grid(p, grid)
    members = []
    for j in necessity_levels(grid, depth):
        try:
            f = necessity_test_function(p, grid, 2.0 ** -j)
        except ResolutionError as exc:
            logger.info("leaving out necessity level %d: %s", j, exc)
            continue
        members.append(FamilyMember(f"necessity:a=2^-{j}", f, level=j))
    return members


@dataclass(frozen=True)
class OperatorNormResult:
    value: float  # nan when no member gave a quotient
    argmax: str | None
    quotients: list  # (label, level, value, lo, hi)
    skipped: list
    max_relative_modular_bias: float

    def _level_maxima(self) -> dict:
        """level -> (value, lo, hi) of the earliest member with the
        level's largest quotient, by increasing level."""
        best: dict[int, tuple] = {}
        for _label, level, value, lo, hi in self.quotients:
            if level is not None and (level not in best
                                      or value > best[level][0]):
                best[level] = (value, lo, hi)
        return dict(sorted(best.items()))

    def level_series(self) -> tuple[list[int], list[float]]:
        """Max quotient per dyadic level, for trend classification."""
        best = self._level_maxima()
        return list(best), [value for value, _, _ in best.values()]

    def level_bounds(self) -> list[tuple[float, float]]:
        """The certified (lo, hi) of each ``level_series`` value."""
        return [(lo, hi) for _, lo, hi in self._level_maxima().values()]


def operator_norm_lower_bound(p: ExponentLike,
                              members: list[FamilyMember],
                              tol: float = NORM_TOL) -> OperatorNormResult:
    """Max Rayleigh quotient over a test family.

    A power member x^-beta takes one ``modular``, which decides whether
    it is in L^p(.) and gives its truncation bias; its quotient is
    exactly 1/(1 - beta), with a bracket of zero width.  The others take
    their modulars, denominators and numerators from one
    ``quotient_norms`` stream, so from one lockstep solve.  A member with
    an infinite modular or head is skipped, and so is one whose
    ``_quotient`` is an exception (an unbounded or zero denominator, a
    divergent Hardy head, an unbounded numerator), each logged with its
    reason, in member order.  The reduction is a deterministic max; ties
    go to the earliest member.  An empty or fully skipped family gives a
    nan value and no argmax.  The result also carries the worst
    truncation_bias / value over every member whose modular was
    evaluated, skipped members included.
    """
    outcomes: list = [None] * len(members)  # (value, lo, hi) or skip reason
    p = on_grid(p, as_segments(members[0].f)[0].grid) if members else p
    power = [i for i, m in enumerate(members) if m.beta is not None]
    others = [i for i, m in enumerate(members) if m.beta is None]
    checked = ([(modular(members[i].f, p), None, None) for i in power]
               + quotient_norms([members[i].f for i in others], p, tol))
    worst_bias = 0.0
    for i, (mv, den, num) in zip(power + others, checked):
        if mv.finite and mv.value > 0.0:
            worst_bias = max(worst_bias, mv.truncation_bias / mv.value)
        if not mv.finite or math.isinf(mv.truncation_bias):
            outcomes[i] = "infinite modular"
        elif members[i].beta is not None:
            outcomes[i] = (1.0 / (1.0 - members[i].beta),) * 3
        else:
            result = _quotient(den, num)
            outcomes[i] = ((result.value, *result.bounds)
                           if isinstance(result, QuotientResult) else result)
    quotients, skipped = [], []
    for member, result in zip(members, outcomes):
        if not isinstance(result, tuple):
            logger.info("skipping %s: %s", member.label, result)
            skipped.append(member.label)
            continue
        quotients.append((member.label, member.level, *result))
    value, argmax = math.nan, None
    if quotients:
        argmax, _, value, _, _ = max(quotients, key=lambda q: q[2])
    return OperatorNormResult(value, argmax, quotients, skipped, worst_bias)
