"""The Hardy averaging operator and Rayleigh-quotient machinery.

Two independent evaluation routes are provided for (1/x) * integral_0^x f:
the cumulative-integral route and the scaled route based on the identity
Hf(x)/x = integral_0^1 f(t x) dt, used to cross-validate quadrature.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .exponent import ExponentFunction, exponent_pieces
from .grids import (
    DivergentHeadError,
    FunctionLike,
    LogGrid,
    SampledFunction,
    _power_cell,
    as_segments,
    cumulative_integral,
    head_fit,
)
from .lpnorm import NormValue, UnboundedNormError, luxemburg_norm, modular

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
    "random_step_family",
    "ResolutionError",
]

logger = logging.getLogger(__name__)


class ResolutionError(ValueError):
    """Too few grid points to resolve a test-function support."""


# ---------------------------------------------------------------------------
# the operator

def hardy_average(f: FunctionLike) -> SampledFunction:
    """x -> (1/x) * integral_0^x f, sampled on f's grid."""
    H = cumulative_integral(f)
    vals = H.values / H.grid.points
    interp = "powerlaw" if np.all(vals > 0.0) else "loglinear"
    return SampledFunction(H.grid, vals, interp=interp)


def _t_quadrature(t0: float, t1: float, vals_fn, n_t: int) -> float:
    """integral of v(t) dt over (t0, t1) on a fresh geometric t-grid."""
    ts = np.exp(np.linspace(math.log(t0), math.log(t1), n_t))
    vs = np.asarray(vals_fn(ts), dtype=float)
    a, b = ts[:-1], ts[1:]
    va, vb = vs[:-1], vs[1:]
    pos = (va > 0.0) & (vb > 0.0)
    h = np.log(b / a)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(pos, np.log(np.maximum(vb, 1e-300)
                                     / np.maximum(va, 1e-300)) / h, 0.0)
        b1 = slope + 1.0
        power_cell = _power_cell(b1 * h, a * va, h, b * vb - a * va, b1)
    # trapezoid in t for cells touching zero
    lin_cell = 0.5 * (b - a) * (va + vb)
    return float(np.sum(np.where(pos, power_cell, lin_cell)))


def hardy_average_scaled(f: FunctionLike, n_t: int = 257) -> SampledFunction:
    """Same operator via Hf(x)/x = integral_0^1 f(t x) dt.

    Each segment's support is mapped into t exactly; within a segment the
    integrand is smooth and a per-segment geometric t-grid is used.
    """
    segs = as_segments(f)
    grid = segs[0].grid
    pts = grid.points
    out = np.zeros(grid.n)
    for seg in segs:
        lo, hi = seg.effective_support()
        v0, q = head_fit(seg)
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
                acc += _t_quadrature(
                    t_lo, t_hi,
                    lambda ts: seg.evaluate(np.clip(ts * x, x_lo, x_hi)),
                    n_t)
            out[i] += acc
    interp = "powerlaw" if np.all(out > 0.0) else "loglinear"
    return SampledFunction(grid, out, interp=interp)


# ---------------------------------------------------------------------------
# quotients

@dataclass(frozen=True)
class QuotientResult:
    value: float
    numerator: NormValue
    denominator: NormValue

    def __float__(self) -> float:
        return self.value

    @property
    def bounds(self) -> tuple[float, float]:
        """Interval bound propagated from both bisection brackets."""
        nlo, nhi = self.numerator.bracket
        dlo, dhi = self.denominator.bracket
        return (nlo / dhi if dhi > 0 else 0.0,
                nhi / dlo if dlo > 0 else math.inf)


def rayleigh_quotient(f: FunctionLike, p: ExponentFunction,
                      tol: float = 1e-10) -> QuotientResult:
    """||x^-1 Hf|| / ||f|| in the Luxemburg norm over (x_min, 1]."""
    den = luxemburg_norm(f, p, tol=tol)
    if den.value == 0.0:
        raise ZeroDivisionError("Rayleigh quotient of the zero function")
    num = luxemburg_norm(hardy_average(f), p, tol=tol)
    return QuotientResult(num.value / den.value, num, den)


@dataclass(frozen=True)
class FamilyMember:
    label: str
    f: FunctionLike
    level: int | None = None  # dyadic scale index, when the member has one


def power_family(p: ExponentFunction, grid: LogGrid,
                 step: float = 0.05) -> list[FamilyMember]:
    """f(x) = x**(-beta) for beta up to 1/p_minus - 0.01.

    Non-integrable members are filtered later by the runner; the list is
    built from the exponent bounds alone.
    """
    p_minus, _, _ = p.bounds((0.0, 1.0))
    beta_max = 1.0 / p_minus - 0.01
    betas = [round(step * k, 10) for k in range(1, int(beta_max / step) + 1)]
    if beta_max > 0 and (not betas or betas[-1] < beta_max - 1e-12):
        betas.append(round(beta_max, 10))
    members = []
    for beta in betas:
        if beta <= 0.0 or beta >= 1.0:
            continue
        f = SampledFunction(grid, grid.points ** (-beta), interp="powerlaw")
        members.append(FamilyMember(f"power:beta={beta:g}", f))
    return members


def dyadic_indicator_family(grid: LogGrid,
                            max_level: int | None = None) -> list[FamilyMember]:
    """Indicators of the dyadic blocks (2^-k-1, 2^-k)."""
    if max_level is None:
        max_level = int(math.log2(1.0 / grid.x_min)) - 1
    members = []
    for k in range(1, max_level + 1):
        lo, hi = 2.0 ** -(k + 1), 2.0 ** -k
        if lo < grid.x_min:
            break
        f = SampledFunction(grid, np.ones(grid.n), interp="powerlaw",
                            support=(lo, hi))
        members.append(FamilyMember(f"dyadic:k={k}", f, level=k))
    return members


def necessity_test_function(p: ExponentFunction, grid: LogGrid,
                            a: float) -> list[SampledFunction]:
    """f0(x) = x**(-1/p(x)) on (a/2, a), zero elsewhere.

    Its modular equals ln 2 for every exponent, so its norm is <= 1.
    Returned as segments split at discontinuities of p, with node values
    carrying the one-sided exponent of their segment, so jump exponents
    are handled exactly.
    """
    if a / 2.0 < grid.x_min:
        raise ValueError("need x_min < a/2")
    inside = np.count_nonzero((grid.points > a / 2.0) & (grid.points < a))
    if inside < 8:
        raise ResolutionError(
            f"only {inside} grid points fall inside (a/2, a) for a={a:g}")
    segs = []
    for s, t, pn in exponent_pieces(p, grid.points, a / 2.0, a):
        vals = np.exp(-np.log(grid.points) / pn)
        segs.append(SampledFunction(grid, vals, interp="powerlaw",
                                    support=(s, t)))
    return segs


def necessity_levels(grid: LogGrid, depth: int) -> list[int]:
    """Levels j <= depth whose block (a/2, a), a = 2^-j, lies above x_min."""
    return [j for j in range(1, depth + 1) if 2.0 ** -(j + 1) > grid.x_min]


def necessity_family(p: ExponentFunction, grid: LogGrid,
                     depth: int = 30) -> list[FamilyMember]:
    """Necessity test functions at the levels of ``necessity_levels``;
    levels the grid cannot resolve are left out and logged."""
    members = []
    for j in necessity_levels(grid, depth):
        try:
            f = necessity_test_function(p, grid, 2.0 ** -j)
        except ResolutionError as exc:
            logger.info("leaving out necessity level %d: %s", j, exc)
            continue
        members.append(FamilyMember(f"necessity:a=2^-{j}", f, level=j))
    return members


def random_step_family(grid: LogGrid, seed: int = 0, pieces: int = 6,
                       count: int = 8) -> list[FamilyMember]:
    """Random positive step functions on dyadic-scale partitions."""
    rng = np.random.default_rng(seed)
    members = []
    for m in range(count):
        depth = int(math.log2(1.0 / grid.x_min)) - 1
        cuts = np.sort(rng.choice(np.arange(1, depth), size=pieces - 1,
                                  replace=False))
        edges = [grid.x_min * 2.0] + [2.0 ** -int(c) for c in cuts[::-1]] + [1.0]
        heights = rng.uniform(0.1, 10.0, size=pieces)
        segs = []
        for (lo, hi), hgt in zip(zip(edges, edges[1:]), heights):
            segs.append(SampledFunction(grid, np.full(grid.n, hgt),
                                        interp="powerlaw", support=(lo, hi)))
        members.append(FamilyMember(f"step:seed={seed}:m={m}", segs))
    return members


@dataclass(frozen=True)
class OperatorNormResult:
    value: float  # nan when no member gave a quotient
    argmax: str | None
    quotients: list  # (label, level, value, lo, hi)
    skipped: list
    max_relative_modular_bias: float

    def level_series(self) -> tuple[list[int], list[float]]:
        """Max quotient per dyadic level, for trend classification."""
        by_level: dict[int, float] = {}
        for label, level, value, _lo, _hi in self.quotients:
            if level is not None:
                by_level[level] = max(by_level.get(level, 0.0), value)
        levels = sorted(by_level)
        return levels, [by_level[k] for k in levels]


def operator_norm_lower_bound(p: ExponentFunction,
                              members: list[FamilyMember],
                              tol: float = 1e-10) -> OperatorNormResult:
    """Max Rayleigh quotient over a test family.

    Members with infinite modular, a divergent Hardy head or a zero
    norm on the grid are skipped and logged.  The reduction is a
    deterministic max; ties go to the earliest member.  An empty or fully
    skipped family gives a nan value and no argmax.  The result also
    carries the worst truncation_bias / value over every member whose
    modular was evaluated, skipped members included.
    """
    quotients, skipped = [], []
    worst_bias = 0.0
    for member in members:
        try:
            mv = modular(member.f, p)
            if mv.finite and mv.value > 0.0:
                worst_bias = max(worst_bias, mv.truncation_bias / mv.value)
            if not mv.finite or math.isinf(mv.truncation_bias):
                raise UnboundedNormError("infinite modular")
            q = rayleigh_quotient(member.f, p, tol=tol)
        except (DivergentHeadError, UnboundedNormError,
                ZeroDivisionError) as exc:
            logger.info("skipping %s: %s", member.label, exc)
            skipped.append(member.label)
            continue
        lo, hi = q.bounds
        quotients.append((member.label, member.level, q.value, lo, hi))
    value, argmax = math.nan, None
    if quotients:
        argmax, _, value, _, _ = max(quotients, key=lambda q: q[2])
    return OperatorNormResult(value, argmax, quotients, skipped, worst_bias)
