"""The modular I_{p(.)} and the Luxemburg norm on (x_min, 1].

The modular integrand |f(x)|**p(x) is always assembled in log space as
exp(p(x) * ln|f(x)|), with |f| = 0 contributing 0.  Integration splits at
exponent discontinuities and at segment support boundaries, so piecewise
power data is integrated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponent import EXP_GUARD, ExponentFunction, exponent_pieces
from .grids import (
    FunctionLike,
    SampledFunction,
    as_segments,
    head_fit,
    integrate,
    scaled,
)

__all__ = [
    "ModularValue",
    "NormValue",
    "BracketReport",
    "UnboundedNormError",
    "modular",
    "luxemburg_norm",
    "bracket_check",
    "norm_of_inverse_x",
]


class UnboundedNormError(ArithmeticError):
    """The modular stays above 1 for every lambda in the search range."""


@dataclass(frozen=True)
class ModularValue:
    value: float  # may be math.inf
    truncation_bias: float = 0.0

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class NormValue:
    value: float
    tol: float
    bracket: tuple[float, float]

    def __float__(self) -> float:
        return self.value


def modular(f: FunctionLike, p: ExponentFunction,
            interval: tuple[float, float] | None = None) -> ModularValue:
    """integral of |f(x)|**p(x) dx over ``interval`` (default (x_min, 1])."""
    segs = as_segments(f)
    grid = segs[0].grid
    a, b = interval if interval is not None else (grid.x_min, 1.0)
    if not (grid.x_min * (1 - 1e-12) <= a < b <= 1.0 + 1e-12):
        raise ValueError("modular interval must lie inside [x_min, 1]")

    total = 0.0
    bias = 0.0
    for seg in segs:
        lo, hi = seg.effective_support()
        lo_eff, hi_eff = max(lo, a), min(hi, b)
        if lo_eff >= hi_eff:
            continue
        absv = np.abs(seg.values)
        for s, t, p_nodes in exponent_pieces(p, grid.points, lo_eff, hi_eff):
            with np.errstate(divide="ignore", invalid="ignore"):
                expo = np.where(absv > 0.0,
                                p_nodes * np.log(np.maximum(absv, 1e-300)),
                                -np.inf)
            if np.any(expo > EXP_GUARD):
                return ModularValue(math.inf)
            w = np.where(np.isneginf(expo), 0.0, np.exp(expo))
            integrand = SampledFunction(grid, w, interp="powerlaw")
            total += integrate(integrand, s, t)
            # the head below x_min is the single source of truncation
            # bias; estimate it with the same two-point power fit
            if (s == lo_eff and lo < grid.x_min
                    and a <= grid.x_min * (1 + 1e-12)):
                v0, q = head_fit(integrand)
                if v0 > 0.0:
                    bias = (math.inf if q <= -1.0
                            else bias + v0 * grid.x_min / (q + 1.0))
    return ModularValue(total, truncation_bias=bias)


def _sup_abs(segs: list[SampledFunction]) -> float:
    sup = 0.0
    for seg in segs:
        lo, hi = seg.effective_support()
        pts = seg.grid.points
        mask = (pts >= lo) & (pts <= hi)
        if np.any(mask):
            sup = max(sup, float(np.max(np.abs(seg.values[mask]))))
    return sup


def luxemburg_norm(f: FunctionLike, p: ExponentFunction,
                   interval: tuple[float, float] | None = None,
                   tol: float = 1e-10) -> NormValue:
    """inf{lambda > 0 : modular(f/lambda) <= 1} by monotone bisection."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    segs = as_segments(f)
    sup = _sup_abs(segs)
    if sup == 0.0:
        return NormValue(0.0, 0.0, (0.0, 0.0))

    def mod(lam: float) -> float:
        return modular(scaled(segs, 1.0 / lam), p, interval).value

    lam_hi = max(1.0, sup)
    lam_lo = lam_hi * 2.0 ** -60
    expansions = 0
    while mod(lam_hi) > 1.0:
        lam_lo = lam_hi
        lam_hi *= 2.0
        expansions += 1
        if expansions > 200:
            raise UnboundedNormError("modular stays above 1 up to 2**200")
    while mod(lam_lo) < 1.0 and lam_lo > 1e-300:
        lam_hi = lam_lo
        lam_lo *= 0.5
    if mod(lam_lo) < 1.0:
        # f is numerically negligible on the interval
        return NormValue(lam_lo, tol, (0.0, lam_lo))

    while lam_hi - lam_lo > tol * lam_hi:
        lam_mid = math.sqrt(lam_lo * lam_hi)
        if mod(lam_mid) <= 1.0:
            lam_hi = lam_mid
        else:
            lam_lo = lam_mid
    return NormValue(lam_hi, (lam_hi - lam_lo) / lam_hi, (lam_lo, lam_hi))


@dataclass(frozen=True)
class BracketReport:
    passed: bool
    norm: float
    modular_value: float
    p_minus: float
    p_plus: float
    slack_lower: float  # modular - norm**(outer exponent)
    slack_upper: float  # norm**(inner exponent) - modular


def bracket_check(f: FunctionLike, p: ExponentFunction,
                  interval: tuple[float, float] | None = None,
                  tol: float = 1e-9) -> BracketReport:
    """Verify the modular-vs-norm sandwich; failure means a numerics bug.

    For ||f|| <= 1 the chain is ||f||**p_plus <= I <= ||f||**p_minus and
    for ||f|| >= 1 the two exponents swap roles.
    """
    segs = as_segments(f)
    grid = segs[0].grid
    a, b = interval if interval is not None else (grid.x_min, 1.0)
    nv = luxemburg_norm(segs, p, (a, b))
    mv = modular(segs, p, (a, b))
    p_minus, p_plus, _ = p.bounds((a, b))
    n = nv.value
    if n <= 1.0:
        low, high = n ** p_plus, n ** p_minus
    else:
        low, high = n ** p_minus, n ** p_plus
    scale = max(1.0, abs(mv.value)) if mv.finite else 1.0
    slack_lower = mv.value - low
    slack_upper = high - mv.value
    passed = mv.finite and slack_lower >= -tol * scale and slack_upper >= -tol * scale
    return BracketReport(passed, n, mv.value, p_minus, p_plus,
                         slack_lower, slack_upper)


def norm_of_inverse_x(p: ExponentFunction, grid, a: float,
                      delta: float = 1.0, tol: float = 1e-10) -> NormValue:
    """Luxemburg norm of x -> 1/x over (a, delta)."""
    if not (grid.x_min <= a < delta <= 1.0):
        raise ValueError("need x_min <= a < delta <= 1")
    f = SampledFunction(grid, 1.0 / grid.points, interp="powerlaw",
                        support=(a, delta))
    return luxemburg_norm(f, p, (a, delta), tol=tol)
