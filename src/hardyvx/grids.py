"""Geometric grids on (x_min, 1], sampled functions, and quadrature.

All integration happens in the coordinate u = ln x.  Cells carry either a
log-linear interpolant (linear in (u, g)) or a power-law interpolant
(linear in (u, ln g)).  One vectorised closed-form cell formula,
``_cell_integrals``, takes cell arrays (ends, end values, clipped range);
the quadrature operations feed it the cells of ``LogGrid.node_slice(a,
b)`` with [ln a, ln b] clipped into each, so a partial cell evaluates its
own interpolant at the clipped end and an unclipped end keeps the stored
node value.  ``integrate`` and ``integrate_dlog`` sum the cells and
``cumulative_integral`` takes their running sum, so pure power integrands
are exact up to rounding.  The Luxemburg-norm solver in ``lpnorm`` feeds
the same formula its own prepared cells.  The only truncation bias is the
head extrapolation below x_min, a two-point power-law fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "LogGrid",
    "SampledFunction",
    "FunctionLike",
    "make_log_grid",
    "as_segments",
    "integrate_dlog",
    "integrate",
    "cumulative_integral",
    "head_fit",
    "head_integral",
    "DivergentHeadError",
    "GridError",
]


class GridError(ValueError):
    """Invalid grid parameters or integration bounds."""


class DivergentHeadError(ArithmeticError):
    """The fitted power below x_min is not integrable at 0."""


@dataclass(frozen=True)
class LogGrid:
    """Geometric grid x_i = x_min**(1 - i/(n-1)), i.e. uniform in ln x."""

    x_min: float
    n: int
    points: np.ndarray
    u: np.ndarray  # ln(points)

    @property
    def h(self) -> float:
        """Cell width in u = ln x."""
        return float(self.u[1] - self.u[0])

    def index_left(self, x: float) -> int:
        """Index i with points[i] <= x (clipped to a valid cell start)."""
        i = int(np.searchsorted(self.points, x, side="right")) - 1
        return min(max(i, 0), self.n - 2)

    def node_slice(self, a: float, b: float) -> slice:
        """The nodes of the cells meeting [a, b], the only nodes an
        integral over [a, b] reads."""
        i0 = int(np.searchsorted(self.u, math.log(a), side="right")) - 1
        i1 = int(np.searchsorted(self.u, math.log(b), side="left")) - 1
        return slice(min(max(i0, 0), self.n - 2),
                     min(max(i1, 0), self.n - 2) + 2)


def make_log_grid(x_min: float = 1e-12, n: int = 1201) -> LogGrid:
    if not (0.0 < x_min < 1.0):
        raise GridError("x_min must lie in (0,1)")
    if n < 16:
        raise GridError("need at least 16 grid points")
    u = np.linspace(math.log(x_min), 0.0, n)
    pts = np.exp(u)
    pts[0] = x_min
    pts[-1] = 1.0
    return LogGrid(x_min=x_min, n=n, points=pts, u=u)


@dataclass(frozen=True)
class SampledFunction:
    """Function values on a LogGrid, with an optional support interval.

    Outside ``support`` the function is zero; the stored values remain
    the smooth formula values on the whole grid so that boundary cells
    can be interpolated exactly.  ``interp`` is "powerlaw" (linear in
    (ln x, ln g); requires positive values where used) or "loglinear".
    """

    grid: LogGrid
    values: np.ndarray
    interp: str = "powerlaw"
    support: tuple[float, float] | None = None

    def __post_init__(self):
        if self.interp not in ("powerlaw", "loglinear"):
            raise ValueError("interp must be 'powerlaw' or 'loglinear'")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.points.shape:
            raise ValueError("values must match the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampled values must be finite")
        object.__setattr__(self, "values", vals)
        if self.support is not None:
            lo, hi = self.support
            if not (lo < hi):
                raise ValueError("support must be a nonempty interval")

    # -- evaluation -----------------------------------------------------

    def evaluate(self, x) -> np.ndarray:
        """Interpolated value at x in [x_min, 1]; zero outside support."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(arr < self.grid.x_min * (1 - 1e-12)) or np.any(arr > 1.0 + 1e-12):
            raise GridError("evaluation point outside the grid range")
        out = _interp_values(self.grid, self.values, self.interp, np.log(arr))
        if self.support is not None:
            lo, hi = self.support
            out = np.where((arr >= lo) & (arr <= hi), out, 0.0)
        return out if np.ndim(x) else float(out[0])

    def effective_support(self) -> tuple[float, float]:
        if self.support is None:
            return (0.0, 1.0)
        return self.support


FunctionLike = Union[SampledFunction, Sequence[SampledFunction]]


def as_segments(f: FunctionLike) -> list[SampledFunction]:
    """Normalize a function-or-segment-list argument to a list."""
    if isinstance(f, SampledFunction):
        return [f]
    segs = list(f)
    if not segs or not all(isinstance(s, SampledFunction) for s in segs):
        raise TypeError("expected a SampledFunction or a sequence of them")
    return segs


# ---------------------------------------------------------------------------
# interpolation and closed-form cell integrals

_TINY = 1e-300


def _power_cell(z, front, dt, diff, denom):
    """Integral of a power-law cell: front*dt*expm1(z)/z == diff/denom.

    The expm1 form is exact as z -> 0 where the quotient form loses all
    precision; the quotient form is used for |z| >= 0.5 where expm1 could
    overflow and no cancellation occurs.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 0.5
    zs = np.where(z == 0.0, 1.0, z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi = np.where(z == 0.0, 1.0, np.expm1(np.where(small, z, 0.0)) / zs)
        val_small = front * dt * phi
        val_big = diff / np.where(small, 1.0, denom)
    return np.where(small, val_small, val_big)


def _interp_values(grid: LogGrid, vals: np.ndarray, interp: str,
                   uq: np.ndarray) -> np.ndarray:
    if interp == "loglinear":
        return np.interp(uq, grid.u, vals)
    if np.all(vals > 0.0):
        return np.exp(np.interp(uq, grid.u, np.log(vals)))
    # power-law interpolation degrades gracefully on cells touching zero
    out = np.empty_like(uq)
    for k, u in np.ndenumerate(uq):
        i = min(max(int(np.searchsorted(grid.u, u) - 1), 0), grid.n - 2)
        g0, g1 = vals[i], vals[i + 1]
        t = (u - grid.u[i]) / (grid.u[i + 1] - grid.u[i])
        if g0 > 0.0 and g1 > 0.0:
            out[k] = g0 * (g1 / g0) ** t
        else:
            out[k] = g0 + (g1 - g0) * t
    return out


def _cell_integrals(u0, u1, g0, g1, s, t, powerlaw: bool = True,
                    weight_x: bool = True) -> np.ndarray:
    """Integral of g du (or e^u g du) over [s, t] inside each cell
    [u0, u1] whose end values are g0, g1.

    A cell with both ends positive and ``powerlaw`` set is linear in
    (u, ln g), any other cell linear in (u, g).  s == u0 or t == u1 keeps
    the stored end value, so unclipped cells are exact up to rounding.
    """
    h = u1 - u0
    pos = (g0 > 0.0) & (g1 > 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = np.where(pos,
                         np.log(np.maximum(g1, _TINY) / np.maximum(g0, _TINY))
                         / h,
                         0.0)
    power = pos & powerlaw

    def at(v):
        with np.errstate(over="ignore", invalid="ignore"):
            inner = np.where(power, g0 * np.exp(slope * (v - u0)),
                             g0 + (g1 - g0) * (v - u0) / h)
        return np.where(v == u0, g0, np.where(v == u1, g1, inner))

    gs, gt = at(s), at(t)
    dt = t - s
    if weight_x:
        es, et = np.exp(s), np.exp(t)
        b1 = slope + 1.0
        power_cells = _power_cell(b1 * dt, es * gs, dt, et * gt - es * gs, b1)
        m = np.where(dt > 0, (gt - gs) / np.where(dt > 0, dt, 1.0), 0.0)
        linear_cells = et * (gt - m) - es * (gs - m)
    else:
        power_cells = _power_cell(slope * dt, gs, dt, gt - gs, slope)
        linear_cells = 0.5 * dt * (gs + gt)
    return np.where(power, power_cells, linear_cells)


def _clipped_cells(g: SampledFunction, a: float, b: float,
                   weight_x: bool) -> np.ndarray:
    """``_cell_integrals`` of g over the cells of ``node_slice(a, b)``,
    each clipped to [a, b], respecting the cell interpolants but NOT the
    support (callers clip to the support first)."""
    nodes = g.grid.node_slice(a, b)
    u, vals = g.grid.u[nodes], g.values[nodes]
    u0, u1 = u[:-1], u[1:]
    return _cell_integrals(u0, u1, vals[:-1], vals[1:],
                           np.clip(math.log(a), u0, u1),
                           np.clip(math.log(b), u0, u1),
                           powerlaw=g.interp == "powerlaw", weight_x=weight_x)


# ---------------------------------------------------------------------------
# public quadrature operations

def integrate_dlog(g: SampledFunction, a: float, b: float) -> float:
    """Integral of g(x) dx/x over [a,b] (intersected with g's support),
    x_min <= a < b <= 1."""
    if not (g.grid.x_min * (1 - 1e-12) <= a < b <= 1.0 + 1e-12):
        raise GridError("bounds must satisfy x_min <= a < b <= 1")
    lo, hi = g.effective_support()
    a, b = max(a, lo), min(b, hi)
    if a >= b:
        return 0.0
    return float(np.sum(_clipped_cells(g, a, b, weight_x=False)))


def head_fit(g: SampledFunction) -> tuple[float, float]:
    """Two-point power-law fit v = c * x**q from the first two samples."""
    v0, v1 = g.values[0], g.values[1]
    if v0 <= 0.0 or v1 <= 0.0:
        return 0.0, 0.0
    q = math.log(v1 / v0) / (g.grid.u[1] - g.grid.u[0])
    return v0, q


def head_integral(g: SampledFunction) -> float:
    """Integral of the fitted power over (0, x_min) w.r.t. dx."""
    v0, q = head_fit(g)
    if v0 == 0.0:
        return 0.0
    if q <= -1.0:
        raise DivergentHeadError(
            f"fitted head exponent {q:.3f} <= -1: integral diverges at 0")
    return v0 * g.grid.x_min / (q + 1.0)


def integrate(g: SampledFunction, a: float, b: float) -> float:
    """Integral of g(x) dx over [a,b] intersected with g's support;
    a == 0 includes the extrapolated head below x_min when the support
    reaches that far."""
    lo, hi = g.effective_support()
    head = 0.0
    if a == 0.0:
        if lo < g.grid.x_min:
            head = head_integral(g)
        a = g.grid.x_min
    if not (g.grid.x_min * (1 - 1e-12) <= a <= b <= 1.0 + 1e-12):
        raise GridError("bounds must satisfy 0/x_min <= a <= b <= 1")
    a, b = max(a, lo), min(b, hi)
    if a >= b:
        return head
    return head + float(np.sum(_clipped_cells(g, a, b, weight_x=True)))


def cumulative_integral(f: FunctionLike) -> SampledFunction:
    """x -> integral_0^x f, as a sampled function on f's grid.

    Accepts a single segment or a list of disjoint segments.  Segments
    whose support reaches below x_min contribute the closed-form head of
    their two-point power-law fit.
    """
    segs = as_segments(f)
    grid = segs[0].grid
    total = np.zeros(grid.n)
    for seg in segs:
        if seg.grid is not grid and not np.array_equal(seg.grid.points,
                                                       grid.points):
            raise GridError("all segments must share one grid")
        if np.any(seg.values < 0.0):
            raise ValueError("cumulative_integral requires g >= 0")
        lo, hi = seg.effective_support()
        head = head_integral(seg) if lo < grid.x_min else 0.0
        a, b = max(lo, grid.x_min), min(hi, 1.0)
        nodes = grid.node_slice(a, b)
        running = np.zeros(grid.n)
        running[nodes.start + 1:nodes.stop] = np.cumsum(
            _clipped_cells(seg, a, b, True))
        running[nodes.stop:] = running[nodes.stop - 1]
        total += head + running
    if np.any(np.diff(total) < -1e-12 * max(1.0, float(total[-1]))):
        raise AssertionError("cumulative integral must be nondecreasing")
    total = np.maximum.accumulate(total)
    return SampledFunction(grid, total, interp="loglinear", support=None)
