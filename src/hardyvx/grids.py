"""Geometric grids on (x_min, 1], sampled functions, and quadrature.

All integration happens in the coordinate u = ln x.  Every sampled
function is read one way, by evaluation, quadrature and the modular
alike: a cell with both ends positive is a power law (linear in (u,
ln g)), and a cell with a zero end is linear in (u, g).  One vectorised
closed-form cell formula, ``_cell_integrals``, takes nodes, node values
and each cell's clipped range; the quadrature operations feed it the
nodes of ``LogGrid.node_slice(a, b)`` with [ln a, ln b] clipped into
each cell, so a partial cell evaluates its own interpolant at the
clipped end and an unclipped end keeps the stored node value.  A
power-law cell is computed in log space by ``_exp_cells``: with E = ln g
(+ u for dx) lerped to the clipped ends s and t, it is exp(max(E_s,
E_t)) * (t - s) * (1 - e^-|E_t - E_s|) / |E_t - E_s|, two
transcendentals per cell, exact as the cell flattens and with no
overflow below the larger end; a linear cell is ``_linear_cells``.
``integrate`` and ``integrate_dlog`` sum the cells and
``cumulative_integral`` takes their running sum, so pure power integrands
are exact up to rounding; ``_cumulative_integrals`` does so for a batch
of functions in one pass, the node slices of all their segments laid end
to end, and returns each function's running totals over its own node
range only, which the C1 numerators read directly; past that range the
total keeps its last value, with which ``cumulative_integral`` pads its
one row to the whole grid.  The Luxemburg-norm solver in ``lpnorm`` feeds
``_exp_cells`` the exponents of its own prepared cells.  The only
truncation bias is the head extrapolation below x_min, a two-point
power-law fit.
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

    def node_slice(self, a: float, b: float) -> slice:
        """The nodes of the cells meeting [a, b], the only nodes an
        integral over [a, b] reads."""
        i0 = int(self.u.searchsorted(math.log(a), "right")) - 1
        i1 = int(self.u.searchsorted(math.log(b), "left")) - 1
        return slice(min(max(i0, 0), self.n - 2),
                     min(max(i1, 0), self.n - 2) + 2)

    def node_slices(self, ln_a, ln_b) -> tuple[np.ndarray, np.ndarray]:
        """``node_slice`` of many [a, b], given ln a and ln b: the
        arrays of the slices' starts and stops."""
        top = self.n - 2
        # np.minimum and np.maximum: np.clip's own overhead is several
        # times theirs on the few slices of one batch
        return (np.minimum(np.maximum(
                    self.u.searchsorted(ln_a, "right") - 1, 0), top),
                np.minimum(np.maximum(
                    self.u.searchsorted(ln_b, "left") - 1, 0), top) + 2)


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
    can be interpolated exactly.  Each cell is a power law between
    positive ends and linear where an end is zero (see the module
    docstring).
    """

    grid: LogGrid
    values: np.ndarray
    support: tuple[float, float] | None = None

    def __post_init__(self):
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
        out = _interp_values(self.grid, self.values, np.log(arr))
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

# keeps the exponential cell's factor expm1(-|d|)/(-|d|) finite at d = 0;
# it moves |d| only where |d| < 1e-284, where the factor is 1 anyway
_TINY = 1e-300


def _interp_values(grid: LogGrid, vals: np.ndarray,
                   uq: np.ndarray) -> np.ndarray:
    """g at each u of ``uq`` by the cell rule, in one pass: ``_lerp`` in
    (u, ln g) where both ends of u's cell are positive, in (u, g)
    otherwise."""
    i = np.minimum(np.maximum(grid.u.searchsorted(uq) - 1, 0), grid.n - 2)
    u0 = grid.u[i]
    w = (uq - u0) / (grid.u[i + 1] - u0)
    g0, g1 = vals[i], vals[i + 1]
    power = (g0 > 0.0) & (g1 > 0.0)
    ln0, ln1 = (np.log(np.where(power, g, 1.0)) for g in (g0, g1))
    return np.where(power, np.exp(_lerp(ln0, ln1, w)), _lerp(g0, g1, w))


def _lerp(y0, y1, w):
    """y0 + (y1 - y0) w, exactly y0 at w = 0 and y1 at w = 1."""
    return y0 * (1.0 - w) + y1 * w


def _exp_cells(e_s, e_t, dt):
    """Integral of exp(E) over cells of width dt on which E is linear,
    from e_s to e_t: exp(max) * dt * (1 - e^-|d|) / |d|, d = e_t - e_s.

    This is the power-law cell in log space: two transcendentals per
    cell, exact as d -> 0, and no overflow below exp(max)."""
    x = -_TINY - np.abs(e_t - e_s)
    return np.exp(np.maximum(e_s, e_t)) * dt * (np.expm1(x) / x)


def _cell_integrals(u, g, s, t, weight_x: bool = True,
                    left=None) -> np.ndarray:
    """Integral of g du (or e^u g du) over [s[i], t[i]] inside each cell
    [u[i], u[i+1]] of the nodes u, whose values are g; with ``left``, the
    cells are [u[left[i]], u[left[i] + 1]], so the nodes may hold several
    slices back to back.

    A cell with both ends positive is linear in (u, ln g):
    ``_exp_cells`` of E = ln g (+ u), taken once per node and lerped to
    s and t.  A cell with a zero end is linear in (u, g), and each cell
    is evaluated by its own formula only.  s == u[i] or t == u[i+1]
    keeps the stored end value, so unclipped cells are exact up to
    rounding.
    """
    i, j = (slice(None, -1), slice(1, None)) if left is None else (left,
                                                                   left + 1)
    u0, u1, g0, g1 = u[i], u[j], g[i], g[j]
    w_s, w_t = (s - u0) / (u1 - u0), (t - u0) / (u1 - u0)
    positive = g > 0.0
    power = positive[i] & positive[j]
    # a slice, which copies nothing, indexes a kind that fills the call,
    # as the power cells fill most calls
    n_power = np.count_nonzero(power)
    cells = np.empty(power.shape)
    if n_power:
        k = power if n_power < power.size else slice(None)
        e = np.log(np.where(positive, g, 1.0)) + (u if weight_x else 0.0)
        e0, e1 = e[i][k], e[j][k]
        cells[k] = _exp_cells(_lerp(e0, e1, w_s[k]), _lerp(e0, e1, w_t[k]),
                              t[k] - s[k])
    if n_power < power.size:
        k = ~power if n_power else slice(None)
        cells[k] = _linear_cells(_lerp(g0[k], g1[k], w_s[k]),
                                 _lerp(g0[k], g1[k], w_t[k]),
                                 s[k], t[k], weight_x)
    return cells


def _linear_cells(g_s, g_t, s, t, weight_x: bool):
    """Integral of g du (or e^u g du) over [s, t] where g is linear in u,
    from g_s to g_t.

    With the weight it is e^s dt (g_s A + g_t B), A and B the integrals
    of (1 - r) e^(r dt) and r e^(r dt) over r in (0, 1): no cancellation
    between the two ends, and a Taylor series where dt < 1e-2, below
    which the closed forms lose digits.  Each branch is evaluated on its
    own cells only."""
    dt = t - s
    if not weight_x:
        return 0.5 * dt * (g_s + g_t)
    small = dt < 1e-2
    n_small = np.count_nonzero(small)
    a, b = np.empty_like(dt), np.empty_like(dt)
    # a slice, which copies nothing, indexes a branch that fills the call
    if n_small:
        k = small if n_small < small.size else slice(None)
        x = dt[k]
        a[k] = 1/2 + x * (1/6 + x * (1/24 + x * (1/120 + x * (
            1/720 + x / 5040))))
        b[k] = 1/2 + x * (1/3 + x * (1/8 + x * (1/30 + x * (
            1/144 + x / 840))))
    if n_small < small.size:
        k = ~small if n_small else slice(None)
        x = dt[k]
        e = np.expm1(x)
        a[k] = (e - x) / (x * x)
        b[k] = (x * e - e + x) / (x * x)
    return np.exp(s) * dt * (g_s * a + g_t * b)


def _ranges(starts: np.ndarray, lengths: np.ndarray):
    """The indices of the ranges [start, start + length) laid end to end,
    and the position of each range's first index among them."""
    ends = lengths.cumsum()
    offsets = ends - lengths
    return np.arange(ends[-1]) + np.repeat(starts - offsets, lengths), offsets


def _clipped_cells(g: SampledFunction, a: float, b: float,
                   weight_x: bool) -> np.ndarray:
    """``_cell_integrals`` of g over the cells of ``node_slice(a, b)``,
    each clipped to [a, b], respecting the cell interpolants but NOT the
    support (callers clip to the support first)."""
    nodes = g.grid.node_slice(a, b)
    u = g.grid.u[nodes]
    return _cell_integrals(u, g.values[nodes],
                           np.clip(math.log(a), u[:-1], u[1:]),
                           np.clip(math.log(b), u[:-1], u[1:]), weight_x)


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


def head_fit(v0, v1, grid: LogGrid) -> tuple[float, float]:
    """Two-point power-law fit v = c * x**q of the values v0, v1 at the
    grid's first two nodes, as (c x_min**q, q)."""
    if v0 <= 0.0 or v1 <= 0.0:
        return 0.0, 0.0
    q = math.log(v1 / v0) / (grid.u[1] - grid.u[0])
    return v0, q


def head_integral(v0, v1, grid: LogGrid) -> float:
    """Integral over (0, x_min) w.r.t. dx of the power ``head_fit`` fits
    to v0, v1 at the grid's first two nodes, the only ones it reads."""
    v0, q = head_fit(v0, v1, grid)
    if v0 == 0.0:
        return 0.0
    if q <= -1.0:
        raise DivergentHeadError(
            f"fitted head exponent {q:.3f} <= -1: integral diverges at 0")
    return v0 * grid.x_min / (q + 1.0)


def integrate(g: SampledFunction, a: float, b: float) -> float:
    """Integral of g(x) dx over [a,b] intersected with g's support;
    a == 0 includes the extrapolated head below x_min when the support
    reaches that far."""
    lo, hi = g.effective_support()
    head = 0.0
    if a == 0.0:
        if lo < g.grid.x_min:
            head = head_integral(g.values[0], g.values[1], g.grid)
        a = g.grid.x_min
    if not (g.grid.x_min * (1 - 1e-12) <= a <= b <= 1.0 + 1e-12):
        raise GridError("bounds must satisfy 0/x_min <= a <= b <= 1")
    a, b = max(a, lo), min(b, hi)
    if a >= b:
        return head
    return head + float(np.sum(_clipped_cells(g, a, b, weight_x=True)))


def cumulative_integral(f: FunctionLike) -> SampledFunction:
    """x -> integral_0^x f, as a sampled function on f's grid:
    ``_cumulative_integrals`` of f alone, 0 below its own node range and
    its last total above it, raising its DivergentHeadError.

    Accepts a single segment or a list of disjoint segments.  Segments
    whose support reaches below x_min contribute the closed-form head of
    their two-point power-law fit.
    """
    (total,), (first,), (length,), (error,) = _cumulative_integrals([f])
    if error is not None:
        raise error
    grid = as_segments(f)[0].grid
    return SampledFunction(grid, np.concatenate((
        np.zeros(first), total, np.full(grid.n - first - length, total[-1]))))


def _cumulative_integrals(fs: list) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray, list]:
    """The running totals of ``cumulative_integral`` of each function in
    ``fs``, all on one grid, in one pass, over its own node range only:
    from the first node of its lowest segment's node slice, below which
    its total is 0 (and at which it is 0 too unless a head below x_min
    reaches it), to the last node of its highest, past which it keeps its
    last value.  Returns one row per function, its totals from its first
    node on, padded to the longest own range; per function its first node
    and its own range's length; and per function its DivergentHeadError,
    or None.  The cells of every segment's node slice, laid end to end,
    are integrated in one ``_cell_integrals`` call, placed in one row per
    segment, and summed by ``np.cumsum(axis=1)``, which keeps each row's
    summation order.  A function whose head below x_min diverges keeps a
    row of zeros, first node 0 and length 1 (its error is returned, not
    raised), and its neighbours are unaffected.
    """
    grid = as_segments(fs[0])[0].grid
    errors: list = [None] * len(fs)
    firsts = np.zeros(len(fs), np.intp)
    lengths = np.ones(len(fs), np.intp)
    segs, heads = [], []
    owners = []  # (function, its first segment, its segment count)
    for k, f in enumerate(fs):
        mine, my_heads = as_segments(f), []
        try:
            for seg in mine:
                if seg.grid is not grid and not np.array_equal(
                        seg.grid.points, grid.points):
                    raise GridError("all segments must share one grid")
                lo, _ = seg.effective_support()
                my_heads.append(head_integral(seg.values[0], seg.values[1],
                                              grid) if lo < grid.x_min
                                else 0.0)
        except DivergentHeadError as exc:
            errors[k] = exc.with_traceback(None)
            continue
        owners.append((k, len(segs), len(mine)))
        segs += mine
        heads += my_heads
    if not segs:
        return np.zeros((len(fs), 1)), firsts, lengths, errors
    ln_a, ln_b = np.array([(math.log(max(lo, grid.x_min)),
                            math.log(min(hi, 1.0)))
                           for lo, hi in (seg.effective_support()
                                          for seg in segs)]).T
    starts, stops = grid.node_slices(ln_a, ln_b)
    # each function's own node range, from its segments' slices
    rows = [k for k, _, _ in owners]
    segs_at = [j for _, j, _ in owners]  # each function's first segment
    firsts[rows] = np.minimum.reduceat(starts, segs_at)
    lengths[rows] = np.maximum.reduceat(stops, segs_at) - firsts[rows]
    lengths_per = stops - starts
    idx, offsets = _ranges(starts, lengths_per)
    # every node but each slice's last starts a cell
    pairs = np.ones(idx.size - 1, bool)
    pairs[offsets[1:] - 1] = False
    left = pairs.nonzero()[0]
    u = grid.u[idx]
    u0, u1 = u[left], u[left + 1]
    cells_per = lengths_per - 1
    values = np.concatenate([seg.values[a:b] for seg, a, b in zip(
        segs, starts.tolist(), stops.tolist())])
    if np.any(values < 0.0):
        raise ValueError("cumulative_integral requires g >= 0")
    cells = _cell_integrals(
        u, values,
        np.clip(np.repeat(ln_a, cells_per), u0, u1),
        np.clip(np.repeat(ln_b, cells_per), u0, u1), left=left)
    # each segment's cells at their nodes' places in its function's range
    origin = np.repeat(firsts[rows], [count for _, _, count in owners])
    running = np.zeros((len(segs), int(lengths.max())))
    running[np.repeat(np.arange(len(segs)), cells_per),
            idx[left] + 1 - np.repeat(origin, cells_per)] = cells
    np.cumsum(running, axis=1, out=running)
    running += np.array(heads)[:, None]
    # each function's total adds its segments in order
    total = np.zeros((len(fs), running.shape[1]))
    total[rows] = running[segs_at]
    for m in range(1, max(count for _, _, count in owners)):
        more = [i for i, (_, _, count) in enumerate(owners) if count > m]
        total[[rows[i] for i in more]] += running[[owners[i][1] + m
                                                   for i in more]]
    if np.any(np.diff(total, axis=1)
              < -1e-12 * np.maximum(1.0, total[:, -1:])):
        raise AssertionError("cumulative integral must be nondecreasing")
    np.maximum.accumulate(total, axis=1, out=total)
    return total, firsts, lengths, errors
