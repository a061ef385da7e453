"""The modular I_{p(.)} and the Luxemburg norm on (x_min, 1].

The modular integrand |f(x)/lambda|**p(x) is always assembled in log
space as exp(p(x) * (ln|f(x)| - sigma)), sigma = ln lambda, with |f| = 0
contributing 0.  Integration splits at exponent discontinuities and at
segment support boundaries, so piecewise power data is integrated
exactly.  ``_prepare`` turns (f, p, interval) into sigma-independent cell
arrays, the cells of each piece's node slice with the piece clipped into
them and p and ln|f| at both cell ends; ``_evaluate`` integrates many
such (cells, sigma) rows in one vectorised call of the grid's cell
formula, so neither ``SampledFunction`` nor ``integrate`` appears in a
norm solve.

Every norm comes from one lockstep solver, ``luxemburg_norms``.
I(e^sigma) is convex and decreasing in sigma, and so is ln I, so a
Newton iteration on ln I(sigma) = 0 converges in a few steps.  Its slope
is the cell sum of mean p times the cell integral (exact for p constant
on each cell); it only steers, because each job keeps its own certified
bracket, takes a bisection step whenever a Newton step would leave it or
I is inf or 0, and ends with two evaluations at lambda * (1 -+ tol/4)
that certify I(hi) <= 1 < I(lo), or else with plain bisection.  Jobs are
solved in order in groups of at most ``_GROUP_CELLS`` cells (a larger job
alone), each group evaluating all its jobs' current points in one call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exponent import EXP_GUARD, ExponentFunction, exponent_pieces
from .grids import (
    DivergentHeadError,
    FunctionLike,
    LogGrid,
    SampledFunction,
    _cell_integrals,
    as_segments,
    head_integral,
)

__all__ = [
    "ModularValue",
    "NormValue",
    "BracketReport",
    "UnboundedNormError",
    "modular",
    "luxemburg_norm",
    "luxemburg_norms",
    "bracket_check",
    "norm_of_inverse_x",
    "norms_of_inverse_x",
]

# cells per lockstep group: large enough to amortise numpy's per-call
# cost over many jobs, small enough that the evaluation's temporaries
# stay a small share of peak memory; grouping never changes a result
_GROUP_CELLS = 2048
# Newton steps before a job falls back to bisection
_MAX_NEWTON = 50
# the search range of lambda: at or below _LAM_MIN f counts as negligible,
# past max(1, sup|f|) * 2**_MAX_DOUBLINGS, or past e^_SIGMA_MAX, the norm
# counts as unbounded; that cap keeps every lambda the search evaluates,
# certification points included, a finite double
_LAM_MIN = 1e-300
_MAX_DOUBLINGS = 200
_SIGMA_MAX = math.log(sys.float_info.max) - 1.0


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


@dataclass(frozen=True)
class _Cells:
    """The cells of one modular, concatenated over its pieces' node
    slices.  ``rows`` holds u0, u1, s, t (the piece clipped into the
    cell), p0, p1 and ln|f| at both ends (-inf where f = 0).  ``heads``
    holds (p, ln|f|) at every node for each piece that reaches x_min
    while f's support goes below it, for the head fit."""
    grid: LogGrid
    rows: np.ndarray  # shape (8, cells)
    heads: list

    @property
    def size(self) -> int:
        return self.rows.shape[1]


def _prepare(f: FunctionLike, p: ExponentFunction,
             interval: tuple[float, float] | None) -> _Cells:
    """The cells of the modular of f over ``interval``."""
    segs = as_segments(f)
    grid = segs[0].grid
    a, b = interval if interval is not None else (grid.x_min, 1.0)
    if not (grid.x_min * (1 - 1e-12) <= a < b <= 1.0 + 1e-12):
        raise ValueError("modular interval must lie inside [x_min, 1]")
    blocks, heads = [], []
    for seg in segs:
        lo, hi = seg.effective_support()
        lo_eff, hi_eff = max(lo, a), min(hi, b)
        if lo_eff >= hi_eff:
            continue
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(seg.values))
        head = lo < grid.x_min and a <= grid.x_min * (1 + 1e-12)
        for s, t, p_nodes in exponent_pieces(p, grid.points, lo_eff, hi_eff):
            nodes = grid.node_slice(s, t)
            u, pn, ln_f = grid.u[nodes], p_nodes[nodes], log_abs[nodes]
            u0, u1 = u[:-1], u[1:]
            blocks.append(np.stack([
                u0, u1, np.clip(math.log(s), u0, u1),
                np.clip(math.log(t), u0, u1),
                pn[:-1], pn[1:], ln_f[:-1], ln_f[1:]]))
            if head and s == lo_eff:
                heads.append((p_nodes, log_abs))
    rows = np.concatenate(blocks, axis=1) if blocks else np.empty((8, 0))
    return _Cells(grid, rows, heads)


def _evaluate(rows: np.ndarray, sigma, starts: np.ndarray):
    """The modular I of f/e^sigma and the Newton slope S (the sum of mean
    p times the cell integral, so dI/dsigma ~ -S) for each row of cells
    starting at ``starts``; ``sigma`` is given per cell.  I is inf on a
    row where a node's exponent exceeds EXP_GUARD."""
    u0, u1, s, t, p0, p1, l0, l1 = rows
    e0, e1 = p0 * (l0 - sigma), p1 * (l1 - sigma)
    over = np.maximum.reduceat(np.maximum(e0, e1), starts) > EXP_GUARD
    # overflowing rows are clamped here and reported as inf below
    cells = _cell_integrals(u0, u1, np.exp(np.minimum(e0, EXP_GUARD)),
                            np.exp(np.minimum(e1, EXP_GUARD)), s, t)
    value = np.add.reduceat(cells, starts)
    slope = np.add.reduceat(0.5 * (p0 + p1) * cells, starts)
    value[over] = math.inf
    return value, slope


def modular(f: FunctionLike, p: ExponentFunction,
            interval: tuple[float, float] | None = None) -> ModularValue:
    """integral of |f(x)|**p(x) dx over ``interval`` (default (x_min, 1]).

    The truncation bias is the head below x_min, estimated with the grid's
    two-point power fit of the integrand."""
    cells = _prepare(f, p, interval)
    if cells.size == 0:
        return ModularValue(0.0)
    value, _ = _evaluate(cells.rows, 0.0, np.zeros(1, dtype=np.intp))
    value = float(value[0])
    if math.isinf(value):
        return ModularValue(math.inf)
    bias = 0.0
    for p_nodes, log_abs in cells.heads:
        w = np.exp(np.minimum(p_nodes * log_abs, EXP_GUARD))
        try:
            bias += head_integral(SampledFunction(cells.grid, w))
        except DivergentHeadError:
            bias = math.inf
    return ModularValue(value, truncation_bias=bias)


def _sup_abs(segs: list[SampledFunction]) -> float:
    sup = 0.0
    for seg in segs:
        lo, hi = seg.effective_support()
        pts = seg.grid.points
        mask = (pts >= lo) & (pts <= hi)
        if np.any(mask):
            sup = max(sup, float(np.max(np.abs(seg.values[mask]))))
    return sup


def _negligible(tol: float) -> NormValue:
    """f is numerically negligible: I(_LAM_MIN) <= 1."""
    return NormValue(_LAM_MIN, tol, (0.0, _LAM_MIN))


class _Search:
    """One job's search for I(e^sigma) = 1 in sigma = ln lambda.

    [lo, hi] starts as the whole search range, [ln _LAM_MIN, min(ln(max(1,
    sup|f|)) + _MAX_DOUBLINGS ln 2, _SIGMA_MAX)]; an end is certified once
    I has been evaluated there, with I(lo) > 1 >= I(hi).  A point moves an
    end only if its lambda lies strictly between the ends' lambdas, so
    e^lo < e^hi holds even where adjacent doubles in sigma share one
    lambda.  ``points`` are the sigmas to evaluate next; ``result`` is set
    when the job ends.
    """

    def __init__(self, rows: np.ndarray, sup: float, tol: float):
        self.rows, self.tol = rows, tol
        top = math.log(max(1.0, sup))
        self.floor = math.log(_LAM_MIN)
        self.ceiling = min(top + _MAX_DOUBLINGS * math.log(2.0), _SIGMA_MAX)
        self.lo, self.hi = self.floor, self.ceiling
        self.lo_seen = self.hi_seen = False
        self.mode, self.newton_steps = "newton", 0
        self.result = None
        # start at max(1, sup|f|), or past the smallest sigma at which no
        # node overflows EXP_GUARD, clear of that bound's rounding
        _, _, _, _, p0, p1, l0, l1 = rows
        guard = float(np.max(np.maximum(l0 - EXP_GUARD / p0,
                                        l1 - EXP_GUARD / p1)))
        guard += 1e-9 * (1.0 + abs(guard))
        self.points = [min(max(top, guard), self.ceiling)]

    def _inside(self, sigma: float) -> bool:
        """Whether e^sigma lies strictly between the certified ends'
        lambdas (an uncertified end bounds nothing)."""
        lam = math.exp(sigma)
        return ((not self.lo_seen or math.exp(self.lo) < lam)
                and (not self.hi_seen or lam < math.exp(self.hi)))

    def _bisection_point(self) -> float:
        """An uncertified end of the bracket, else its midpoint."""
        if not self.hi_seen:
            return self.hi
        if not self.lo_seen:
            return self.lo
        return 0.5 * (self.lo + self.hi)

    def _finish(self, lo: float, hi: float) -> None:
        lam_lo, lam_hi = math.exp(lo), math.exp(hi)
        self.result = NormValue(lam_hi, (lam_hi - lam_lo) / lam_hi,
                                (lam_lo, lam_hi))

    def update(self, values, slopes) -> None:
        """Take I and S at ``points``; set ``result`` or the next points."""
        for sigma, value in zip(self.points, values):
            if not self._inside(sigma):
                continue
            if value > 1.0:
                self.lo, self.lo_seen = sigma, True
            else:
                self.hi, self.hi_seen = sigma, True
        if self.lo_seen and self.lo >= self.ceiling:
            self.result = UnboundedNormError(
                f"modular stays above 1 up to 2**{_MAX_DOUBLINGS}")
            return
        if self.hi_seen and self.hi <= self.floor:
            self.result = _negligible(self.tol)
            return
        if self.mode == "certify":
            # the result is the certification pair itself, never a Newton
            # iterate, whose I may lie within rounding of 1
            lo, hi = self.points
            if values[0] > 1.0 >= values[1] and math.exp(lo) < math.exp(hi):
                self._finish(lo, hi)
                return
            self.mode = "bisect"
        self.newton_steps += 1
        if self.newton_steps > _MAX_NEWTON:
            self.mode = "bisect"
        if self.mode == "bisect":
            if self.lo_seen and self.hi_seen:
                lam_lo, lam_hi = math.exp(self.lo), math.exp(self.hi)
                # a tol below double resolution ends when the midpoint's
                # lambda no longer lies strictly inside the bracket
                if (lam_hi - lam_lo <= self.tol * lam_hi
                        or not self._inside(0.5 * (self.lo + self.hi))):
                    self._finish(self.lo, self.hi)
                    return
            self.points = [self._bisection_point()]
            return
        (sigma,), (value,), (slope,) = self.points, values, slopes
        if 0.0 < value < math.inf and slope > 0.0:
            step = math.log(value) * value / slope
            target = sigma + step
            if abs(step) <= self.tol / 8.0:
                q = min(self.tol, 1.0) / 4.0
                self.points = [target + math.log1p(-q),
                               target + math.log1p(q)]
                self.mode = "certify"
                return
            if self.lo < target < self.hi and self._inside(target):
                self.points = [target]
                return
        self.points = [self._bisection_point()]


def _solve_group(group: list, results: list) -> None:
    """Run the searches of ``group``, (job index, _Search) pairs, in
    lockstep: each iteration evaluates every open job's points in one
    call.  Results go to ``results`` at the job's index."""
    while group:
        rows, sigmas, counts = [], [], []
        for _, search in group:
            for sigma in search.points:
                rows.append(search.rows)
                sigmas.append(sigma)
                counts.append(search.rows.shape[1])
        starts = np.cumsum([0] + counts[:-1])
        values, slopes = _evaluate(np.concatenate(rows, axis=1),
                                   np.repeat(sigmas, counts), starts)
        i = 0
        for k, search in group:
            n = len(search.points)
            search.update(values[i:i + n].tolist(), slopes[i:i + n].tolist())
            i += n
            if search.result is not None:
                results[k] = search.result
        group = [(k, search) for k, search in group if search.result is None]


def luxemburg_norms(jobs, p: ExponentFunction,
                    tol: float = 1e-10) -> list:
    """inf{lambda > 0 : modular(f/lambda) <= 1} for each (f, interval)
    job, in order; interval None means (x_min, 1].

    Each result is a NormValue with ``value == bracket[1]``, I(bracket[1])
    <= 1 < I(bracket[0]), bracket[0] < bracket[1], and relative bracket
    width ``tol`` at most the requested one (for a tol below double
    resolution, the width at which bisection in ln lambda finds no lambda
    strictly inside the bracket); (0, _LAM_MIN) when f is negligible,
    and 0 when f vanishes.  A job whose modular stays above 1 up to
    2**200 max(1, sup|f|) (at most e^_SIGMA_MAX, about 6.6e307) gets an
    UnboundedNormError in its slot (not
    raised), and its neighbours are unaffected.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    results: list = [None] * len(jobs)
    group, size = [], 0
    for k, (f, interval) in enumerate(jobs):
        segs = as_segments(f)
        sup = _sup_abs(segs)
        if sup == 0.0:
            results[k] = NormValue(0.0, 0.0, (0.0, 0.0))
            continue
        cells = _prepare(segs, p, interval)
        if cells.size == 0:
            results[k] = _negligible(tol)
            continue
        if group and size + cells.size > _GROUP_CELLS:
            _solve_group(group, results)
            group, size = [], 0
        group.append((k, _Search(cells.rows, sup, tol)))
        size += cells.size
    _solve_group(group, results)
    return results


def luxemburg_norm(f: FunctionLike, p: ExponentFunction,
                   interval: tuple[float, float] | None = None,
                   tol: float = 1e-10) -> NormValue:
    """inf{lambda > 0 : modular(f/lambda) <= 1}: ``luxemburg_norms`` on
    one job, raising UnboundedNormError for an unbounded one."""
    (result,) = luxemburg_norms([(f, interval)], p, tol)
    if isinstance(result, UnboundedNormError):
        raise result
    return result


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


def norms_of_inverse_x(p: ExponentFunction, grid, a_list,
                       delta: float = 1.0,
                       tol: float = 1e-10) -> list[NormValue]:
    """Luxemburg norms of x -> 1/x over (a, delta) for each a, solved
    together; raises the first UnboundedNormError."""
    inverse = 1.0 / grid.points
    jobs = []
    for a in a_list:
        if not (grid.x_min <= a < delta <= 1.0):
            raise ValueError("need x_min <= a < delta <= 1")
        jobs.append((SampledFunction(grid, inverse, interp="powerlaw",
                                     support=(a, delta)), (a, delta)))
    results = luxemburg_norms(jobs, p, tol)
    for result in results:
        if isinstance(result, UnboundedNormError):
            raise result
    return results


def norm_of_inverse_x(p: ExponentFunction, grid, a: float,
                      delta: float = 1.0, tol: float = 1e-10) -> NormValue:
    """Luxemburg norm of x -> 1/x over (a, delta)."""
    return norms_of_inverse_x(p, grid, [a], delta, tol)[0]
