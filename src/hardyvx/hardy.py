"""The Hardy averaging operator and Rayleigh-quotient machinery.

Two independent evaluation routes are provided for (1/x) * integral_0^x f:
the cumulative-integral route and the scaled route based on the identity
Hf(x)/x = integral_0^1 f(t x) dt, used to cross-validate quadrature.

The C1 sweep takes the quotient of a power member x^-beta in closed form,
1/(1 - beta) for every p, since Hf(x)/x = f(x)/(1 - beta).  It builds no
other average as a sampled function: each numerator is prepared from its
chunk's running totals, as ``grids._cumulative_integrals`` returns them,
divided by x and cut into cells from p's layout, ``GridExponent.layout``,
the one every modular job is cut from (``_average_cells``).
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
    _cumulative_integrals,
    as_segments,
    cumulative_integral,
    head_fit,
)
from . import lpnorm
from .lpnorm import (
    NormValue,
    UnboundedNormError,
    checked_norms,
    luxemburg_norm,  # bench/selftest.py reads hardy.luxemburg_norm
    luxemburg_norms,
    modular,
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
    "random_step_family",
    "ResolutionError",
]

logger = logging.getLogger(__name__)

# nodes of each t-grid of ``hardy_average_scaled``
T_NODES = 257
# spacing of the exponents beta of ``power_family``
BETA_STEP = 0.05
# deepest level j of the necessity family's blocks (2^-j-1, 2^-j)
NECESSITY_DEPTH = 33
# pieces of each ``random_step_family`` member
STEP_PIECES = 6


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


def _average_cells(fs: list, p: ExponentLike):
    """The prepared modular of x^-1 Hf over (x_min, 1] for each f in
    ``fs``, all on one grid, in order, as they are taken; a function
    whose head below x_min diverges gets its DivergentHeadError in its
    place.  The running totals of chunks of at most
    ``lpnorm._GROUP_CELLS`` segment rows come from one
    ``_cumulative_integrals`` pass each, and each chunk's averages are
    cut from p's layout in one ``lpnorm._gather_averages`` pass, so only
    one chunk is held at a time.  Each average is read from the
    first node of f's lowest segment's slice on, ``node_slice(lo, 1).start``
    for f's lowest support lo >= x_min, and node 0 for lo < x_min: the
    average is exactly 0 below that node, and at it for lo >= x_min."""
    if not fs:
        return
    grid = as_segments(fs[0])[0].grid
    p = on_grid(p, grid)

    def prepare(chunk):
        total, firsts, errors = _cumulative_integrals(chunk)
        ok = [k for k, error in enumerate(errors) if error is None]
        cells = iter(lpnorm._gather_averages(
            p, total[ok] / grid.points, firsts[ok]) if ok else ())
        for error in errors:
            yield error if error is not None else next(cells)

    chunk, size = [], 0
    for f in fs:
        n = len(as_segments(f)) * grid.n
        if chunk and size + n > lpnorm._GROUP_CELLS:
            yield from prepare(chunk)
            chunk, size = [], 0
        chunk.append(f)
        size += n
    if chunk:
        yield from prepare(chunk)


def _rayleigh_quotients(fs: list, denominators: list,
                        p: ExponentLike, tol: float) -> list:
    """Rayleigh quotients of each f in ``fs`` given its solved denominator
    ||f||: every numerator in one lockstep solve, which takes the
    averages' cells as ``_average_cells`` prepares them.  A failing f's
    slot holds its exception (ZeroDivisionError, DivergentHeadError or
    UnboundedNormError), stored without its traceback."""
    results = list(denominators)
    live = []
    for i, den in enumerate(results):
        if isinstance(den, UnboundedNormError):
            continue
        if den.value == 0.0:
            results[i] = ZeroDivisionError(
                "Rayleigh quotient of the zero function")
            continue
        live.append(i)
    averaged = []  # the indices of the averages the solver takes

    def averages():
        for i, cells in zip(live, _average_cells([fs[i] for i in live], p)):
            if isinstance(cells, DivergentHeadError):
                results[i] = cells
            else:
                averaged.append(i)
                yield cells

    numerators = lpnorm._solve(averages(), tol)
    for i, num in zip(averaged, numerators):
        den = results[i]
        results[i] = (num if isinstance(num, UnboundedNormError)
                      else QuotientResult(num.value / den.value, num, den))
    return results


def rayleigh_quotient(f: FunctionLike, p: ExponentLike,
                      tol: float = 1e-10) -> QuotientResult:
    """||x^-1 Hf|| / ||f|| in the Luxemburg norm over (x_min, 1]:
    ``_rayleigh_quotients`` on one f, raising its exception if it
    fails."""
    (result,) = _rayleigh_quotients([f], luxemburg_norms([(f, None)], p, tol),
                                    p, tol)
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
    p_minus, _, _ = p.bounds((0.0, 1.0))
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


def random_step_family(grid: LogGrid, seed: int = 0,
                       count: int = 8) -> list[FamilyMember]:
    """Random positive step functions of ``STEP_PIECES`` pieces on
    dyadic-scale partitions; none, logged, when the grid has fewer dyadic
    levels than the cuts."""
    depth = int(math.log2(1.0 / grid.x_min)) - 1
    if depth < STEP_PIECES:
        logger.info("leaving out the random-step family: %d dyadic levels "
                    "for %d cuts", max(depth - 1, 0), STEP_PIECES - 1)
        return []
    rng = np.random.default_rng(seed)
    members = []
    for m in range(count):
        cuts = np.sort(rng.choice(np.arange(1, depth), size=STEP_PIECES - 1,
                                  replace=False))
        edges = [grid.x_min * 2.0] + [2.0 ** -int(c) for c in cuts[::-1]] + [1.0]
        heights = rng.uniform(0.1, 10.0, size=STEP_PIECES)
        segs = []
        for (lo, hi), hgt in zip(zip(edges, edges[1:]), heights):
            segs.append(SampledFunction(grid, np.full(grid.n, hgt),
                                        support=(lo, hi)))
        members.append(FamilyMember(f"step:seed={seed}:m={m}", segs))
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
                              tol: float = 1e-10) -> OperatorNormResult:
    """Max Rayleigh quotient over a test family.

    A power member x^-beta takes one ``modular``, which decides whether
    it is in L^p(.) and gives its truncation bias; its quotient is
    exactly 1/(1 - beta), with a bracket of zero width.  The others are
    prepared in one stream by ``checked_norms``, which gives each
    modular and denominator; the denominators are solved in one lockstep
    batch, then the numerators in another.  Members with infinite
    modular, a divergent Hardy head, an unbounded norm or a zero norm on
    the grid are skipped and logged, in member order.  The reduction is a
    deterministic max; ties go to the earliest member.  An empty or fully
    skipped family gives a nan value and no argmax.  The result also
    carries the worst truncation_bias / value over every member whose
    modular was evaluated, skipped members included.
    """
    outcomes: list = [None] * len(members)  # (value, lo, hi) or skip reason
    p = on_grid(p, as_segments(members[0].f)[0].grid) if members else p
    power = [i for i, m in enumerate(members) if m.beta is not None]
    others = [i for i, m in enumerate(members) if m.beta is None]
    checked = ([(modular(members[i].f, p), None) for i in power]
               + checked_norms([members[i].f for i in others], p, tol))
    worst_bias = 0.0
    live, denominators = [], []
    for i, (mv, den) in zip(power + others, checked):
        if mv.finite and mv.value > 0.0:
            worst_bias = max(worst_bias, mv.truncation_bias / mv.value)
        if members[i].beta is not None and mv.finite and not math.isinf(
                mv.truncation_bias):
            outcomes[i] = (1.0 / (1.0 - members[i].beta),) * 3
        elif den is None:
            outcomes[i] = "infinite modular"
        else:
            live.append(i)
            denominators.append(den)
    results = _rayleigh_quotients([members[i].f for i in live], denominators,
                                  p, tol)
    for i, result in zip(live, results):
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
