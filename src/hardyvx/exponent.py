"""Exponent functions p(x) on (0,1) and their derived quantities.

All admissible families take values in [1, p_plus] with p_plus finite.
The two log-perturbed families are regularized so that they stay
admissible on the whole interval:

* ``LogPerturbed`` with sign ``+`` blows up as x -> 1, so its argument
  eta = ln(1/x) is floored at ``ETA_FLOOR``; the function is held
  constant on [exp(-ETA_FLOOR), 1).
* ``LogPerturbed`` with sign ``-`` is floored at 1 pointwise, which also
  keeps it nonincreasing.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Sequence, Union

import numpy as np

from .grids import LogGrid, _ranges

__all__ = [
    "ExponentFunction",
    "Constant",
    "LogPerturbed",
    "LogLogPerturbed",
    "PiecewiseConstant",
    "PiecewiseLinear",
    "DyadicJump",
    "Tabulated",
    "Germ",
    "conjugate_reciprocal",
    "log_phi",
    "GridExponent",
    "ExponentLike",
    "on_grid",
    "ETA_FLOOR",
    "EXP_GUARD",
]

# Depth floor for the "+" log-perturbed family: values are held constant
# on [exp(-ETA_FLOOR), 1) so that p_plus stays finite.
ETA_FLOOR = 0.125

# Largest exponent fed to exp() when evaluating powers in log space.
EXP_GUARD = 700.0


class DomainError(ValueError):
    """Argument outside the evaluation domain (0, 1]."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _check_domain(x: np.ndarray) -> None:
    if np.any(x <= 0.0) or np.any(x > 1.0):
        raise DomainError("exponent functions are evaluated on (0, 1]")


@dataclass(frozen=True)
class Germ:
    """What an exponent's parameters say about it near the origin."""

    p0: float  # the limit of p at the origin
    exact: bool  # False where p0 is only p's first sampled value
    # p's class on (0, delta), with delta the largest such: 1.0 when the
    # class holds on all of (0, 1); a constant p is nondecreasing
    monotone: str  # "nondecreasing" | "nonincreasing"
    delta: float
    # p is constant on (0, constant_below): 1.0 when p is constant
    constant_below: float


class ExponentFunction:
    """Base class for exponent families p: (0,1) -> [1, inf)."""

    def eval(self, x) -> np.ndarray:
        arr = _as_array(x)
        _check_domain(arr)
        out = self._eval(arr)
        return out if arr.shape else float(out)

    def _eval(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def germ(self) -> Germ:
        raise NotImplementedError

    def knots(self) -> tuple[float, ...]:
        """The points of (0, 1], increasing, between which p is monotone."""
        return ()

    def discontinuities(self) -> list[float]:
        """Interior points where p jumps; integration splits here."""
        return []

    def limit_at_origin(self) -> float:
        return self.germ().p0

    def monotonicity(self) -> str | None:
        """p's class on all of (0, 1), or None where it changes."""
        germ = self.germ()
        return germ.monotone if germ.delta == 1.0 else None

    def bounds(self, interval: tuple[float, float]) -> tuple[float, float]:
        """(p_minus, p_plus) on ``interval`` (subset of [0, 1]): p is
        monotone between its knots, so both are among p at the ends and
        at the knots inside, with p(0) at 0."""
        a, b = interval
        if not (0.0 <= a < b <= 1.0):
            raise DomainError("interval must satisfy 0 <= a < b <= 1")
        inner = self.eval(np.array([x for x in self.knots() if a < x < b]))
        vals = [*inner.tolist(), self.eval(b),
                self.eval(a) if a > 0.0 else self.germ().p0]
        return min(vals), max(vals)


@dataclass(frozen=True)
class Constant(ExponentFunction):
    p0: float

    def __post_init__(self):
        if self.p0 < 1.0:
            raise ValueError("constant exponent must satisfy p0 >= 1")

    def _eval(self, x):
        return np.full_like(x, self.p0)

    def germ(self):
        return Germ(self.p0, True, "nondecreasing", 1.0, 1.0)


@dataclass(frozen=True)
class LogPerturbed(ExponentFunction):
    """p(x) = p0 +/- c / (ln(1/x))**alpha, regularized (see module doc)."""

    p0: float
    c: float
    alpha: float
    sign: str = "+"

    def __post_init__(self):
        if self.p0 < 1.0 or self.c <= 0.0 or self.alpha <= 0.0:
            raise ValueError("require p0 >= 1, c > 0, alpha > 0")
        if self.sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")
        if self.sign == "+" and not math.isfinite(self._eval(np.ones(1))[0]):
            raise ValueError("p_plus = p0 + c/ETA_FLOOR**alpha must be a "
                             "finite double")

    def _eval(self, x):
        eta = -np.log(x)
        # eta**alpha past the largest double is inf, where c/eta**alpha
        # takes its limit 0
        if self.sign == "+":
            eta = np.maximum(eta, ETA_FLOOR)
            with np.errstate(over="ignore", divide="ignore"):
                return self.p0 + self.c / eta ** self.alpha
        with np.errstate(over="ignore", divide="ignore"):
            pert = np.where(eta > 0.0, self.c / np.maximum(eta, 1e-300) ** self.alpha,
                            np.inf)
        return np.maximum(1.0, self.p0 - pert)

    def germ(self):
        if self.sign == "+":
            return Germ(self.p0, True, "nondecreasing", 1.0, 0.0)
        # "-" floors p at 1, so p0 = 1 is p = 1 everywhere
        if self.p0 == 1.0:
            return Germ(1.0, True, "nondecreasing", 1.0, 1.0)
        return Germ(self.p0, True, "nonincreasing", 1.0, 0.0)


@dataclass(frozen=True)
class LogLogPerturbed(ExponentFunction):
    """p(x) = p0 + c * lnln(1/x)/ln(1/x) below exp(-e), held constant above."""

    p0: float
    c: float

    _KNEE = math.exp(-math.e)

    def __post_init__(self):
        if self.p0 < 1.0 or self.c <= 0.0:
            raise ValueError("require p0 >= 1 and c > 0")

    def _eval(self, x):
        eta = np.maximum(-np.log(np.minimum(x, self._KNEE)), math.e)
        return self.p0 + self.c * np.log(eta) / eta

    def germ(self):
        # ln(eta)/eta decreases in eta = ln(1/x) past eta = e, so p grows
        # with x up to the knee and is constant after it
        return Germ(self.p0, True, "nondecreasing", 1.0, 0.0)


def _check_breaks(breaks: Sequence[float]) -> tuple[float, ...]:
    bs = tuple(float(b) for b in breaks)
    if any(not (0.0 < b < 1.0) for b in bs):
        raise ValueError("breakpoints must lie strictly inside (0,1)")
    if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    return bs


class _Knotted(ExponentFunction):
    """An exponent constant below its first knot and monotone between
    consecutive knots; one that jumps at its knots is constant between
    them.  Its germ is read off p at the knots."""

    def germ(self):
        xs = self.knots()
        # p below the first knot is p(0)
        p0, *ps = self._eval(np.array([xs[0] / 2.0 if xs else 1.0,
                                       *xs])).tolist()
        # p changes on (x_i-1, x_i]: at x_i where it jumps there, else
        # right after x_i-1
        starts = xs if self.discontinuities() else (0.0, *xs[:-1])
        moves = [(x, q - q_prev)
                 for x, q_prev, q in zip(starts, [p0, *ps], ps) if q != q_prev]
        if not moves:
            return Germ(p0, True, "nondecreasing", 1.0, 1.0)
        first, step = moves[0]
        turn = next((x for x, d in moves if d * step < 0.0), 1.0)
        return Germ(p0, True, "nondecreasing" if step > 0.0
                    else "nonincreasing", turn, first)


class _Piecewise(_Knotted):
    def knots(self):
        return self.breakpoints


@dataclass(frozen=True)
class PiecewiseConstant(_Piecewise):
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", _check_breaks(self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != len(self.breakpoints) + 1:
            raise ValueError("need len(values) == len(breakpoints) + 1")
        if any(v < 1.0 for v in self.values):
            raise ValueError("all values must be >= 1")

    def _eval(self, x):
        idx = np.searchsorted(np.asarray(self.breakpoints), x, side="right")
        return np.asarray(self.values, dtype=float)[idx]

    def discontinuities(self):
        return list(self.breakpoints)


@dataclass(frozen=True)
class PiecewiseLinear(_Piecewise):
    """Linear interpolation through (breakpoints, values), held constant
    outside [breakpoints[0], breakpoints[-1]]."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", _check_breaks(self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != len(self.breakpoints):
            raise ValueError("need len(values) == len(breakpoints)")
        if len(self.values) < 2:
            raise ValueError("need at least two nodes")
        if any(v < 1.0 for v in self.values):
            raise ValueError("all values must be >= 1")

    def _eval(self, x):
        return np.interp(x, self.breakpoints, self.values)


@dataclass(frozen=True)
class DyadicJump(_Knotted):
    """p0 plus upward jumps gamma_k added cumulatively for x >= x_k.

    Scales must be strictly decreasing and the jump heights summable, so
    p stays bounded and nondecreasing.
    """

    p0: float
    gammas: tuple[float, ...]
    scales: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        if self.p0 < 1.0:
            raise ValueError("p0 must be >= 1")
        if len(self.gammas) != len(self.scales):
            raise ValueError("gammas and scales must have equal length")
        if any(g <= 0.0 for g in self.gammas):
            raise ValueError("jump heights must be positive")
        if any(not (0.0 < s < 1.0) for s in self.scales):
            raise ValueError("scales must lie in (0,1)")
        if any(s2 >= s1 for s1, s2 in zip(self.scales, self.scales[1:])):
            raise ValueError("scales must be strictly decreasing")

    def _eval(self, x):
        out = np.full_like(x, self.p0)
        for g, s in zip(self.gammas, self.scales):
            out = out + g * (x >= s)
        return out

    def knots(self):
        return self.scales[::-1]

    def discontinuities(self):
        return sorted(self.scales)


@dataclass(frozen=True)
class Tabulated(_Knotted):
    """Samples interpolated linearly in (ln x, p); clamped outside."""

    xs: tuple[float, ...]
    ps: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(float(v) for v in self.xs))
        object.__setattr__(self, "ps", tuple(float(v) for v in self.ps))
        if len(self.xs) != len(self.ps) or len(self.xs) < 2:
            raise ValueError("need matching sample arrays of length >= 2")
        if any(not (0.0 < v <= 1.0) for v in self.xs):
            raise ValueError("sample abscissae must lie in (0,1]")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError("sample abscissae must be strictly increasing")
        if any(v < 1.0 for v in self.ps):
            raise ValueError("all sampled values must be >= 1")

    def _eval(self, x):
        # _Knotted.germ's xs[0]/2 is 0 where xs[0] is the smallest double:
        # its ln is -inf, which np.interp clamps to ps[0] as it clamps every
        # x below xs[0] (clamping x itself to xs[0] would read the last ps
        # whose xs share ln xs[0])
        with np.errstate(divide="ignore"):
            return np.interp(np.log(x), np.log(self.xs), self.ps)

    def knots(self):
        return self.xs

    def germ(self):
        # p(0) is only known to be the first sample's value
        return replace(super().germ(), exact=False)


def conjugate_reciprocal(p: ExponentFunction, x) -> np.ndarray:
    """1/p'(x) = 1 - 1/p(x); returns 0 exactly where p = 1 (p' = inf)."""
    return 1.0 - 1.0 / p.eval(x)


def log_phi(p_x, ln_inv_x):
    """ln phi(x) = (1 - 1/p(x)) * ln(1/x), from p(x) and ln(1/x); grid
    callers pass -u so the nodes' exact log coordinates are reused."""
    return (1.0 - 1.0 / p_x) * ln_inv_x


class PieceLayout(NamedTuple):
    """The node slices of pieces (s, t) of p laid end to end: u = ln x
    and p at each position, p one-sided at the piece's jumps (arrays);
    per piece its first node, its first position, the position of its
    last cell, ln s and ln t (lists); and, in p's layout over (x_min, 1],
    the jumps where the pieces meet.  Within a piece, positions follow
    nodes one to one."""
    u: np.ndarray
    p: np.ndarray
    start: list
    first: list
    last: list
    ln_s: list
    ln_t: list
    jumps: tuple = ()


@dataclass(frozen=True, eq=False)
class GridExponent:
    """p sampled on one grid, as ``on_grid`` builds it: p and ln phi at
    the nodes, the jumps of p in increasing order with (p just below, p
    at) each, and the ``layout`` of p's pieces that every modular job is
    cut from."""

    p: ExponentFunction
    grid: LogGrid
    p_nodes: np.ndarray
    ln_phi: np.ndarray
    jumps: tuple  # the jumps d of p, increasing
    sides: tuple  # (p just below d, p at d) per jump

    def pieces(self, lo: float, hi: float) -> list[tuple[float, float]]:
        """Split (lo, hi) at the jumps of p: the (s, t) of each piece."""
        edges = [lo, *self.jumps[bisect.bisect_right(self.jumps, lo):
                                 bisect.bisect_left(self.jumps, hi)], hi]
        # a piece between two jumps whose logs round to one double has no
        # width in u, and no cell of it is integrated
        return [(s, t) for s, t in zip(edges, edges[1:])
                if math.log(s) < math.log(t)]

    def p_at(self, nodes: slice, s: float, t: float) -> np.ndarray:
        """p at the grid nodes ``nodes`` (a slice with a start) for the
        piece (s, t).  Where a jump of p lies at s or in the cell below
        it, the nodes below s carry that jump's value on the piece's side,
        and likewise at t and the cell above it, so cells straddling a
        jump integrate the piece's branch; only the nodes of the slice are
        touched, and only when such a jump lies inside it."""
        p_st = self.p_nodes[nodes]
        points, jumps = self.grid.points, self.jumps
        i = bisect.bisect_right(jumps, s) - 1  # the nearest jump <= s
        if i >= 0 and jumps[i] >= points[nodes.start]:
            k = int(points.searchsorted(s, "left"))  # the first node >= s
            if k > nodes.start and jumps[i] >= points[k - 1]:
                p_st = p_st.copy()
                p_st[:k - nodes.start] = self.sides[i][1]
        i = bisect.bisect_left(jumps, t)  # the nearest jump >= t
        if i < len(jumps) and jumps[i] <= points[nodes.stop - 1]:
            k = int(points.searchsorted(t, "left"))  # the first node >= t
            if k < nodes.stop and jumps[i] <= points[k]:
                p_st = p_st.copy()
                p_st[max(k - nodes.start, 0):] = self.sides[i][0]
        return p_st

    @cached_property
    def layout(self) -> PieceLayout:
        """The pieces of p over (x_min, 1] at the nodes of their
        ``node_slice``, with ``p_at``'s values, built on first use.  The
        pieces over any (lo, hi) inside are one run of its positions:
        moving the first s up to lo and the last t down to hi cuts their
        node slices and keeps their one-sided values."""
        grid = self.grid
        pieces = self.pieces(grid.x_min, 1.0)
        slices = [grid.node_slice(s, t) for s, t in pieces]
        starts = [nodes.start for nodes in slices]
        lengths = np.array([nodes.stop - nodes.start for nodes in slices])
        nodes, first = _ranges(np.array(starts), lengths)
        return PieceLayout(
            grid.u[nodes],
            np.concatenate([self.p_at(cut, s, t)
                            for cut, (s, t) in zip(slices, pieces)]),
            starts, first.tolist(), (first + lengths - 2).tolist(),
            [math.log(s) for s, _ in pieces], [math.log(t) for _, t in pieces],
            tuple(t for _, t in pieces[:-1]))

    @cached_property
    def inverse_x(self):
        """x^-1 on (x_min, 1] prepared from ``layout`` on first use
        (``lpnorm._inverse_x``): the row C1's Hardy averages end in and
        C2, C4 and C5's scales are slices of."""
        from .lpnorm import _inverse_x
        return _inverse_x(self)


ExponentLike = Union[ExponentFunction, GridExponent]


def on_grid(p: ExponentLike, grid: LogGrid) -> GridExponent:
    """p sampled on ``grid``: p itself when it already is, so each
    (p, grid) is sampled once however many callers pass it on."""
    if isinstance(p, GridExponent):
        if p.grid is grid:
            return p
        p = p.p
    p_nodes = p.eval(grid.points)
    at = np.array(sorted(p.discontinuities()))
    sides = ()
    if at.size:
        sides = zip(p.eval(at * (1.0 - 1e-15)).tolist(), p.eval(at).tolist())
    return GridExponent(p, grid, p_nodes, log_phi(p_nodes, -grid.u),
                        tuple(at.tolist()), tuple(sides))
