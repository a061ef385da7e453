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
from dataclasses import dataclass
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
    "MonotonicityClass",
    "conjugate_reciprocal",
    "phi",
    "log_phi",
    "GridExponent",
    "ExponentLike",
    "on_grid",
    "classify_monotonicity",
    "monotone_prefix",
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
class MonotonicityClass:
    """Monotonicity verdict for an exponent on an interval (0, eps)."""

    cls: str  # "nonincreasing" | "nondecreasing" | "nonmonotone"
    certified_on: tuple[float, float]
    exact: bool  # derived from family parameters rather than a grid scan
    constant: bool = False
    grid_points: int = 0


class ExponentFunction:
    """Base class for exponent families p: (0,1) -> [1, inf)."""

    def eval(self, x) -> np.ndarray:
        arr = _as_array(x)
        _check_domain(arr)
        out = self._eval(arr)
        return out if arr.shape else float(out)

    def _eval(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def limit_at_origin(self) -> float:
        raise NotImplementedError

    @property
    def origin_approximate(self) -> bool:
        """True when limit_at_origin is read off a finite sample set."""
        return False

    def discontinuities(self) -> list[float]:
        """Interior points where p jumps; integration splits here."""
        return []

    def monotonicity(self) -> str | None:
        """Exact global monotonicity class, or None if not derivable."""
        return None

    def is_constant(self) -> bool:
        return False

    def bounds(self,
               interval: tuple[float, float]) -> tuple[float, float, bool]:
        """(p_minus, p_plus, exact) on ``interval`` (subset of (0,1])."""
        a, b = interval
        if not (0.0 <= a < b <= 1.0):
            raise DomainError("interval must satisfy 0 <= a < b <= 1")
        a_eff = max(a, 1e-300)
        mono = self.monotonicity()
        if mono in ("nondecreasing", "nonincreasing"):
            lo = float(self._eval(_as_array(a_eff)))
            hi = float(self._eval(_as_array(b)))
            if mono == "nonincreasing":
                lo, hi = hi, lo
            # include interior jump values so half-open conventions cannot
            # clip the supremum
            for d in self.discontinuities():
                if a < d < b:
                    v = float(self._eval(_as_array(d)))
                    lo, hi = min(lo, v), max(hi, v)
            if a == 0.0:
                v0 = self.limit_at_origin()
                lo, hi = min(lo, v0), max(hi, v0)
            return lo, hi, True
        xs = _scan_points(a_eff, b, 10_000)
        vals = self._eval(xs)
        return float(vals.min()), float(vals.max()), False


def _scan_points(a: float, b: float, n: int) -> np.ndarray:
    return np.exp(np.linspace(math.log(a), math.log(b), n))


@dataclass(frozen=True)
class Constant(ExponentFunction):
    p0: float

    def __post_init__(self):
        if self.p0 < 1.0:
            raise ValueError("constant exponent must satisfy p0 >= 1")

    def _eval(self, x):
        return np.full_like(x, self.p0)

    def limit_at_origin(self):
        return self.p0

    def monotonicity(self):
        return "nondecreasing"

    def is_constant(self):
        return True


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

    def _eval(self, x):
        eta = -np.log(x)
        if self.sign == "+":
            eta = np.maximum(eta, ETA_FLOOR)
            return self.p0 + self.c / eta ** self.alpha
        with np.errstate(divide="ignore"):
            pert = np.where(eta > 0.0, self.c / np.maximum(eta, 1e-300) ** self.alpha,
                            np.inf)
        return np.maximum(1.0, self.p0 - pert)

    def limit_at_origin(self):
        return self.p0

    def monotonicity(self):
        return "nondecreasing" if self.sign == "+" else "nonincreasing"


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

    def limit_at_origin(self):
        return self.p0

    def monotonicity(self):
        # ln(eta)/eta decreases in eta = ln(1/x) past eta = e, so p grows
        # with x up to the knee and is constant after it
        return "nondecreasing"


def _check_breaks(breaks: Sequence[float]) -> tuple[float, ...]:
    bs = tuple(float(b) for b in breaks)
    if any(not (0.0 < b < 1.0) for b in bs):
        raise ValueError("breakpoints must lie strictly inside (0,1)")
    if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    return bs


class _Piecewise(ExponentFunction):
    def limit_at_origin(self):
        return self.values[0]

    def monotonicity(self):
        v = self.values
        if all(b >= a for a, b in zip(v, v[1:])):
            return "nondecreasing"
        if all(b <= a for a, b in zip(v, v[1:])):
            return "nonincreasing"
        return None

    def is_constant(self):
        return len(set(self.values)) == 1


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
class DyadicJump(ExponentFunction):
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

    def limit_at_origin(self):
        return self.p0

    def discontinuities(self):
        return sorted(self.scales)

    def monotonicity(self):
        return "nondecreasing"


@dataclass(frozen=True)
class Tabulated(ExponentFunction):
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
        return np.interp(np.log(x), np.log(self.xs), self.ps)

    def limit_at_origin(self):
        return self.ps[0]

    @property
    def origin_approximate(self):
        return True


def conjugate_reciprocal(p: ExponentFunction, x) -> np.ndarray:
    """1/p'(x) = 1 - 1/p(x); returns 0 exactly where p = 1 (p' = inf)."""
    return 1.0 - 1.0 / p.eval(x)


def log_phi(p_x, ln_inv_x):
    """ln phi(x) = (1 - 1/p(x)) * ln(1/x), from p(x) and ln(1/x); grid
    callers pass -u so the nodes' exact log coordinates are reused."""
    return (1.0 - 1.0 / p_x) * ln_inv_x


def phi(p: ExponentFunction, t) -> np.ndarray:
    """Kernel phi(t) = t**(-1/p'(t)), computed in log space."""
    arr = _as_array(t)
    _check_domain(arr)
    expo = log_phi(p._eval(arr), -np.log(arr))
    if np.any(expo > EXP_GUARD):
        raise OverflowError("phi exceeds the representable range")
    out = np.exp(expo)
    return out if arr.shape else float(out)


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
        return list(zip(edges, edges[1:]))

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


def classify_monotonicity(p: ExponentFunction, eps: float,
                          n_scan: int = 10_000) -> MonotonicityClass:
    """Monotonicity class of p on (0, eps).

    Exact for symbolic families; a geometric grid scan otherwise.  A
    constant exponent reports nondecreasing with the ``constant`` flag.
    """
    if not (0.0 < eps <= 1.0):
        raise DomainError("eps must lie in (0, 1]")
    if p.is_constant():
        return MonotonicityClass("nondecreasing", (0.0, eps), True, constant=True)
    mono = p.monotonicity()
    if mono is not None:
        return MonotonicityClass(mono, (0.0, eps), True)
    xs = _scan_points(max(1e-14, eps * 1e-12), eps * (1 - 1e-12), n_scan)
    d = np.diff(p._eval(xs))
    if np.all(d >= 0):
        cls = "nondecreasing"
    elif np.all(d <= 0):
        cls = "nonincreasing"
    else:
        cls = "nonmonotone"
    return MonotonicityClass(cls, (0.0, eps), False, grid_points=n_scan)


def monotone_prefix(p: ExponentFunction, x_min: float = 1e-12,
                    n_scan: int = 10_000) -> float:
    """Largest delta such that p is nondecreasing on (0, delta).

    Returns 1.0 when p is nondecreasing on all of (0,1); used to localize
    criterion integrals for exponents that are only monotone near 0.
    """
    if p.monotonicity() == "nondecreasing" or p.is_constant():
        return 1.0
    xs = _scan_points(x_min, 1.0 - 1e-12, n_scan)
    vals = p._eval(xs)
    bad = np.nonzero(np.diff(vals) < 0)[0]
    if bad.size == 0:
        return 1.0
    return float(xs[bad[0]])
