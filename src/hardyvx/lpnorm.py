"""The modular I_{p(.)} and the Luxemburg norm on (x_min, 1].

The modular integrand |f(x)/lambda|**p(x) is always assembled in log
space as exp(p(x) * (ln|f(x)| - sigma)), sigma = ln lambda, with |f| = 0
contributing 0.  Integration splits at exponent discontinuities and at
segment support boundaries, so piecewise power data is integrated
exactly.  ``_prepare`` turns functions into sigma-independent cell
rows, once per f and a batch of functions at a time.  Every f is cut
from one layout of p, ``GridExponent.layout``: the node slices of p's
pieces over (x_min, 1] laid end to end, built once per (p, grid).  Each
segment of f, its support clipped to (x_min, 1], is one run of its
positions (``_locate``); ``_cut`` cuts a batch of such rows for the one
cell builder, ``_cells``.  x^-1 on (x_min, 1] is cut once per (p, grid)
too (``GridExponent.inverse_x``), and every row of the shape I/x is read
from it: past its support, each of C1's Hardy averages x^-1 Hf is I/x,
so only its running totals over f's own nodes are cut, and its tail
takes x^-1's cells with a = p ln(I/x) + u (``_average_cells``); each
scale (a, delta) of C2, C4 and C5 is a slice of x^-1's cells, clipped
at both ends (``inverse_x_scales``).  For each cell of a piece's node
slice, with the piece clipped into it, the exponent E = p ln|f| + u -
sigma p (u = ln x) at both clipped ends is a - sigma q, so the cell
integral is the grid's log-space cell formula ``_exp_cells`` of two such
values, two transcendentals per cell.  Cells where f vanishes at both
ends integrate to 0 at every sigma and are dropped; the few cells with
one zero end are linear in |f/lambda|**p, so each is a constant times
its nonzero end, stored as a one-exponent cell.  ``_evaluate``
integrates many such (cells, sigma) rows in one vectorised call, so
neither ``SampledFunction`` nor ``integrate`` appears in a norm solve.
For sigma below a row's guard, where a node's exponent E would exceed
EXP_GUARD, I is inf, and no such sigma is evaluated.

Every norm comes from one lockstep solver, ``_solve``, which
``luxemburg_norms`` feeds, and C1's ``quotient_norms`` too: each test
function's cells and then each of its Hardy averages', in one stream.
I(e^sigma) is convex and decreasing in sigma, and so is ln I, so a
Newton iteration on ln I(sigma) = 0 converges in a few steps.  Its slope
is the cell sum of mean p times the cell integral (exact for p constant
on each cell); it only steers, because each job keeps its own certified
bracket, takes a bisection step whenever a Newton step would leave it or
I is inf or 0, and ends with two evaluations at lambda * (1 -+ tol/4)
that certify I(hi) <= 1 < I(lo), or else with plain bisection; a slope
too large for a double (p near 1e300) is no Newton step either.

One rule cuts the stream, ``_batches``: items in order, in lists of at
most ``_GROUP_CELLS`` by size, a larger item alone.  Functions are
prepared in such batches by node count.  The solver takes the prepared
jobs in batches by cell count and collapses each batch in one pass
(``_collapse``): every run of cells that have one exponent q at both
ends and as mean p, read from the rows, scales exactly as e^(-sigma q),
so it becomes one cell holding its sum at sigma = 0, in each job where
that drops at least a quarter of its cells.  A constant or step p so
costs a few cells per norm, not the whole grid.  The collapsed jobs
are solved in order in lockstep groups, batched again by cell count,
each group evaluating all its jobs' current points together.  So a
solve holds one raw batch and one group of at most ``_GROUP_CELLS``
cells each, besides ``_prepare``'s batch.  A job's cut, collapse and
search never depend on the batch or group it shares.  The modular, its
truncation bias and ``inverse_x_scales``' reads of C2 and C4, which
stream into ``_solve`` only for C5, take the raw rows.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exponent import (EXP_GUARD, ExponentLike, GridExponent, PieceLayout,
                       on_grid)
from .grids import (
    DivergentHeadError,
    FunctionLike,
    _cumulative_integrals,
    _exp_cells,
    _lerp,
    _linear_cells,
    _ranges,
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
    "quotient_norms",
    "bracket_check",
    "inverse_x_scales",
]

# the default relative width of a certified norm bracket (``norm_tol``)
NORM_TOL = 1e-10
# the budget of ``_batches``: nodes per preparation batch, and cells per
# raw batch and per lockstep group; large enough to amortise numpy's
# per-call cost over many jobs, small enough that the temporaries stay a
# small share of peak memory; batches and groups never change a result
_GROUP_CELLS = 8192
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


class _Cells(NamedTuple):
    """The prepared modular of one f.  ``rows`` holds, per kept cell,
    a_s, q_s, a_t, q_t, dt and mean p, so that the cell's integral at
    sigma is ``_exp_cells(a_s - sigma q_s, a_t - sigma q_t, dt)``.  I is
    inf for sigma below ``guard``, where some node's exponent p (ln|f| -
    sigma) + u exceeds EXP_GUARD.  ``sup`` is sup|f| over the nodes in f's
    support that the cells read, and ``heads`` holds, for each piece that
    reaches x_min while f's support goes below it, |f|**p at the grid's
    first two nodes, for the head fit."""
    rows: np.ndarray  # shape (6, cells)
    guard: float
    sup: float
    heads: list

    @property
    def size(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class ModularValue:
    value: float  # may be math.inf
    truncation_bias: float = 0.0

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


@dataclass(frozen=True)
class NormValue:
    value: float
    tol: float
    bracket: tuple[float, float]


def _batches(items, size):
    """``items`` in order, in lists whose ``size`` adds up to at most
    ``_GROUP_CELLS`` (an item larger than that alone): the one rule by
    which preparation, collapse and the lockstep groups take a stream."""
    batch, total = [], 0
    for item in items:
        n = size(item)
        if batch and total + n > _GROUP_CELLS:
            yield batch
            batch, total = [], 0
        batch.append(item)
        total += n
    if batch:
        yield batch


def _prepare(fs, p: ExponentLike):
    """The prepared modular of each f of ``fs``, in order.  Each segment
    of f, its support clipped to (x_min, 1] as (lo, hi), is one row of
    ``_cut``: f at the nodes of ``node_slice(lo, hi)``, held by the pieces
    of p's layout from k0 = bisect_right(jumps, lo) to k1 =
    bisect_left(jumps, hi), for the jumps where the layout's pieces meet.
    Functions are taken in ``_batches`` by node count, each cut in one
    pass per run of functions on one grid, so only one batch's arrays
    are held at a time."""

    def jobs(p):
        for f in fs:
            segs = as_segments(f)
            p = on_grid(p, segs[0].grid)
            job = []
            for seg in segs:
                lo, hi = seg.effective_support()
                row = _locate(p, lo, hi)
                if row is not None:
                    k0, k1, cut, ln_lo, ln_hi = row
                    job.append((k0, k1, cut.start, cut.stop, ln_lo, ln_hi,
                                seg.values[cut], lo, hi, lo < p.grid.x_min))
            yield p, job

    for batch in _batches(jobs(p), lambda item: sum(
            row[3] - row[2] for row in item[1])):
        for q, run in itertools.groupby(batch, key=lambda item: item[0]):
            yield from _cut(q, [job for _, job in run])


def _locate(p: GridExponent, lo: float, hi: float):
    """(k0, k1, cut, ln lo, ln hi): the pieces k0 to k1 of p's layout at the
    nodes of ``cut = node_slice(lo, hi)`` that hold (lo, hi) clipped to
    (x_min, 1], or None where that has no width in u."""
    grid, layout = p.grid, p.layout
    lo, hi = max(lo, grid.x_min), min(hi, 1.0)
    ln_lo, ln_hi = math.log(lo), math.log(hi)
    if ln_lo >= ln_hi:
        return None
    cut = grid.node_slice(lo, hi)
    k0 = bisect.bisect_right(layout.jumps, lo)
    k1 = bisect.bisect_left(layout.jumps, hi)
    # an end within rounding of a jump that lies on a node leaves a sliver
    # of no width in u between them, where the row would hold one node of
    # the jump's far piece (at or past that piece's last node, or at or
    # before its first): start or stop the row in the piece beyond it
    if cut.start >= layout.start[k0] + layout.last[k0] - layout.first[k0] + 1:
        k0 += 1
    if cut.stop - 1 <= layout.start[k1]:
        k1 -= 1
    return k0, k1, cut, ln_lo, ln_hi


class _InverseX(NamedTuple):
    """x^-1 on (x_min, 1] prepared once per (p, grid), and what every row
    of the shape I/x shares with it: q_s, q_t, dt and mean p (its rows 1,
    3, 4 and 5), each cell's left layout position, x and (u -
    EXP_GUARD)/p at each position, and each piece's first and last cell
    with the lerp weight of s and t there."""
    cells: _Cells
    left: np.ndarray
    x: np.ndarray
    shift: np.ndarray
    corners: tuple  # (first cells, w_s, last cells, w_t)


def _inverse_x(p: GridExponent) -> _InverseX:
    """The ``_InverseX`` of p: every pair of positions within a piece is a
    cell of x^-1, cut from the whole layout in one ``_cut``."""
    grid, layout = p.grid, p.layout
    (cells,) = _cut(p, [[(0, len(layout.first) - 1, 0, grid.n, grid.u[0],
                          0.0, 1.0 / grid.points, grid.x_min, 1.0, False)]])
    u, first, last = layout.u, np.array(layout.first), np.array(layout.last)
    left = np.delete(np.arange(u.size - 1), first[1:] - 1)
    nodes, _ = _ranges(np.array(layout.start), last - first + 2)
    return _InverseX(cells, left, grid.points[nodes],
                     (u - EXP_GUARD) / layout.p,
                     (left.searchsorted(first),
                      _clip(layout.ln_s, u[first], u[first + 1])[1],
                      left.searchsorted(last),
                      _clip(layout.ln_t, u[last], u[last + 1])[1]))


def _average_cells(fs: list, p: GridExponent):
    """The prepared modular of x^-1 Hf over (x_min, 1] for each f in
    ``fs``, all on p's grid, in order, or f's DivergentHeadError where its
    head below x_min diverges.  f's running totals over its own nodes, s
    (below which x^-1 Hf is 0) to e, divided by x, are cut from p's layout
    in one ``_cut``, from the first piece whose last node lies above s to
    the last one starting below e.  Past e, x^-1 Hf is I/x, I = Hf(e): the
    tail is x^-1's cells (``_InverseX``) from e's position in the first
    piece whose last node lies above e, with a = p ln(I/x) + u and the
    guard terms in ``_cells``'s float operations, so each row is bit for
    bit the one the whole grid gives.  Tails are built in ``_batches`` by
    cell count."""
    grid, layout, inverse = p.grid, p.layout, p.inverse_x
    totals, firsts, lengths, errors = _cumulative_integrals(fs)
    ends = np.add(layout.start, layout.last) - layout.first + 1  # last nodes
    lasts = firsts + lengths - 1
    k0 = ends.searchsorted(firsts, "right").tolist()
    k1 = (np.searchsorted(layout.start, lasts) - 1).tolist()
    own = iter(_cut(p, [
        [(k0[k], k1[k], s, e + 1, grid.u[s], layout.ln_t[k1[k]],
          totals[k, :e + 1 - s] / grid.points[s:e + 1], 0.0, math.inf,
          False)]
        for k, (s, e) in enumerate(zip(firsts.tolist(), lasts.tolist()))
        if errors[k] is None]))
    # each tail's first position and cell; none where I = 0 or e is 1
    u, pn, end, whole = layout.u, layout.p, layout.u.size, inverse.left.size
    integral = totals[np.arange(len(fs)), lengths - 1]
    kt = np.minimum(ends.searchsorted(lasts, "right"), len(ends) - 1)
    at = np.take(layout.first, kt) + lasts - np.take(layout.start, kt)
    at = np.where((integral > 0.0) & (lasts < grid.n - 1), at, end)
    cell = inverse.left.searchsorted(at)
    for batch in _batches(range(len(fs)), lambda k: whole - cell[k]):
        out = [errors[k] or next(own) for k in batch]
        tails = [n for n, k in enumerate(batch) if cell[k] < whole]
        if not tails:
            yield from out
            continue
        members = np.take(batch, tails)
        c, i, sizes = cell[members], at[members], whole - cell[members]
        # each average's own cells, then x^-1's from its tail's first
        rows = np.concatenate([part for n, c_n in zip(tails, c.tolist())
                               for part in (out[n].rows,
                                            inverse.cells.rows[:, c_n:])],
                              axis=1)
        bounds = np.cumsum(np.add([out[n].size for n in tails], sizes))
        origin = bounds - sizes  # each tail's first column
        nodes, starts = _ranges(i, end - i)
        ln_f = np.log(np.repeat(integral[members], end - i)
                      / inverse.x[nodes])
        guards = np.maximum.reduceat(ln_f + inverse.shift[nodes], starts)
        a, shift = pn[nodes] * ln_f + u[nodes], starts - i
        cells, _ = _ranges(c, sizes)
        cols = cells + np.repeat(origin - c, sizes)
        left = inverse.left[cells] + np.repeat(shift, sizes)
        rows[0, cols], rows[2, cols] = a[left], a[left + 1]
        at_s, w_s, at_t, w_t = inverse.corners
        for row, corner, w in ((0, at_s, w_s), (2, at_t, w_t)):
            m, k = (corner >= c[:, None]).nonzero()
            left = inverse.left[corner[k]] + shift[m]
            rows[row, origin[m] + corner[k] - c[m]] = _lerp(
                a[left], a[left + 1], w[k])
        for n, b, e, guard in zip(tails, [0, *bounds.tolist()],
                                  bounds.tolist(), guards.tolist()):
            out[n] = _Cells(rows[:, b:e], max(out[n].guard, guard),
                            out[n].sup, [])
        yield from out


def _cut(p: GridExponent, batch: list) -> list[_Cells]:
    """The cells of each job of ``batch``, a list of rows cut from
    ``p.layout``, in one ``_cells`` pass.  A row (k0, k1, start, stop, ln
    s, ln t, f, lo, hi, head) is f at the grid nodes start to stop - 1,
    which the layout's pieces k0 to k1 hold as one run of positions, the
    first piece from ln s and the last to ln t.  A piece's end node outside
    f's support (lo, hi) is left out of sup|f|, and the first piece of a
    row with ``head`` set goes to the head fit.  u and p are slices of the
    layout's, and each piece's f a slice of the row's."""
    layout, x = p.layout, p.grid.points
    start, first, last, ln_s, ln_t = [], [], [], [], []
    f, outside, heads, runs, counts = [], [], [], [], []
    offset = 0
    for job in batch:
        counts.append(0)
        for k0, k1, node, stop, s, t, values, lo, hi, head in job:
            if head:
                heads.append(len(first))
            # the row's positions i to j - 1: within a piece, positions
            # follow nodes one to one
            i = layout.first[k0] + node - layout.start[k0]
            j = layout.first[k1] + stop - layout.start[k1]
            runs.append((i, j))
            shift = offset - i
            starts = [node] + layout.start[k0 + 1:k1 + 1]
            firsts = [offset] + [layout.first[k] + shift
                                 for k in range(k0 + 1, k1 + 1)]
            lasts = [layout.last[k] + shift for k in range(k0, k1)]
            lasts.append(offset + j - i - 2)
            for n, a, b in zip(starts, firsts, lasts):
                f.append(values[n - node:n - node + b - a + 2])
                # only a piece's end nodes can lie outside f's support,
                # which contains [s, t]
                if x.item(n) < lo:
                    outside.append(a)
                if x.item(n + b - a + 1) > hi:
                    outside.append(b + 1)
            start += starts
            first += firsts
            last += lasts
            ln_s += [s] + layout.ln_s[k0 + 1:k1 + 1]
            ln_t += layout.ln_t[k0:k1] + [t]
            counts[-1] += k1 - k0 + 1
            offset += j - i
    if not runs:
        return [_Cells(np.empty((6, 0)), -math.inf, 0.0, []) for _ in batch]
    u, pn = (np.concatenate([v[i:j] for i, j in runs])
             for v in (layout.u, layout.p))
    return _cells(PieceLayout(u, pn, start, first, last, ln_s, ln_t),
                  np.concatenate(f), counts, outside, heads)


def _cells(layout: PieceLayout, f: np.ndarray, counts: list, outside,
           heads) -> list[_Cells]:
    """The cells of jobs whose pieces, ``counts[j]`` of them for job j,
    are laid out in ``layout``, f at each position: every pair of
    adjacent positions is a cell, and the pairs that join two pieces are
    dropped at the end.  ``outside`` holds the positions left out of
    sup|f|, and ``heads`` the pieces whose |f|**p at their first two
    nodes go to the head fit.

    E = p ln|f| + u - sigma p is lerped to [s, t] clipped into each cell,
    which differs from the nodes only in each piece's first and last
    cell.  Cells with f = 0 at both ends integrate to 0 at every sigma and
    are dropped.  On a cell with one zero end |f/lambda|**p is linear in
    u, so its integral is c |f/lambda|**p at the other end, c =
    ``_linear_cells`` of the 0-1 end pattern: the single exponent ln c +
    p ln|f| - sigma p, stored as a cell of width 1.  Each piece's guard
    and sup|f| come from one ``reduceat`` each."""
    u, pn = layout.u, layout.p
    i_0, i_1 = np.array((layout.first, layout.last))
    abs_f = np.abs(f)
    nz = abs_f != 0.0
    ln_f = np.log(abs_f, out=np.full(f.shape, -math.inf), where=nz)
    # E = p (ln|f| - sigma) + u passes EXP_GUARD for sigma below this
    guards = np.maximum.reduceat(ln_f + (u - EXP_GUARD) / pn, i_0).tolist()
    pl = pn * ln_f  # -inf where f = 0, on cells that are replaced below
    a = pl + u
    # each piece's first and last cell, with [s, t] clipped into it: the
    # lerps of E's node values, where a lerp of ln 0 = -inf is a silent nan
    # or -inf, on a cell dropped or replaced below
    s_0, w_s = _clip(layout.ln_s, u[i_0], u[i_0 + 1])
    t_n, w_t = _clip(layout.ln_t, u[i_1], u[i_1 + 1])
    with np.errstate(invalid="ignore"):
        a_s, a_t = _lerp(a[i_0], a[i_0 + 1], w_s), _lerp(a[i_1], a[i_1 + 1],
                                                       w_t)
    p_s, p_t = _lerp(pn[i_0], pn[i_0 + 1], w_s), _lerp(pn[i_1], pn[i_1 + 1],
                                                     w_t)
    if outside:
        abs_f[outside] = 0.0
    sups = np.maximum.reduceat(abs_f, i_0).tolist()
    cs, ct = u[:-1].copy(), u[1:].copy()
    cs[i_0], ct[i_1] = s_0, t_n
    # the cells kept: the pairs of nodes within a piece where f is not 0
    # at both ends, less the one-zero-end cells of zero width
    nz_s, nz_t = nz[:-1], nz[1:]
    kept = nz_s | nz_t
    kept[i_0[1:] - 1] = False  # the pairs that join two pieces
    one = i_0[:0]  # the cells with one zero end
    if not nz.all():
        one = (nz_s ^ nz_t).nonzero()[0]
        one = one[kept[one]]
        left_nz, right_nz = nz_s[one], nz_t[one]
        cs_1, ct_1, u_0 = cs[one], ct[one], u[one]
        h = u[one + 1] - u_0
        c = _linear_cells(_lerp(left_nz, right_nz, (cs_1 - u_0) / h),
                          _lerp(left_nz, right_nz, (ct_1 - u_0) / h),
                          cs_1, ct_1, True)
        # c = 0 on a cell of zero width
        width = c > 0.0
        kept[one[~width]] = False
        one, left_nz, c = one[width], left_nz[width], c[width]
    # each cell's pair and nodes, and the columns each piece's cells span
    cells = kept.nonzero()[0]
    left, right = cells, cells + 1
    col_0, col_1 = cells.searchsorted(i_0), cells.searchsorted(i_1, "right")
    at_0, at_1 = kept[i_0], kept[i_1]
    one_at = cells.searchsorted(one)
    rows = np.empty((6, cells.size))
    rows[0], rows[1], rows[2], rows[3] = a[left], pn[left], a[right], pn[right]
    np.subtract(ct[cells], cs[cells], out=rows[4])
    rows[5] = 0.5 * (rows[1] + rows[3])
    rows[0, col_0[at_0]], rows[1, col_0[at_0]] = a_s[at_0], p_s[at_0]
    rows[2, col_1[at_1] - 1], rows[3, col_1[at_1] - 1] = a_t[at_1], p_t[at_1]
    if one.size:
        e = np.where(left_nz, pl[one], pl[one + 1]) + np.log(c)
        q = np.where(left_nz, pn[one], pn[one + 1])
        rows[0, one_at], rows[1, one_at], rows[2, one_at] = e, q, e
        rows[3, one_at], rows[4, one_at] = q, 1.0
    col_0, col_1 = col_0.tolist(), col_1.tolist()
    weights = {}
    if heads:
        # |f|**p at the grid's first two nodes, all the head fit reads
        two = [i for k in heads
               for i in (layout.first[k], layout.first[k] + 1)]
        w = np.exp(np.minimum(pl[two], EXP_GUARD)).tolist()
        weights = {k: (w[2 * n], w[2 * n + 1]) for n, k in enumerate(heads)}
    out, k = [], 0
    for count in counts:
        j = k + count
        out.append(_Cells(rows[:, col_0[k]:col_1[j - 1]] if j > k
                          else rows[:, :0],
                          max(guards[k:j], default=-math.inf),
                          max(sups[k:j], default=0.0),
                          [weights[i] for i in range(k, j) if i in weights]))
        k = j
    return out


def _clip(ln, u_0, u_1):
    """ln clipped into each cell [u_0, u_1], and its lerp weight there."""
    c = np.minimum(np.maximum(ln, u_0), u_1)
    return c, (c - u_0) / (u_1 - u_0)


def _integrals(rows: np.ndarray, sigma) -> np.ndarray:
    """The integral of |f/e^sigma|**p over each cell of ``rows``; sigma
    lies at or above the rows' guard."""
    a_s, q_s, a_t, q_t, dt, _ = rows
    return _exp_cells(a_s - sigma * q_s, a_t - sigma * q_t, dt)


def _evaluate(rows: np.ndarray, sigma, starts: np.ndarray):
    """The modular I of f/e^sigma and the Newton slope S (the sum of mean
    p times the cell integral, so dI/dsigma ~ -S) for each row of cells
    starting at ``starts``; ``sigma`` is given per cell and lies at or
    above each row's guard.  I stays finite there, but S overflows to inf
    where mean p times I passes the largest double (p near 1e300), which
    ``_Search`` takes as no Newton step."""
    cells = _integrals(rows, sigma)
    with np.errstate(over="ignore"):
        slopes = np.add.reduceat(rows[5] * cells, starts)
    return np.add.reduceat(cells, starts), slopes


def modular(f: FunctionLike, p: ExponentLike) -> ModularValue:
    """integral of |f(x)|**p(x) dx over (x_min, 1].

    The truncation bias is the head below x_min, estimated with the grid's
    two-point power fit of the integrand."""
    segs = as_segments(f)
    (cells,) = _prepare([segs], p)
    return _modular(cells, segs[0].grid)


def _modular(cells: _Cells, grid) -> ModularValue:
    """The modular of prepared cells, with its truncation bias."""
    if cells.guard > 0.0:
        return ModularValue(math.inf)
    # ``_evaluate``'s summation, without its slope
    value = (float(np.add.reduceat(_integrals(cells.rows, 0.0), [0])[0])
             if cells.size else 0.0)
    bias = 0.0
    for w_0, w_1 in cells.heads:
        try:
            bias += head_integral(w_0, w_1, grid)
        except DivergentHeadError:
            bias = math.inf
    return ModularValue(value, bias)


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
    lambda.  ``point`` is the sigma to evaluate next, never below the
    guard: I is inf there, which the search takes without evaluating it.
    ``result`` is set when the job ends.
    """

    def __init__(self, cells: _Cells, tol: float):
        self.cells, self.tol = cells, tol
        top = math.log(max(1.0, cells.sup))
        self.floor = math.log(_LAM_MIN)
        self.ceiling = min(top + _MAX_DOUBLINGS * math.log(2.0), _SIGMA_MAX)
        self.lo, self.hi = self.floor, self.ceiling
        self.lo_seen = self.hi_seen = False
        self.mode, self.newton_steps = "newton", 0
        self.result = None
        # I at the certification pair's lower point, once evaluated
        self.below = None
        # start at max(1, sup|f|), or past the smallest sigma at which no
        # node overflows EXP_GUARD, clear of that bound's rounding: for p
        # near 1e300 the exponent a - sigma q of a cell can round up by
        # 1e284 at the guard itself
        clear = cells.guard + 1e-9 * (1.0 + abs(cells.guard))
        self.point = min(max(top, clear), self.ceiling)
        if self.point < cells.guard:  # the whole range lies below it
            self.update(math.inf, 0.0)

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

    def update(self, value: float, slope: float) -> None:
        """Take (I, S) at ``point``, and I = inf, unevaluated, at each
        next point below the guard; set ``result`` or the next point."""
        self._take(value, slope)
        while self.result is None and self.point < self.cells.guard:
            self._take(math.inf, 0.0)

    def _take(self, value: float, slope: float) -> None:
        sigma = self.point
        if self._inside(sigma):
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
            lo, hi = self.pair
            if self.below is None:
                # both points move the bracket before the pair is judged
                self.below, self.point = value, hi
                return
            # the result is the certification pair itself, never a Newton
            # iterate, whose I may lie within rounding of 1
            if self.below > 1.0 >= value and math.exp(lo) < math.exp(hi):
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
            self.point = self._bisection_point()
            return
        if 0.0 < value < math.inf and 0.0 < slope < math.inf:
            step = math.log(value) * value / slope
            target = sigma + step
            if abs(step) <= self.tol / 8.0:
                q = min(self.tol, 1.0) / 4.0
                self.pair = (target + math.log1p(-q), target + math.log1p(q))
                self.point, self.mode = self.pair[0], "certify"
                return
            if self.lo < target < self.hi and self._inside(target):
                self.point = target
                return
        self.point = self._bisection_point()


def _solve_group(group: list, results: list) -> None:
    """Run the searches of ``group``, (job index, _Search) pairs, in
    lockstep: each iteration evaluates every open job's point together,
    in one ``_evaluate``.  The open jobs' rows are concatenated once, and
    again only when jobs end.  Results go to ``results`` at the job's
    index."""
    while group:
        searches = [search for _, search in group]
        rows = np.concatenate([search.cells.rows for search in searches],
                              axis=1)
        counts = [search.cells.size for search in searches]
        starts = np.cumsum([0] + counts[:-1])
        while all(search.result is None for search in searches):
            values, slopes = _evaluate(
                rows, np.repeat([search.point for search in searches],
                                counts), starts)
            for search, value, slope in zip(searches, values.tolist(),
                                            slopes.tolist()):
                search.update(value, slope)
        for k, search in group:
            if search.result is not None:
                results[k] = search.result
        group = [(k, search) for k, search in group if search.result is None]


def _collapse(batch: list) -> list:
    """``batch``, (job index, _Cells) pairs, with each run of two or more
    adjacent cells that have one exponent q (q_s, q_t and mean p all
    equal to q) replaced by one cell, in every job where that drops at
    least a quarter of its cells.  On such a run I(sigma) is
    e^(-sigma q) times its value at sigma = 0, and its slope q times
    that, so the run is the one-exponent cell a_s = a_t = m, q_s = q_t =
    mean p = q and dt = the run's sum at sigma = 0 scaled by e^-m, m the
    run's largest exponent: ``_exp_cells(m - sigma q, m - sigma q, dt)``
    is its sum at every sigma, and m - sigma q rounds as the raw cells'
    own exponents do.  The jobs are collapsed in one pass; a run never
    crosses a job, so a job collapses alike alone or in any batch, and a
    job left as it is keeps its rows, uncopied."""
    rows = [cells.rows for _, cells in batch]
    q = np.concatenate([r[1::2] for r in rows], axis=1)
    q_s, q_t, mean = q
    one = (q_s == q_t) & (mean == q_s)
    # link[i]: cells i and i + 1 lie in one run, which never crosses a job
    link = np.empty(q_s.size, dtype=bool)
    link[:-1] = one[:-1] & one[1:] & (q_s[:-1] == q_s[1:])
    sizes = np.array([r.shape[1] for r in rows])
    ends = sizes.cumsum()
    link[ends - 1] = False
    # the cells collapsing would drop from each job, one per link; below a
    # quarter of a job's cells, rebuilding its rows costs more than the
    # evaluations it saves
    dropped = np.add.reduceat(link, ends - sizes, dtype=np.intp)
    chosen = 4 * dropped >= sizes
    if not chosen.any():
        return batch
    picked = chosen.nonzero()[0].tolist()
    # the chosen jobs' cells, their links, and their a_s, a_t and dt (q
    # is read from the copy made above); where every job is chosen, as on
    # a step p, the batch's own
    at = np.arange(link.size)
    if len(picked) < len(rows):
        at = at[np.repeat(chosen, sizes)]
        link = link[at]
    e = np.concatenate([rows[j][::2] for j in picked], axis=1)
    a_s, a_t, dt = e
    # the segments, each a run or a cell left alone, from their first
    # cells; m and the scaled sum are taken for every segment in one pass,
    # and a cell left alone keeps its own row
    first = np.flatnonzero(np.concatenate(([True], ~link[:-1])))
    m = np.maximum.reduceat(np.maximum(a_s, a_t), first)
    shift = np.repeat(m, np.diff(first, append=link.size))
    scaled = np.add.reduceat(_exp_cells(a_s - shift, a_t - shift, dt), first)
    out = np.empty((6, first.size))
    out[::2] = e.take(first, axis=1)
    out[1::2] = q.take(at[first], axis=1)
    run = link[first]
    out[0, run] = out[2, run] = m[run]
    out[4, run] = scaled[run]
    bounds = first.searchsorted(
        np.concatenate(([0], sizes[chosen].cumsum()))).tolist()
    batch = list(batch)
    for j, i, k in zip(picked, bounds, bounds[1:]):
        key, (_, guard, sup, heads) = batch[j]
        batch[j] = key, _Cells(out[:, i:k], guard, sup, heads)
    return batch


def _solve(prepared, tol: float) -> list:
    """The Luxemburg norm of each prepared modular in the iterable
    ``prepared``, in order (see ``luxemburg_norms``); a DivergentHeadError
    in ``prepared``, an average ``_average_cells`` could not prepare,
    stays in its slot.  One rule, ``_batches`` by cell count, cuts the
    stream twice: the jobs left to search are taken in batches, each
    collapsed in one pass (``_collapse``), and the collapsed jobs, in
    order, are solved in lockstep groups.  So one batch and one group of
    at most ``_GROUP_CELLS`` cells each (a larger job alone) are held at
    a time, besides the batch ``_prepare`` is on."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    results: list = []

    def jobs():
        for k, cells in enumerate(prepared):
            results.append(None)
            if isinstance(cells, DivergentHeadError):
                results[k] = cells
            elif cells.sup == 0.0:
                results[k] = NormValue(0.0, 0.0, (0.0, 0.0))
            elif cells.size == 0:
                results[k] = _negligible(tol)
            else:
                yield k, cells

    def size(job):
        return job[1].size

    collapsed = (job for batch in _batches(jobs(), size)
                 for job in _collapse(batch))
    for group in _batches(collapsed, size):
        _solve_group([(k, _Search(cells, tol)) for k, cells in group],
                     results)
    return results


def luxemburg_norms(fs, p: ExponentLike, tol: float = NORM_TOL) -> list:
    """inf{lambda > 0 : modular(f/lambda) <= 1} for each f of ``fs``, in
    order.  p is sampled once for all of them on one grid.

    Each result is a NormValue with ``value == bracket[1]``, I(bracket[1])
    <= 1 < I(bracket[0]), bracket[0] < bracket[1], and relative bracket
    width ``tol`` at most the requested one (for a tol below double
    resolution, the width at which bisection in ln lambda finds no lambda
    strictly inside the bracket); (0, _LAM_MIN) when f is negligible,
    and 0 when f vanishes.  An f whose modular stays above 1 up to
    2**200 max(1, sup|f|) (at most e^_SIGMA_MAX, about 6.6e307) gets an
    UnboundedNormError in its slot (not raised), and its neighbours are
    unaffected.
    """
    return _solve(_prepare(fs, p), tol)


def quotient_norms(fs: list, p: ExponentLike, tol: float = NORM_TOL) -> list:
    """(``modular(f, p)``, ||f||, ||x^-1 Hf||) for each f in ``fs``, all on
    one grid, in order, the norms as in ``luxemburg_norms``.  One
    ``_solve`` takes every f's prepared cells from one ``_prepare``
    stream, each modular read from its cells as they pass, and then every
    average's cells from ``_average_cells``, so only one batch and one
    group are held at a time.  A norm's slot holds its UnboundedNormError,
    and an average's its DivergentHeadError."""
    if not fs:
        return []
    grid = as_segments(fs[0])[0].grid
    p = on_grid(p, grid)
    modulars = []

    def jobs():
        for cells in _prepare(fs, p):
            modulars.append(_modular(cells, grid))
            yield cells
        yield from _average_cells(fs, p)

    norms = _solve(jobs(), tol)
    return list(zip(modulars, norms, norms[len(fs):]))


def luxemburg_norm(f: FunctionLike, p: ExponentLike,
                   tol: float = NORM_TOL) -> NormValue:
    """inf{lambda > 0 : modular(f/lambda) <= 1}: ``luxemburg_norms`` on
    one f, raising UnboundedNormError for an unbounded one."""
    (result,) = luxemburg_norms([f], p, tol)
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


def bracket_check(f: FunctionLike, p: ExponentLike) -> BracketReport:
    """Verify the modular-vs-norm sandwich; failure means a numerics bug.

    For ||f|| <= 1 the chain is ||f||**p_plus <= I <= ||f||**p_minus and
    for ||f|| >= 1 the two exponents swap roles; each side may miss by
    1e-9 of max(1, I).
    """
    segs = as_segments(f)
    grid = segs[0].grid
    p = on_grid(p, grid)
    # f is prepared once, for its modular and its norm
    (cells,) = _prepare([segs], p)
    mv = _modular(cells, grid)
    (nv,) = _solve([cells], NORM_TOL)
    if isinstance(nv, UnboundedNormError):
        raise nv
    p_minus, p_plus = p.p.bounds((grid.x_min, 1.0))
    n = nv.value
    if n <= 1.0:
        low, high = n ** p_plus, n ** p_minus
    else:
        low, high = n ** p_minus, n ** p_plus
    slack = -1e-9 * (max(1.0, abs(mv.value)) if mv.finite else 1.0)
    slack_lower = mv.value - low
    slack_upper = high - mv.value
    passed = mv.finite and slack_lower >= slack and slack_upper >= slack
    return BracketReport(passed, n, mv.value, p_minus, p_plus,
                         slack_lower, slack_upper)


def inverse_x_scales(p: ExponentLike, grid, a_list, sigmas,
                     delta: float = 1.0, tol: float = NORM_TOL,
                     solve: bool = True) -> list:
    """(integral_a^delta phi dx/x, I(f_a/e^sigma), ||f_a||) for f_a = x^-1
    on (a, delta), for each a of ``a_list`` and its sigma; raises the
    first UnboundedNormError.

    f_a > 0, so each cell of f_a has two ends, with a = p ln(1/x) + ln x
    and q = p, one-sided at p's jumps: a/q is ln phi, and at sigma = ln
    phi(a) the cell exponent a - sigma q is p (ln phi(x) - ln phi(a)).
    f_a's cells are x^-1's (``_InverseX``) on the run ``_locate`` gives,
    the first and last clipped as in ``_cells``, with the run's largest
    guard term, and 1/x at its lowest node that counts toward sup|f|;
    where ln a rounds to ln delta, f_a has no cells.  Each
    ``_batches`` batch of scales has its integrals and modulars read in
    one pass as it streams into the solver, which runs only with
    ``solve``: else ||f_a|| is None."""
    if not all(grid.x_min <= a < delta <= 1.0 for a in a_list):
        raise ValueError("need x_min <= a < delta <= 1")
    if not a_list:
        return []
    # where ln a rounds to ln delta, (a, delta) has no width in u and f_a
    # no cells: its integral, modular and norm are 0
    empty = [math.log(a) >= math.log(delta) for a in a_list]
    if any(empty):
        rest = iter(inverse_x_scales(
            p, grid, [a for a, e in zip(a_list, empty) if not e],
            [s for s, e in zip(sigmas, empty) if not e], delta, tol, solve))
        zero = NormValue(0.0, 0.0, (0.0, 0.0)) if solve else None
        return [(0.0, 0.0, zero) if e else next(rest) for e in empty]
    p = on_grid(p, grid)
    layout, inverse = p.layout, p.inverse_x
    u, pn, x = layout.u, layout.p, inverse.x
    runs = []
    for a in a_list:
        k0, k1, cut, ln_a, ln_d = _locate(p, a, delta)
        i = layout.first[k0] + cut.start - layout.start[k0]
        j = layout.first[k1] + cut.stop - layout.start[k1] - 2
        # sup|f| is 1/x at the run's lowest node that counts, a piece end
        # outside [a, delta] being left out: i unless it lies below a, else
        # i + 1 unless it ends the run's first piece past delta, when no
        # node counts; every later position holds a higher node, or i's
        # node as the first of a piece
        end = layout.last[k0] + 1 if k0 < k1 else j + 1
        sup = (1.0 / x[i] if x[i] >= a else 1.0 / x[i + 1]
               if i + 1 < end or x[i + 1] <= delta else 0.0)
        # the first cell's s and t and the last cell's
        runs.append((i, j, ln_a, layout.ln_s[k1] if k0 < k1 else ln_a,
                     layout.ln_t[k0] if k0 < k1 else ln_d, ln_d, float(sup)))
    i, j, s_first, s_last, t_first, t_last, sups = zip(*runs)
    i, j = np.array(i), np.array(j)
    # each guard is a maximum over the run's positions, which all end at
    # j + 1, of the guard terms
    top, ln_f = j[0] + 1, np.log(1.0 / x)
    guards = np.maximum.accumulate((ln_f + inverse.shift)[top::-1])[
        top - i].tolist()
    # the first and last cells' rows 0 to 4, clipped as ``_cells`` does
    c0, c1 = inverse.left.searchsorted(i), inverse.left.searchsorted(j) + 1
    left, a = np.concatenate((i, j)), pn * ln_f + u
    (s, w_s), (t, w_t) = (_clip(np.concatenate(v), u[left], u[left + 1])
                          for v in ((s_first, s_last), (t_first, t_last)))
    clipped = np.array([_lerp(v[left], v[left + 1], w)
                        for w in (w_s, w_t) for v in (a, pn)] + [t - s])
    integrals, modulars = [], []

    def read():
        for batch in _batches(range(len(a_list)), lambda k: c1[k] - c0[k]):
            sizes = c1[batch] - c0[batch]
            cells, at = _ranges(c0[batch], sizes)
            rows = inverse.cells.rows[:, cells]
            rows[:5, np.concatenate((at, at + sizes - 1))] = clipped[
                :, np.add(batch, [[0], [len(a_list)]]).ravel()]
            a_s, q_s, a_t, q_t, dt, _ = rows
            values = _exp_cells(np.minimum(a_s / q_s, EXP_GUARD),
                                np.minimum(a_t / q_t, EXP_GUARD), dt)
            bounds = [*at.tolist(), cells.size]
            integrals.extend(float(values[b:e].sum())
                             for b, e in zip(bounds, bounds[1:]))
            # the modulars, inf unevaluated where sigma lies below the guard
            inside = [sigmas[k] >= guards[k] for k in batch]
            sigma = np.repeat([sigmas[k] for k in batch], sizes)
            if all(inside):  # as for every p short of 1e300, rows uncopied
                values = _integrals(rows, sigma)
            else:
                take = np.repeat(inside, sizes)
                values[~take] = 0.0
                values[take] = _integrals(rows[:, take], sigma[take])
            modulars.extend(m if ok else math.inf for ok, m in zip(
                inside, np.add.reduceat(values, at).tolist()))
            for k, b, e in zip(batch, bounds, bounds[1:]):
                yield _Cells(rows[:, b:e], guards[k], sups[k], [])

    norms = _solve(read(), tol) if solve else [None for _ in read()]
    for result in norms:
        if isinstance(result, UnboundedNormError):
            raise result
    return list(zip(integrals, modulars, norms))
