"""Boundedness criteria, regularity quantities, and the equivalence audit.

Every criterion produces a dyadic series of finite-resolution values and
a trend verdict in {bounded, divergent, inconclusive}.  Classification
works on the running supremum of the series: a criterion asks for a
uniform bound over all scales, so the running sup either plateaus
(bounded) or keeps setting records toward the origin (divergent).  Sparse
witnesses (isolated jump scales) and series that decay to zero are both
handled correctly by this reduction, which a naive last-third monotonicity
test is not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .exponent import (
    ExponentFunction,
    ExponentLike,
    conjugate_reciprocal,
    log_phi,
    on_grid,
)
from .grids import LogGrid
from .hardy import (
    NECESSITY_DEPTH,
    OperatorNormResult,
    dyadic_indicator_family,
    necessity_family,
    necessity_levels,
    operator_norm_lower_bound,
    power_family,
)
from .lpnorm import NORM_TOL, inverse_x_scales

__all__ = [
    "BoundednessVerdict",
    "CriterionReport",
    "classify_series",
    "condition_A",
    "condition_B",
    "criterion_C2",
    "criterion_C3",
    "criterion_C4",
    "criterion_C5",
    "dyadic_oscillation",
    "phi_doubling",
    "equivalence_audit",
]

PLATEAU_THRESHOLD = 0.10
GROWTH_THRESHOLD = 1.5
# deepest dyadic level a = 2^-j of the C2, C4 and C5 scans
A_DEPTH = 36
# number of C3's eps values, eps0 2^-k for k < EPS_DEPTH
EPS_DEPTH = 13
# depths of C3's suffixes, evenly spaced in ln x down to ln x_min
C3_DEPTH_STOPS = 12


@dataclass(frozen=True)
class BoundednessVerdict:
    cls: str  # "bounded" | "divergent" | "inconclusive"
    sup_value: float
    series: tuple  # ((parameter, value), ...)
    trend_slope: float
    notes: tuple[str, ...] = ()
    # ((lo, hi), ...) per series entry where a certified interval is
    # tracked (C1, C5), else (); CSV output only, not part of to_dict
    bounds: tuple = ()

    def to_dict(self) -> dict:
        return {
            "class": self.cls,
            "sup": self.sup_value,
            "series": [[float(p), float(v)] for p, v in self.series],
            "trend_slope": self.trend_slope,
            "notes": list(self.notes),
        }


def classify_series(params, values,
                    notes: tuple[str, ...] = ()) -> BoundednessVerdict:
    """Trend verdict for a series of criterion values at dyadic scales."""
    params = np.asarray(params, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return BoundednessVerdict("inconclusive", math.nan, (), math.nan,
                                  notes + ("empty series",))
    series = tuple(zip(params.tolist(), values.tolist()))
    if np.any(np.isinf(values)):
        return BoundednessVerdict("divergent", math.inf, series, math.inf,
                                  notes + ("overflow in criterion value",))
    run = np.maximum.accumulate(values)
    sup = float(run[-1])
    n = values.size
    i0 = n - max(2, n // 3)
    last = values[i0:]
    slope = float(np.polyfit(params[i0:], last, 1)[0]) if last.size > 1 else 0.0
    if sup <= 0.0:
        return BoundednessVerdict("bounded", max(sup, 0.0), series, slope, notes)
    if (run[-1] - run[i0]) / run[-1] < PLATEAU_THRESHOLD:
        return BoundednessVerdict("bounded", sup, series, slope, notes)
    positive = run[run > 0.0]
    overall = run[-1] / positive[0] if positive.size else math.inf
    if overall > GROWTH_THRESHOLD:
        return BoundednessVerdict("divergent", sup, series, slope, notes)
    return BoundednessVerdict("inconclusive", sup, series, slope, notes)


# ---------------------------------------------------------------------------
# dyadic-block scanning helpers

def _dyadic_block_sup(xs: np.ndarray,
                      vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sup of vals per dyadic block (2^-j-1, 2^-j], deepest blocks last...

    Blocks are returned ordered from j=1 (near 1/2) down toward x_min, so
    the series runs toward the origin like every other criterion series;
    blocks whose sup is -inf or nan are left out.  The points are sorted
    by block and every block's sup is one ``np.maximum.reduceat``.
    """
    j = np.maximum(np.floor(-np.log2(xs)).astype(int), 1)
    if not j.size:
        return j, np.asarray(vals, dtype=float)[:0]
    order = j.argsort(kind="stable")
    j = j[order]
    starts = np.flatnonzero(np.diff(j, prepend=0))
    sups = np.maximum.reduceat(vals[order], starts)
    keep = sups > -math.inf
    return j[starts][keep], sups[keep]


def _scan_points(grid: LogGrid, lo: float, hi: float = 0.5) -> np.ndarray:
    """Grid points in [lo, hi] plus the exact dyadic block edges, so
    block suprema don't depend on how nodes fall relative to the edges."""
    xs = grid.points[(grid.points >= lo) & (grid.points <= hi)]
    edges = 2.0 ** -np.arange(1, int(math.log2(1.0 / max(lo, grid.x_min))))
    edges = edges[(edges >= lo) & (edges <= hi)]
    return np.unique(np.concatenate([xs, edges]))


def condition_A(p: ExponentFunction, grid: LogGrid) -> BoundednessVerdict:
    """Trend of |p(x) - p(0)| * ln(1/x) toward the origin."""
    germ = p.germ()
    xs = _scan_points(grid, grid.x_min)
    vals = np.abs(p.eval(xs) - germ.p0) * (-np.log(xs))
    levels, sups = _dyadic_block_sup(xs, vals)
    notes = () if germ.exact else ("p(0) approximate",)
    return classify_series(levels, sups, notes=notes)


def condition_B(p: ExponentFunction, grid: LogGrid) -> BoundednessVerdict:
    """Trend of [p(x) - p(x/2)] * ln(1/x); also reports the sufficiency
    margin against p(0)*(p(0)-1)."""
    xs = _scan_points(grid, 2.0 * grid.x_min)
    vals = (p.eval(xs) - p.eval(xs / 2.0)) * (-np.log(xs))
    levels, sups = _dyadic_block_sup(xs, vals)
    verdict = classify_series(levels, sups)
    p0 = p.germ().p0
    margin = p0 * (p0 - 1.0)
    if verdict.cls == "bounded":
        ok = verdict.sup_value < margin
        note = (f"sufficiency margin B={verdict.sup_value:.4g} "
                f"{'<' if ok else '>='} p(0)(p(0)-1)={margin:.4g}",)
        verdict = replace(verdict, notes=verdict.notes + note)
    return verdict


def default_a_list(grid: LogGrid, delta: float, depth: int) -> list[float]:
    """The dyadic scales a = 2^-j, j <= depth, in [2 x_min, delta)."""
    return [2.0 ** -j for j in range(1, depth + 1)
            if 2.0 * grid.x_min <= 2.0 ** -j < delta]


def _scales(p: ExponentLike, grid: LogGrid, a_list):
    """(p on the grid, the levels -log2 a of the scales a, ln phi(a) from
    one evaluation of p at all a)."""
    p = on_grid(p, grid)
    ln_phi_a = log_phi(p.p.eval(a_list), -np.log(a_list)).tolist()
    return p, [-math.log2(a) for a in a_list], ln_phi_a


def _integral_criteria(p: ExponentLike, grid: LogGrid, delta: float,
                       depth: int, tol: float,
                       solve: bool) -> dict[str, BoundednessVerdict]:
    """C2 and C4, and C5 when ``solve``, on the scales ``default_a_list``
    from one preparation of f_a = x^-1 on each (a, delta)
    (``lpnorm.inverse_x_scales``): r(a) = (integral_a^delta phi dx/x) /
    phi(a); s(a) = integral_a^delta (phi(x)/phi(a))**p(x) dx/x, the
    modular of f_a/phi(a), inf where a cell exponent passes EXP_GUARD;
    and ||f_a|| / phi(a), with its certified bracket: the only solve."""
    a_list = default_a_list(grid, delta, depth)
    p, levels, ln_phi_a = _scales(p, grid, a_list)
    c2, c4, c5, bounds = [], [], [], []
    for la, (integral, mod, nv) in zip(ln_phi_a, inverse_x_scales(
            p, grid, a_list, ln_phi_a, delta, tol, solve)):
        scale = math.exp(-la)
        c2.append(integral * scale)
        c4.append(mod)
        if solve:
            c5.append(nv.value * scale)
            bounds.append((nv.bracket[0] * scale, nv.bracket[1] * scale))
    out = {"C2": classify_series(levels, c2),
           "C4": classify_series(levels, c4)}
    if solve:
        out["C5"] = replace(classify_series(levels, c5), bounds=tuple(bounds))
    return out


def criterion_C2(p: ExponentLike, grid: LogGrid,
                 delta: float = 1.0) -> BoundednessVerdict:
    """r(a) = (integral_a^delta phi dx/x) / phi(a)."""
    return _integral_criteria(p, grid, delta, A_DEPTH, NORM_TOL, False)["C2"]


def criterion_C4(p: ExponentLike, grid: LogGrid,
                 delta: float = 1.0) -> BoundednessVerdict:
    """s(a) = integral_a^delta (phi(x)/phi(a))**p(x) dx/x."""
    return _integral_criteria(p, grid, delta, A_DEPTH, NORM_TOL, False)["C4"]


def criterion_C5(p: ExponentLike, grid: LogGrid,
                 delta: float = 1.0) -> BoundednessVerdict:
    """||x^-1|| over (a, delta) divided by a**(-1/p'(a))."""
    return _integral_criteria(p, grid, delta, A_DEPTH, NORM_TOL, True)["C5"]


def criterion_C3(p: ExponentLike, grid: LogGrid, delta: float = 1.0,
                 eps_depth: int = EPS_DEPTH) -> BoundednessVerdict:
    """Search for eps making x**eps * phi(x) almost decreasing.

    For each eps the almost-decreasing constant C(eps), the sup over
    i <= j of v_j / v_i, is compared on the grid's suffixes at full depth
    (down to x_min) and at half depth (down to x_min**(1/2)).  An eps is
    a valid witness only when ln C stops growing with depth; this rejects
    the finite-grid artifact C(eps) ~ x_min**(-eps), which passes any
    fixed threshold as eps -> 0 although no fixed eps works
    asymptotically.  The shallowest of the ``C3_DEPTH_STOPS`` stops only
    gates ``inconclusive``.  A bounded verdict's one series entry is (the
    witness eps, its constant C).
    """
    p = on_grid(p, grid)
    mask = grid.points <= delta
    u = grid.u[mask]
    logphi = p.ln_phi[mask]
    _, p_plus = p.p.bounds((0.0, delta))
    eps0 = 1.0 - 1.0 / p_plus
    if eps0 < 1e-6:
        eps0 = 0.5
    eps_list = [eps0 * 2.0 ** -k for k in range(max(1, eps_depth))]

    depths = np.linspace(math.log(grid.x_min) / C3_DEPTH_STOPS,
                         math.log(grid.x_min), C3_DEPTH_STOPS)
    if u.size == 0 or u[-1] < depths[0]:
        return BoundednessVerdict(
            "inconclusive", math.inf, (), math.nan,
            (f"no grid node between the shallowest depth stop "
             f"x={math.exp(depths[0]):.3g} and delta={delta:.3g}",))
    # ln C of the suffix from node i is the largest drop below a later
    # running max: one suffix max of v, then the max of the drops, per eps
    logv = np.array(eps_list)[:, None] * u + logphi
    drop = np.maximum.accumulate(logv[:, ::-1], axis=1)[:, ::-1] - logv
    full_at, half_at = u.searchsorted(depths[[-1, C3_DEPTH_STOPS // 2 - 1]],
                                      "left")
    ln_c = [drop[:, at:].max(axis=1).tolist() for at in (full_at, half_at)]
    candidates = []
    for eps, full, half in zip(eps_list, *ln_c):
        growing = (full - half) > PLATEAU_THRESHOLD * full + 1e-9
        if not growing:
            candidates.append((math.exp(full), eps))
    if candidates:
        const, best_eps = min(candidates)
        return BoundednessVerdict("bounded", const, ((best_eps, const),), 0.0,
                                  (f"witness eps={best_eps:.6g}",))
    # every eps is growing: a stable one would be a candidate
    return BoundednessVerdict("divergent", math.inf, (), math.nan,
                              ("no depth-stable eps found",))


def dyadic_oscillation(p: ExponentFunction,
                       grid: LogGrid) -> BoundednessVerdict:
    """|1/p'(2x) - 1/p'(x)| * ln(1/x), scanned over x <= 1/4 so the
    doubled argument stays in the origin-governed half of the domain."""
    xs = _scan_points(grid, grid.x_min, 0.25)
    osc = np.abs(conjugate_reciprocal(p, 2.0 * xs)
                 - conjugate_reciprocal(p, xs)) * (-np.log(xs))
    return classify_series(*_dyadic_block_sup(xs, osc))


def phi_doubling(p: ExponentLike, grid: LogGrid) -> float:
    """sup of phi(y)/phi(x) over y in [x/2, 2x], x < 1/4: the largest
    ln phi over each node's window of offsets with |ln(y/x)| <= ln 2,
    less its own, in one (nodes x offsets) pass."""
    logphi = on_grid(p, grid).ln_phi
    window = int(round(math.log(2.0) / grid.h))
    # keep |ln(y/x)| <= ln 2 exactly
    reach = max((off for off in range(window + 1)
                 if abs(off * grid.h) <= math.log(2.0) + 1e-12), default=0)
    scan = int(np.count_nonzero(grid.points < 0.25))
    if not reach or not scan:
        return 1.0
    pad = np.full(reach, -math.inf)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((pad, logphi, pad)), 2 * reach + 1)[:scan]
    return math.exp(max(0.0, float((windows.max(axis=1)
                                    - logphi[:scan]).max())))


# ---------------------------------------------------------------------------
# the audit

@dataclass(frozen=True)
class CriterionReport:
    exponent_id: str
    monotonicity: str
    delta: float
    p0: float
    p_minus: float
    p_plus: float
    verdicts: dict  # name -> BoundednessVerdict
    doubling_constant: float
    expected_class: str | None
    agreement: bool
    empirical_c1: OperatorNormResult | None  # None when C1 did not run
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        c3 = self.verdicts.get("C3")
        c1 = self.empirical_c1
        # only a bounded C3 has a series: its one (witness eps, constant)
        best_eps, const = c3.series[0] if c3 and c3.series else (None, None)
        return {
            "exponent": self.exponent_id,
            "monotonicity": self.monotonicity,
            "delta": self.delta,
            "p0": self.p0,
            "p_minus": self.p_minus,
            "p_plus": self.p_plus,
            "verdicts": {k: v.to_dict() for k, v in self.verdicts.items()},
            "c3_best_eps": best_eps,
            "c3_constant": (None if const is None or math.isinf(const)
                            else const),
            "oscillation_sup": self.verdicts["oscillation"].sup_value,
            "doubling_constant": self.doubling_constant,
            "expected_class": self.expected_class,
            "agreement": self.agreement,
            "operator_norm_lower_bound": None if c1 is None else {
                "value": c1.value,
                "argmax": c1.argmax,
                "quotients": [list(q) for q in c1.quotients],
                "skipped": list(c1.skipped),
            },
            "notes": list(self.notes),
        }


def equivalence_audit(p: ExponentFunction, grid: LogGrid, *,
                      a_depth: int = A_DEPTH, eps_depth: int = EPS_DEPTH,
                      necessity_depth: int = NECESSITY_DEPTH,
                      norm_tol: float = NORM_TOL,
                      criteria_names: tuple[str, ...] = ("A", "B", "C1", "C2",
                                                         "C3", "C4", "C5"),
                      family_kinds: tuple[str, ...] = ("power", "necessity",
                                                       "dyadic"),
                      exponent_id: str = "") -> CriterionReport:
    """Run the criteria ``criteria_names`` requests, and the oscillation
    and doubling checks, on one exponent and cross-check their verdicts.
    ``family_kinds`` picks C1's test families; without C1 no family is
    built and ``empirical_c1`` is None."""
    notes: list[str] = []
    germ = p.germ()
    p0 = germ.p0
    p_minus, p_plus = p.bounds((0.0, 1.0))
    if p_minus <= 1.0 + 1e-9:
        notes.append("p_minus = 1: the nonincreasing-case constant "
                     "p-/(p- - 1) degenerates")

    # p's class near 0 holds on (0, germ.delta); a nondecreasing class
    # that ends well above x_min cuts the criterion integrals there
    cut = (germ.monotone == "nondecreasing"
           and 64.0 * grid.x_min < germ.delta < 1.0)
    delta = germ.delta if cut else 1.0
    mono_cls = germ.monotone if cut or germ.delta == 1.0 else "nonmonotone"
    constant = germ.constant_below == 1.0
    if cut:
        notes.append(f"nondecreasing only on (0, {delta:.3g}); "
                     "criterion integrals cut there")

    gp = on_grid(p, grid)
    # the requested stages and oscillation; C2, C4 and C5 share one scan
    scanned = functools.cache(lambda: _integral_criteria(
        gp, grid, delta, a_depth, norm_tol, "C5" in criteria_names))
    stages = {
        "A": lambda: condition_A(p, grid),
        "B": lambda: condition_B(p, grid),
        "C2": lambda: scanned()["C2"],
        "C3": lambda: criterion_C3(gp, grid, delta=delta, eps_depth=eps_depth),
        "C4": lambda: scanned()["C4"],
        "C5": lambda: scanned()["C5"],
        "oscillation": lambda: dyadic_oscillation(p, grid),
    }
    verdicts = {name: stage() for name, stage in stages.items()
                if name in criteria_names or name == "oscillation"}

    c1 = None
    if "C1" not in criteria_names:
        notes.append("C1 was not requested: no test family was swept")
    else:
        members = []
        if "power" in family_kinds:
            members += power_family(p, grid)
        if "necessity" in family_kinds:
            necessity = necessity_family(gp, grid, depth=necessity_depth)
            members += necessity
            left_out = sorted(set(necessity_levels(grid, necessity_depth))
                              - {m.level for m in necessity})
            if left_out:
                notes.append(f"necessity levels j={left_out} left out: the "
                             "grid has fewer than 8 nodes in (2^-j-1, 2^-j)")
        if "dyadic" in family_kinds:
            members += dyadic_indicator_family(grid)
        c1 = operator_norm_lower_bound(gp, members, tol=norm_tol)
        c1_notes = () if c1.quotients else (
            "no test function gave a quotient: the family is empty or "
            "every member was skipped",)
        verdicts["C1"] = replace(
            classify_series(*c1.level_series(), notes=c1_notes),
            bounds=tuple(c1.level_bounds()))

    # for p monotone near 0 the criteria are equivalent, so a decided
    # class may contradict neither the theory class nor another decided
    # class; an inconclusive criterion abstains
    expected: str | None = None
    if mono_cls == "nonmonotone":
        notes.append("exponent is not monotone near 0; the equivalence "
                     "theorem does not apply")
    elif p0 <= 1.0 + 1e-9:
        expected = "divergent"
        notes.append("p(0) = 1: boundedness is impossible for "
                     "nondecreasing exponents")
    elif mono_cls == "nonincreasing" or constant:
        expected = "bounded"
    decided = {k: verdicts[k].cls for k in ("C1", "C2", "C3", "C4", "C5")
               if k in verdicts and verdicts[k].cls != "inconclusive"}
    wrong = [k for k, cls in decided.items() if expected and cls != expected]
    if wrong:
        notes.append(f"expected {expected}, contradicted by "
                     f"{', '.join(wrong)}")
    conflict = (mono_cls != "nonmonotone"
                and {"bounded", "divergent"} <= set(decided.values()))
    if conflict:
        notes.append(f"criterion classes conflict: {decided}")

    return CriterionReport(
        exponent_id=exponent_id,
        monotonicity=mono_cls + (" (constant)" if constant else ""),
        delta=delta,
        p0=p0,
        p_minus=p_minus,
        p_plus=p_plus,
        verdicts=verdicts,
        doubling_constant=phi_doubling(gp, grid),
        expected_class=expected,
        agreement=not (wrong or conflict),
        empirical_c1=c1,
        notes=tuple(notes),
    )
