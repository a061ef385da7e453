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

import math
from dataclasses import dataclass, replace

import numpy as np

from .exponent import (
    ExponentFunction,
    ExponentLike,
    classify_monotonicity,
    conjugate_reciprocal,
    log_phi,
    monotone_prefix,
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
from .lpnorm import inverse_x_scales

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
    edges = edges[edges >= lo]
    return np.unique(np.concatenate([xs, edges]))


def condition_A(p: ExponentFunction, grid: LogGrid) -> BoundednessVerdict:
    """Trend of |p(x) - p(0)| * ln(1/x) toward the origin."""
    p0 = p.limit_at_origin()
    xs = _scan_points(grid, grid.x_min)
    vals = np.abs(p.eval(xs) - p0) * (-np.log(xs))
    levels, sups = _dyadic_block_sup(xs, vals)
    notes = ("p(0) approximate",) if p.origin_approximate else ()
    return classify_series(levels, sups, notes=notes)


def condition_B(p: ExponentFunction, grid: LogGrid) -> BoundednessVerdict:
    """Trend of [p(x) - p(x/2)] * ln(1/x); also reports the sufficiency
    margin against p(0)*(p(0)-1)."""
    xs = _scan_points(grid, 2.0 * grid.x_min)
    vals = (p.eval(xs) - p.eval(xs / 2.0)) * (-np.log(xs))
    levels, sups = _dyadic_block_sup(xs, vals)
    verdict = classify_series(levels, sups)
    p0 = p.limit_at_origin()
    margin = p0 * (p0 - 1.0)
    if verdict.cls == "bounded":
        ok = verdict.sup_value < margin
        note = (f"sufficiency margin B={verdict.sup_value:.4g} "
                f"{'<' if ok else '>='} p(0)(p(0)-1)={margin:.4g}",)
        verdict = replace(verdict, notes=verdict.notes + note)
    return verdict


def default_a_list(grid: LogGrid, delta: float, depth: int) -> list[float]:
    out = []
    for j in range(1, depth + 1):
        a = 2.0 ** -j
        if a >= delta:
            continue
        if a < 2.0 * grid.x_min:
            break
        out.append(a)
    return out


def _scales(p: ExponentLike, grid: LogGrid, a_list):
    """(p on the grid, the levels -log2 a of the scales a, ln phi(a) from
    one evaluation of p at all a)."""
    p = on_grid(p, grid)
    ln_phi_a = log_phi(p.p.eval(a_list), -np.log(a_list)).tolist()
    return p, [-math.log2(a) for a in a_list], ln_phi_a


def _integral_criteria(p: ExponentLike, grid: LogGrid, a_list, delta: float,
                       tol: float) -> dict[str, BoundednessVerdict]:
    """C2, C4 and C5 from one preparation of f_a = x^-1 on each (a,
    delta) (``lpnorm.inverse_x_scales``): r(a) = (integral_a^delta phi
    dx/x) / phi(a); s(a) = integral_a^delta (phi(x)/phi(a))**p(x) dx/x,
    the modular of f_a/phi(a), inf where a cell exponent passes
    EXP_GUARD; and ||f_a|| / phi(a), with its certified bracket."""
    p, levels, ln_phi_a = _scales(p, grid, a_list)
    c2, c4, c5, bounds = [], [], [], []
    for la, (integral, mod, nv) in zip(ln_phi_a, inverse_x_scales(
            p, grid, a_list, ln_phi_a, delta, tol)):
        scale = math.exp(-la)
        c2.append(integral * scale)
        c4.append(mod)
        c5.append(nv.value * scale)
        bounds.append((nv.bracket[0] * scale, nv.bracket[1] * scale))
    return {"C2": classify_series(levels, c2),
            "C4": classify_series(levels, c4),
            "C5": replace(classify_series(levels, c5), bounds=tuple(bounds))}


def criterion_C2(p: ExponentLike, grid: LogGrid,
                 delta: float = 1.0) -> BoundednessVerdict:
    """r(a) = (integral_a^delta phi dx/x) / phi(a)."""
    return _integral_criteria(p, grid, default_a_list(grid, delta, A_DEPTH),
                              delta, 1e-10)["C2"]


def criterion_C4(p: ExponentLike, grid: LogGrid,
                 delta: float = 1.0) -> BoundednessVerdict:
    """s(a) = integral_a^delta (phi(x)/phi(a))**p(x) dx/x."""
    return _integral_criteria(p, grid, default_a_list(grid, delta, A_DEPTH),
                              delta, 1e-10)["C4"]


def criterion_C5(p: ExponentLike, grid: LogGrid,
                 delta: float = 1.0) -> BoundednessVerdict:
    """||x^-1|| over (a, delta) divided by a**(-1/p'(a))."""
    return _integral_criteria(p, grid, default_a_list(grid, delta, A_DEPTH),
                              delta, 1e-10)["C5"]


def criterion_C3(p: ExponentLike, grid: LogGrid, delta: float = 1.0,
                 eps_depth: int = 13) -> tuple[float | None, float,
                                               BoundednessVerdict]:
    """Search for eps making x**eps * phi(x) almost decreasing.

    For each eps the almost-decreasing constant C(eps), the sup over
    i <= j of v_j / v_i, is recomputed on ``C3_DEPTH_STOPS``
    progressively deeper suffixes of the grid.  An eps is a valid witness
    only when ln C stops growing with depth; this rejects the finite-grid
    artifact C(eps) ~ x_min**(-eps), which passes any fixed threshold as
    eps -> 0 although no fixed eps works asymptotically.
    """
    p = on_grid(p, grid)
    mask = grid.points <= delta
    u = grid.u[mask]
    logphi = p.ln_phi[mask]
    _, p_plus, _ = p.p.bounds((0.0, delta))
    eps0 = 1.0 - 1.0 / p_plus
    if eps0 < 1e-6:
        eps0 = 0.5
    eps_list = [eps0 * 2.0 ** -k for k in range(max(1, eps_depth))]

    depths = np.linspace(math.log(grid.x_min) / C3_DEPTH_STOPS,
                         math.log(grid.x_min), C3_DEPTH_STOPS)
    if u.size == 0 or u[-1] < depths[0]:
        return None, math.inf, BoundednessVerdict(
            "inconclusive", math.inf, (), math.nan,
            (f"no grid node between the shallowest depth stop "
             f"x={math.exp(depths[0]):.3g} and delta={delta:.3g}",))
    # ln C of the suffix from node i is the largest drop below a later
    # running max: one suffix max of v, then one of the drops, per eps
    logv = np.array(eps_list)[:, None] * u + logphi
    drop = np.maximum.accumulate(logv[:, ::-1], axis=1)[:, ::-1] - logv
    ln_c = np.maximum.accumulate(drop[:, ::-1], axis=1)[:, ::-1]
    full_at, half_at = u.searchsorted(depths[[-1, C3_DEPTH_STOPS // 2 - 1]],
                                      "left")
    candidates = []
    for eps, full, half in zip(eps_list, ln_c[:, full_at].tolist(),
                               ln_c[:, half_at].tolist()):
        growing = (full - half) > PLATEAU_THRESHOLD * full + 1e-9
        if not growing:
            candidates.append((math.exp(full), eps))
    if candidates:
        const, best_eps = min(candidates)
        verdict = BoundednessVerdict(
            "bounded", const, ((best_eps, const),), 0.0,
            (f"witness eps={best_eps:.6g}",))
        return best_eps, const, verdict
    # every eps is growing: a stable one would be a candidate
    return None, math.inf, BoundednessVerdict(
        "divergent", math.inf, (), math.nan, ("no depth-stable eps found",))


def dyadic_oscillation(p: ExponentFunction,
                       grid: LogGrid) -> tuple[float, BoundednessVerdict]:
    """|1/p'(2x) - 1/p'(x)| * ln(1/x), scanned over x <= 1/4 so the
    doubled argument stays in the origin-governed half of the domain."""
    xs = _scan_points(grid, grid.x_min, 0.25)
    osc = np.abs(conjugate_reciprocal(p, 2.0 * xs)
                 - conjugate_reciprocal(p, xs)) * (-np.log(xs))
    levels, sups = _dyadic_block_sup(xs, osc)
    verdict = classify_series(levels, sups)
    return verdict.sup_value, verdict


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
    c3_best_eps: float | None
    c3_constant: float
    oscillation_sup: float
    doubling_constant: float
    expected_class: str | None
    agreement: bool
    empirical_c1: OperatorNormResult
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "exponent": self.exponent_id,
            "monotonicity": self.monotonicity,
            "delta": self.delta,
            "p0": self.p0,
            "p_minus": self.p_minus,
            "p_plus": self.p_plus,
            "verdicts": {k: v.to_dict() for k, v in self.verdicts.items()},
            "c3_best_eps": self.c3_best_eps,
            "c3_constant": (None if math.isinf(self.c3_constant)
                            else self.c3_constant),
            "oscillation_sup": self.oscillation_sup,
            "doubling_constant": self.doubling_constant,
            "expected_class": self.expected_class,
            "agreement": self.agreement,
            "operator_norm_lower_bound": {
                "value": self.empirical_c1.value,
                "argmax": self.empirical_c1.argmax,
                "quotients": [list(q) for q in self.empirical_c1.quotients],
                "skipped": list(self.empirical_c1.skipped),
            },
            "notes": list(self.notes),
        }


def _classes_conflict(a: str, b: str) -> bool:
    return {a, b} == {"bounded", "divergent"}


def equivalence_audit(p: ExponentFunction, grid: LogGrid, *,
                      a_depth: int = A_DEPTH, delta: float | None = None,
                      eps_depth: int = 13,
                      necessity_depth: int = NECESSITY_DEPTH,
                      norm_tol: float = 1e-10,
                      criteria_names: tuple[str, ...] = ("A", "B", "C1", "C2",
                                                         "C3", "C4", "C5"),
                      family_kinds: tuple[str, ...] = ("power", "necessity",
                                                       "dyadic"),
                      exponent_id: str = "") -> CriterionReport:
    """Run all criteria on one exponent and cross-check their verdicts."""
    notes: list[str] = []
    p0 = p.limit_at_origin()
    p_minus, p_plus, exact_bounds = p.bounds((0.0, 1.0))
    if not exact_bounds:
        notes.append("p bounds are grid approximations")
    if p_minus <= 1.0 + 1e-9:
        notes.append("p_minus = 1: the nonincreasing-case constant "
                     "p-/(p- - 1) degenerates")

    mono = classify_monotonicity(p)
    mono_cls = mono.cls
    if delta is None:
        delta = 1.0
        if mono_cls == "nonmonotone":
            prefix = monotone_prefix(p, grid.x_min)
            if prefix > 64.0 * grid.x_min:
                delta = prefix
                mono_cls = "nondecreasing"
                notes.append(f"nondecreasing only on (0, {delta:.3g}); "
                             "criterion integrals cut there")

    a_list = default_a_list(grid, delta, a_depth)
    gp = on_grid(p, grid)
    verdicts: dict[str, BoundednessVerdict] = {}

    if "A" in criteria_names:
        verdicts["A"] = condition_A(p, grid)
    if "B" in criteria_names:
        verdicts["B"] = condition_B(p, grid)
    scanned = {}
    if {"C2", "C4", "C5"} & set(criteria_names):
        scanned = _integral_criteria(gp, grid, a_list, delta, norm_tol)
    if "C2" in criteria_names:
        verdicts["C2"] = scanned["C2"]
    c3_best_eps, c3_constant = None, math.inf
    if "C3" in criteria_names:
        c3_best_eps, c3_constant, v3 = criterion_C3(gp, grid, delta=delta,
                                                    eps_depth=eps_depth)
        verdicts["C3"] = v3
    verdicts.update((k, scanned[k]) for k in ("C4", "C5")
                    if k in criteria_names)

    osc_sup, osc_verdict = dyadic_oscillation(p, grid)
    verdicts["oscillation"] = osc_verdict
    doubling = phi_doubling(gp, grid)

    members = []
    if "power" in family_kinds:
        members += power_family(p, grid)
    if "necessity" in family_kinds:
        necessity = necessity_family(gp, grid, depth=necessity_depth)
        members += necessity
        resolved = {m.level for m in necessity}
        left_out = [j for j in necessity_levels(grid, necessity_depth)
                    if j not in resolved]
        if left_out:
            notes.append(f"necessity levels j={left_out} left out: the grid "
                         "has fewer than 8 nodes in (2^-j-1, 2^-j)")
    if "dyadic" in family_kinds:
        members += dyadic_indicator_family(grid)
    c1 = operator_norm_lower_bound(gp, members, tol=norm_tol)
    if "C1" in criteria_names:
        levels, series = c1.level_series()
        c1_notes = () if c1.quotients else (
            "no test function gave a quotient: the family is empty or "
            "every member was skipped",)
        verdicts["C1"] = replace(
            classify_series(levels, series, notes=c1_notes),
            bounds=tuple(c1.level_bounds()))

    # expected class and agreement
    expected: str | None = None
    agreement = True
    c1_cls = verdicts["C1"].cls if "C1" in verdicts else "inconclusive"
    crit_classes = [verdicts[k].cls for k in ("C2", "C3", "C4", "C5")
                    if k in verdicts]
    if mono_cls == "nonincreasing":
        expected = "bounded"
        agreement = c1_cls == "bounded"
        if not agreement:
            notes.append("nonincreasing exponent but empirical operator "
                         f"norm trend is {c1_cls}")
    elif mono_cls == "nondecreasing":
        if p0 <= 1.0 + 1e-9:
            expected = "divergent"
            notes.append("p(0) = 1: boundedness is impossible for "
                         "nondecreasing exponents")
        # inconclusive criteria abstain; only bounded next to divergent
        # is a disagreement
        decided = set(crit_classes) - {"inconclusive"}
        if len(decided) > 1:
            agreement = False
            notes.append(f"criterion classes disagree: {crit_classes}")
        else:
            common = decided.pop() if decided else "inconclusive"
            if expected is not None and common != expected:
                agreement = False
                notes.append(f"classes are {common}, expected {expected}")
            if _classes_conflict(common, c1_cls):
                agreement = False
                notes.append(f"empirical trend {c1_cls} conflicts with "
                             f"criterion class {common}")
    else:
        notes.append("exponent is not monotone near 0; the equivalence "
                     "theorem does not apply")

    return CriterionReport(
        exponent_id=exponent_id,
        monotonicity=mono_cls + (" (constant)" if mono.constant else ""),
        delta=delta,
        p0=p0,
        p_minus=p_minus,
        p_plus=p_plus,
        verdicts=verdicts,
        c3_best_eps=c3_best_eps,
        c3_constant=c3_constant,
        oscillation_sup=osc_sup,
        doubling_constant=doubling,
        expected_class=expected,
        agreement=agreement,
        empirical_c1=c1,
        notes=tuple(notes),
    )
