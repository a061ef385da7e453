import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from hardyvx import (
    Constant,
    ExponentFunction,
    LogPerturbed,
    PiecewiseConstant,
    PiecewiseLinear,
    condition_A,
    condition_B,
    criterion_C2,
    criterion_C3,
    criterion_C4,
    criterion_C5,
    dyadic_oscillation,
    equivalence_audit,
    phi_doubling,
)
from hardyvx import criteria, exponent, lpnorm
from hardyvx.catalog import catalog_exponent
from hardyvx.criteria import (
    A_DEPTH,
    PLATEAU_THRESHOLD,
    _dyadic_block_sup,
    _scales,
    _scan_points,
    classify_series,
    default_a_list,
)
from hardyvx.exponent import DyadicJump, log_phi, on_grid
from hardyvx.grids import make_log_grid


# The per-scale loops that the vectorised criteria replaced, kept as
# references: the vector passes must give the same values.

def _reference_ln_c(logv):
    """ln of the almost-decreasing constant sup over i <= j of v_j / v_i,
    given ln v, by one reverse suffix-maximum scan."""
    suffix = np.maximum.accumulate(logv[::-1])[::-1]
    return float(np.max(suffix - logv))


def _reference_C3(p, grid, delta=1.0, eps_depth=13, depth_stops=12):
    """criterion_C3's series from its depth-stop loop: ((best eps,
    constant),), or () when no eps is depth-stable."""
    p = on_grid(p, grid)
    mask = grid.points <= delta
    u, logphi = grid.u[mask], p.ln_phi[mask]
    _, p_plus = p.p.bounds((0.0, delta))
    eps0 = 1.0 - 1.0 / p_plus
    if eps0 < 1e-6:
        eps0 = 0.5
    depths = np.linspace(math.log(grid.x_min) / depth_stops,
                         math.log(grid.x_min), depth_stops)
    candidates = []
    for eps in [eps0 * 2.0 ** -k for k in range(max(1, eps_depth))]:
        logv = eps * u + logphi
        ln_c = []
        for ud in depths:
            ln_c.append(_reference_ln_c(logv[u >= ud]))
        full, half = ln_c[-1], ln_c[depth_stops // 2 - 1]
        if not (full - half) > PLATEAU_THRESHOLD * full + 1e-9:
            candidates.append((math.exp(full), eps))
    if not candidates:
        return ()
    const, best_eps = min(candidates)
    return ((best_eps, const),)


def _reference_doubling(p, grid):
    logphi = on_grid(p, grid).ln_phi
    window = int(round(math.log(2.0) / grid.h))
    scan = grid.points < 0.25
    best = 0.0
    for off in range(-window, window + 1):
        if off == 0:
            continue
        i = np.arange(grid.n)
        j = i + off
        valid = (j >= 0) & (j < grid.n) & scan
        valid &= np.abs(off * grid.h) <= math.log(2.0) + 1e-12
        if np.any(valid):
            best = max(best, float(np.max(logphi[j[valid]]
                                          - logphi[i[valid]])))
    return math.exp(best)


def _reference_block_sup(xs, vals):
    j = np.maximum(np.floor(-np.log2(xs)).astype(int), 1)
    levels = np.arange(1, int(j.max(initial=0)) + 1)
    sups = np.full(levels.shape, -math.inf)
    for idx, lv in enumerate(levels):
        mask = j == lv
        if np.any(mask):
            sups[idx] = float(np.max(vals[mask]))
    keep = sups > -math.inf
    return levels[keep], sups[keep]


REFERENCE_EXPONENTS = [
    LogPerturbed(2.0, 1.0, 0.5),
    DyadicJump(2.0, (1.0, 0.5, 0.25), (2.0 ** -3, 2.0 ** -9, 2.0 ** -20)),
]


def _log_power_integral(k, ln_s, ln_t):
    """ln of the integral of e^(-k u) du over [ln s, ln t], k >= 0."""
    width = ln_t - ln_s
    if k == 0.0:
        return math.log(width)
    return -k * ln_s + math.log(-math.expm1(-k * width) / k)


def _closed_forms(p, a, delta):
    """C2, C4 and C5 at the scale a for a step exponent p, from the
    closed forms on each piece (s, t) of (a, delta), where p is constant:
    phi = x**(-(1 - 1/p)) and f_a = x^-1 integrate as powers of x, and
    the norm's modular is solved for 1 in ln lambda with brentq."""
    edges = [a, *(d for d in p.discontinuities() if a < d < delta), delta]
    pieces = [(p.eval(math.sqrt(s * t)), math.log(s), math.log(t))
              for s, t in zip(edges, edges[1:])]
    la = log_phi(p.eval(a), -math.log(a))
    c2 = sum(math.exp(_log_power_integral(1.0 - 1.0 / q, ln_s, ln_t) - la)
             for q, ln_s, ln_t in pieces)
    c4 = sum(math.exp(_log_power_integral(q - 1.0, ln_s, ln_t) - q * la)
             for q, ln_s, ln_t in pieces)

    def log_modular(sigma):
        terms = [_log_power_integral(q - 1.0, ln_s, ln_t) - q * sigma
                 for q, ln_s, ln_t in pieces]
        top = max(terms)
        return top + math.log(sum(math.exp(t - top) for t in terms))

    sigma = brentq(log_modular, -100.0, 100.0, xtol=1e-14, rtol=1e-15)
    return c2, c4, math.exp(sigma - la)


def _check_closed_forms(p, grid, delta, rel_c2_c4, rel_c5):
    verdicts = [criterion_C2(p, grid, delta=delta),
                criterion_C4(p, grid, delta=delta),
                criterion_C5(p, grid, delta=delta)]
    series = [v.series for v in verdicts]
    assert len(series[0]) == len(series[1]) == len(series[2]) > 10
    for (level, c2), (_, c4), (_, c5) in zip(*series):
        want = _closed_forms(p, 2.0 ** -level, delta)
        assert c2 == pytest.approx(want[0], rel=rel_c2_c4, abs=0.0)
        assert c4 == pytest.approx(want[1], rel=rel_c2_c4, abs=0.0)
        assert c5 == pytest.approx(want[2], rel=rel_c5, abs=0.0)


class TestClassifier:
    def test_constant_series_bounded(self):
        v = classify_series(range(10), [1.0] * 10)
        assert v.cls == "bounded"
        assert v.sup_value == 1.0

    def test_growing_series_divergent(self):
        v = classify_series(range(12), [0.5 * 1.6 ** k for k in range(12)])
        assert v.cls == "divergent"

    def test_decaying_series_bounded(self):
        # running sup plateaus early: a decaying series is bounded even
        # though naive last-third slope tests would be confused by it
        v = classify_series(range(12), [3.0 / (k + 1) for k in range(12)])
        assert v.cls == "bounded"
        assert v.sup_value == 3.0

    def test_late_spike_divergent(self):
        vals = [1.0] * 30 + [5.0, 5.0, 5.0]
        v = classify_series(range(33), vals)
        assert v.cls == "divergent"

    def test_all_nonpositive_bounded(self):
        v = classify_series(range(6), [-1.0, 0.0, -2.0, 0.0, -1.0, 0.0])
        assert v.cls == "bounded"
        assert v.sup_value == 0.0

    def test_overflow_divergent(self):
        v = classify_series(range(4), [1.0, 2.0, math.inf, 3.0])
        assert v.cls == "divergent"

    def test_empty_inconclusive(self):
        assert classify_series([], []).cls == "inconclusive"


class TestDecayConditions:
    def test_A_zero_for_constant(self, grid):
        v = condition_A(Constant(2.0), grid)
        assert v.cls == "bounded" and v.sup_value == 0.0

    def test_A_constant_value_for_a1(self, grid):
        # |p(x)-p(0)| * ln(1/x) = c identically for the 1/ln(1/x) family
        v = condition_A(LogPerturbed(2.0, 1.5, 1.0, "+"), grid)
        assert v.cls == "bounded"
        assert v.sup_value == pytest.approx(1.5, rel=1e-6)

    def test_A_divergent_for_a05(self, grid):
        v = condition_A(LogPerturbed(2.0, 1.0, 0.5, "+"), grid)
        assert v.cls == "divergent"
        # the deepest block value is about sqrt(ln(1/x_min))
        assert v.sup_value == pytest.approx(
            math.sqrt(math.log(1.0 / grid.x_min)), rel=0.05)

    def test_B_bounded_for_a05(self, grid):
        v = condition_B(LogPerturbed(2.0, 1.0, 0.5, "+"), grid)
        assert v.cls == "bounded"
        assert any("margin" in n for n in v.notes)


class TestIntegralCriteria:
    def test_C2_constant_two_approaches_conjugate(self, grid):
        # r(a) = (a^{-1/2}-1)*2 / a^{-1/2} -> p' = 2
        v = criterion_C2(Constant(2.0), grid)
        assert v.cls == "bounded"
        assert v.sup_value == pytest.approx(2.0, rel=1e-4)

    def test_C2_p_one_log_divergence(self, grid):
        v = criterion_C2(Constant(1.0), grid)
        assert v.cls == "divergent"
        # r(a) = ln(1/a): the deepest scanned value
        deepest = v.series[-1]
        assert deepest[1] == pytest.approx(deepest[0] * math.log(2.0),
                                           rel=1e-6)

    def test_C4_constant_two_closed_form(self, grid):
        # s(a) = integral_a^1 (phi/phi(a))^2 dx/x = 1 - a
        v = criterion_C4(Constant(2.0), grid)
        for level, value in v.series:
            assert value == pytest.approx(1.0 - 2.0 ** -level, rel=1e-9)

    def test_C5_constant_two_closed_form(self, grid):
        # ||1/x||_{L^2(a,1)} / a^{-1/2} = sqrt(1-a)
        v = criterion_C5(Constant(2.0), grid)
        for level, value in v.series:
            assert value == pytest.approx(math.sqrt(1.0 - 2.0 ** -level),
                                          rel=1e-6)

    @pytest.mark.parametrize("p", [
        LogPerturbed(2.0, 1.0, 0.5),
        PiecewiseConstant((2.0 ** -10, 0.3), (2.0, 2.5, 3.0))])
    def test_scales_match_the_scalar_loop(self, grid, p):
        # ln phi(a) from one vector evaluation of p at every scale a
        # against the per-a scalar formula it replaced
        a_list = default_a_list(grid, 1.0, A_DEPTH)
        _, levels, ln_phi_a = _scales(p, grid, a_list)
        assert len(a_list) == len(levels) == len(ln_phi_a) > 30
        for a, level, la in zip(a_list, levels, ln_phi_a):
            assert level == -math.log2(a)
            assert la == pytest.approx(log_phi(p.eval(a), math.log(1.0 / a)),
                                       rel=4.5e-16, abs=0.0)

    @pytest.mark.parametrize("p", [
        REFERENCE_EXPONENTS[1],
        catalog_exponent("step-interior").exponent,
        PiecewiseConstant((1e-7, 1e-3, 0.3), (1.5, 2.5, 2.0, 3.0))])
    @pytest.mark.parametrize("delta", [1.0, 0.2])
    def test_step_exponent_closed_forms(self, grid, p, delta):
        # p is constant between its jumps, so the jump-aware cells are
        # exact: C2 and C4 up to rounding, C5 up to the norm's tolerance
        _check_closed_forms(p, grid, delta, 1e-13, 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(math.log(1e-8), -1e-3), min_size=1,
                    max_size=3, unique=True),
           st.lists(st.floats(1.2, 4.0), min_size=4, max_size=4),
           st.sampled_from([1.0, 0.3]))
    def test_random_step_closed_forms(self, ln_breaks, values, delta):
        # jumps anywhere, also inside the cell of a scale a or of delta
        breaks = sorted(set(math.exp(b) for b in ln_breaks))
        p = PiecewiseConstant(breaks, values[:len(breaks) + 1])
        _check_closed_forms(p, make_log_grid(1e-8, 241), delta, 1e-11, 1e-9)

    def test_C3_constant_two_witness(self, grid):
        v = criterion_C3(Constant(2.0), grid)
        assert v.cls == "bounded"
        ((best_eps, const),) = v.series
        assert best_eps > 0.0 and v.sup_value == const
        assert const == pytest.approx(1.0, abs=1e-9)

    def test_C3_p_one_divergent(self, grid):
        v = criterion_C3(Constant(1.0), grid)
        assert v.series == ()
        assert v.cls == "divergent"


class TestVectorScansMatchTheLoops:
    @pytest.mark.parametrize("p", REFERENCE_EXPONENTS)
    @pytest.mark.parametrize("delta", [1.0, 0.2])
    def test_C3(self, grid, p, delta):
        assert (criterion_C3(p, grid, delta=delta).series
                == _reference_C3(p, grid, delta))

    @pytest.mark.parametrize("p", REFERENCE_EXPONENTS + [Constant(1.0)])
    def test_doubling(self, grid, p):
        assert phi_doubling(p, grid) == _reference_doubling(p, grid)

    @pytest.mark.parametrize("p", REFERENCE_EXPONENTS)
    def test_block_sup(self, grid, p):
        xs = _scan_points(grid, grid.x_min)
        vals = np.abs(p.eval(xs) - 2.0) * (-np.log(xs))
        vals[::7] = -math.inf  # some points, and one whole block, drop out
        vals[(xs > 0.25) & (xs <= 0.5)] = -math.inf
        for got, ref in zip(_dyadic_block_sup(xs, vals),
                            _reference_block_sup(xs, vals)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        for got, ref in zip(_dyadic_block_sup(xs[:0], vals[:0]),
                            _reference_block_sup(xs[:0], vals[:0])):
            assert got.dtype == ref.dtype and got.size == ref.size == 0


class TestAlmostDecreasing:
    """The rule that ``_reference_C3``, and so criterion_C3, applies."""

    def test_decreasing_gives_one(self):
        assert _reference_ln_c(np.log([4.0, 2.0, 1.0])) == 0.0

    def test_single_bump(self):
        assert _reference_ln_c(np.log([1.0, 0.5, 2.0, 0.1])) \
            == pytest.approx(math.log(4.0), rel=1e-15)


class TestOscillationAndDoubling:
    def test_oscillation_zero_for_constant(self, grid):
        verdict = dyadic_oscillation(Constant(2.0), grid)
        assert verdict.sup_value == 0.0 and verdict.cls == "bounded"

    @pytest.mark.parametrize("name", ["constant-2", "dyadic-jump-default"])
    def test_oscillation_scans_only_below_a_quarter(self, grid, name):
        # x <= 1/4 lies in the dyadic blocks j >= 2; the block edge 1/2
        # must not add a level-1 entry read from p(1) and p(1/2)
        verdict = dyadic_oscillation(catalog_exponent(name).exponent, grid)
        levels = [level for level, _ in verdict.series]
        assert levels and min(levels) >= 2

    def test_doubling_sqrt2_for_constant_two(self, grid):
        assert phi_doubling(Constant(2.0), grid) == pytest.approx(
            math.sqrt(2.0), rel=1e-2)

    def test_doubling_one_for_p_one(self, grid):
        assert phi_doubling(Constant(1.0), grid) == pytest.approx(1.0)


class TestAudit:
    def test_interior_jump_localizes_delta(self, grid):
        # nondecreasing everywhere: delta stays 1
        rep = equivalence_audit(PiecewiseConstant((0.5,), (2.0, 3.0)), grid,
                                exponent_id="step")
        assert rep.delta == 1.0
        assert rep.agreement

    def test_nonmonotone_with_clean_prefix(self, grid):
        # rises then falls: nondecreasing only on (0, 0.6), so the
        # criterion integrals are cut exactly there; p's peak is exact
        for p in (PiecewiseConstant((0.3, 0.6), (2.0, 3.0, 2.5)),
                  PiecewiseLinear((0.3, 0.6, 0.9), (2.0, 3.0, 2.5))):
            rep = equivalence_audit(p, grid, exponent_id="up-down")
            assert rep.delta == 0.6
            assert rep.monotonicity == "nondecreasing"
            assert rep.p_plus == 3.0
            assert not any("approximat" in note for note in rep.notes)
            assert rep.agreement

    def test_report_serializes(self, grid):
        import json
        rep = equivalence_audit(catalog_exponent("constant-2").exponent, grid,
                                exponent_id="constant-2")
        text = json.dumps(rep.to_dict(), sort_keys=True)
        assert "verdicts" in text

    def test_expected_divergent_flag_for_p_one(self, grid):
        rep = equivalence_audit(Constant(1.0), grid, exponent_id="p-one")
        assert rep.expected_class == "divergent"
        assert rep.agreement

    def test_expected_bounded_for_constant_p_two(self, coarse_grid):
        rep = equivalence_audit(catalog_exponent("constant-2").exponent,
                                coarse_grid, exponent_id="constant-2")
        assert rep.expected_class == "bounded"
        assert rep.agreement

    def test_one_full_grid_p_eval_per_audit(self, coarse_grid, monkeypatch):
        # p at the nodes, its jump sides and ln phi are sampled once and
        # shared by C2-C5, the doubling check and every C1 family, and so
        # is the layout of p's pieces that every modular job is cut from
        sizes, layouts = [], []
        original, layout = ExponentFunction.eval, exponent.PieceLayout

        def counted(self, x):
            sizes.append(np.size(x))
            return original(self, x)

        def built(*args):
            layouts.append(args)
            return layout(*args)

        monkeypatch.setattr(ExponentFunction, "eval", counted)
        monkeypatch.setattr(exponent, "PieceLayout", built)
        p = PiecewiseConstant((1e-4, 0.1), (2.0, 2.5, 3.0))
        rep = equivalence_audit(p, coarse_grid)
        assert set(rep.verdicts) >= {"A", "B", "C1", "C2", "C3", "C4", "C5"}
        labels = {q[0].split(":")[0] for q in rep.empirical_c1.quotients}
        assert labels == {"power", "necessity", "dyadic"}
        assert sizes.count(coarse_grid.n) == 1
        assert len(layouts) == 1


def _refuse(*args, **kwargs):
    raise AssertionError("called for a criterion that was not requested")


class TestRequestedCriteria:
    """The audit computes only what ``criteria_names`` asks for: C5's
    norm solves only with C5, C1's sweep only with C1."""

    WITHOUT_C1_C5 = ("A", "B", "C2", "C3", "C4")

    @pytest.fixture(params=[LogPerturbed(2.0, 1.0, 0.5),
                            PiecewiseConstant((1e-4, 0.1), (2.0, 2.5, 3.0))],
                    ids=["log-perturbed", "step"])
    def p(self, request):
        return request.param

    def test_no_norm_solve_without_C5(self, coarse_grid, p, monkeypatch):
        monkeypatch.setattr(lpnorm, "_solve", _refuse)
        rep = equivalence_audit(p, coarse_grid,
                                criteria_names=self.WITHOUT_C1_C5)
        assert set(rep.verdicts) == {*self.WITHOUT_C1_C5, "oscillation"}

    def test_no_C1_sweep_without_C1(self, coarse_grid, p, monkeypatch):
        monkeypatch.setattr(criteria, "operator_norm_lower_bound", _refuse)
        rep = equivalence_audit(p, coarse_grid, criteria_names=("C2", "C5"))
        assert rep.empirical_c1 is None
        assert rep.to_dict()["operator_norm_lower_bound"] is None
        assert "C1" not in rep.verdicts
        assert any(n.startswith("C1 was not requested") for n in rep.notes)

    def test_C2_and_C4_alone_solve_no_norm(self, coarse_grid, p,
                                           monkeypatch):
        monkeypatch.setattr(lpnorm, "_solve", _refuse)
        assert criterion_C2(p, coarse_grid).series
        assert criterion_C4(p, coarse_grid).series

    def test_C2_and_C4_do_not_depend_on_C5(self, coarse_grid, p,
                                           monkeypatch):
        full = equivalence_audit(p, coarse_grid)
        monkeypatch.setattr(lpnorm, "_solve", _refuse)
        alone = equivalence_audit(p, coarse_grid,
                                  criteria_names=self.WITHOUT_C1_C5)
        for name in ("C2", "C4"):
            assert alone.verdicts[name].series == full.verdicts[name].series
            assert (alone.verdicts[name].to_dict()
                    == full.verdicts[name].to_dict())
        assert (criterion_C2(p, coarse_grid).series
                == full.verdicts["C2"].series)
