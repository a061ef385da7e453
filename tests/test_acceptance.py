"""End-to-end acceptance checks, one test (and one pass/fail line) each.

Run with ``pytest -v tests/test_acceptance.py`` to see the per-criterion
lines.  Each test also prints an ``ACCEPTANCE n: PASS`` line on success.
"""

import math
import time

import numpy as np
import pytest

from hardyvx import (
    Constant,
    bracket_check,
    condition_A,
    equivalence_audit,
    hardy_average,
    hardy_average_scaled,
    luxemburg_norm,
    make_log_grid,
    modular,
    necessity_test_function,
    operator_norm_lower_bound,
)
from hardyvx.catalog import CATALOG
from hardyvx.cli import main
from hardyvx.criteria import classify_series
from hardyvx.exponent import PiecewiseConstant
from hardyvx.hardy import (
    dyadic_indicator_family,
    necessity_family,
    power_family,
)

from conftest import power_function, random_piecewise_power

NONDECREASING = ("constant-2", "constant-3", "p-one", "log-perturbed-a1",
                 "log-perturbed-a05", "loglog-perturbed", "step-interior",
                 "piecewise-linear", "dyadic-jump-default")
BOUNDED_SET = ("constant-2", "constant-3", "log-perturbed-a1",
               "log-perturbed-a05", "loglog-perturbed", "step-interior",
               "piecewise-linear")
DIVERGENT_SET = ("p-one", "dyadic-jump-default")


@pytest.fixture(scope="module")
def audits(grid):
    t0 = time.perf_counter()
    reports = {e.name: equivalence_audit(e.exponent, grid,
                                         exponent_id=e.name)
               for e in CATALOG}
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


def test_acceptance_01_norm_oracle_constant_exponent(grid):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        p0 = rng.uniform(1.1, 5.0)
        q_hi = 0.9 / p0  # keep |f|^p integrable with margin
        segs, data = random_piecewise_power(grid, rng,
                                            q_range=(-q_hi * 0.9, 0.6))
        I = sum(c ** p0 * (hi ** (q * p0 + 1.0) - lo ** (q * p0 + 1.0))
                / (q * p0 + 1.0) for lo, hi, c, q in data)
        oracle = I ** (1.0 / p0)
        nv = luxemburg_norm(segs, Constant(p0))
        worst = max(worst, abs(nv.value / oracle - 1.0))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8, worst
    assert elapsed < 10.0, elapsed
    _ok(1, f"50 norm oracles, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_02_modular_norm_bracket(grid):
    rng = np.random.default_rng(202)
    for _ in range(100):
        p1, p2 = rng.uniform(1.1, 5.0, size=2)
        cut = math.exp(rng.uniform(math.log(1e-6), math.log(0.9)))
        p = PiecewiseConstant((cut,), (float(p1), float(p2)))
        segs, _ = random_piecewise_power(grid, rng, q_range=(-0.15, 0.5))
        rep = bracket_check(segs, p)
        assert rep.slack_lower >= -1e-9, rep
        assert rep.slack_upper >= -1e-9, rep
    _ok(2, "bracket chains hold for 100 randomized (f, two-valued p) pairs")


def test_acceptance_03_necessity_modular_is_log2(grid):
    worst = 0.0
    for entry in CATALOG:
        for j in range(1, 31):
            f0 = necessity_test_function(entry.exponent, grid, 2.0 ** -j)
            mv = modular(f0, entry.exponent)
            worst = max(worst, abs(mv.value - math.log(2.0)))
    assert worst < 1e-6, worst
    _ok(3, f"modular(f0) = ln 2 across 10 exponents x 30 scales, "
           f"worst abs err {worst:.2e}")


def test_acceptance_04_classical_constant_p_two(grid):
    p = Constant(2.0)
    members = (power_family(p, grid) + necessity_family(p, grid, depth=30)
               + dyadic_indicator_family(grid))
    res = operator_norm_lower_bound(p, members)
    quotient_values = [q[2] for q in res.quotients]
    assert max(quotient_values) <= 2.0 + 1e-3
    beta049 = next(q[2] for q in res.quotients
                   if q[0] == "power:beta=0.49")
    assert beta049 >= 1.95
    _ok(4, f"p=2: all quotients <= 2+1e-3, beta=0.49 reaches {beta049:.4f}")


def test_acceptance_05_nonincreasing_case(grid, audits):
    rep = audits[0]["nonincreasing-log"]
    assert rep.monotonicity.startswith("nonincreasing")
    exponent = next(e.exponent for e in CATALOG
                    if e.name == "nonincreasing-log")
    a_verdict = condition_A(exponent, grid)
    assert a_verdict.cls == "divergent"
    levels, series = rep.empirical_c1.level_series()
    c1 = classify_series(levels, series)
    assert c1.cls == "bounded"
    last = np.asarray(series[-max(2, len(series) // 3):])
    variation = (last.max() - last.min()) / last.max()
    assert variation < 0.10, variation
    _ok(5, f"nonincreasing-log: A divergent yet operator norm stable "
           f"(last-third variation {variation:.3f})")


def test_acceptance_06_equivalence_audit(grid, audits):
    reports, elapsed = audits
    for name in NONDECREASING:
        classes = {reports[name].verdicts[k].cls
                   for k in ("C2", "C3", "C4", "C5")}
        assert len(classes) == 1, (name, classes)
    for name in BOUNDED_SET:
        assert reports[name].verdicts["C2"].cls == "bounded", name
    for name in DIVERGENT_SET:
        assert reports[name].verdicts["C2"].cls == "divergent", name
    assert elapsed < 120.0, elapsed
    assert main(["audit-all"]) == 0
    _ok(6, f"C2-C5 coincide on all nondecreasing entries; classes as "
           f"expected; audit-all exits 0; {elapsed:.0f}s")


def test_acceptance_07_strictly_weaker_decay_condition(grid, audits):
    rep = audits[0]["log-perturbed-a05"]
    assert rep.verdicts["A"].cls == "divergent"
    assert rep.verdicts["B"].cls == "bounded"
    _ok(7, "log-perturbed-a05: A divergent and B bounded in one report")


def test_acceptance_08_c5_dominates_c4(grid, audits):
    reports, _ = audits
    for name, rep in reports.items():
        exponent = next(e.exponent for e in CATALOG if e.name == name)
        s_series = dict(rep.verdicts["C4"].series)
        r_series = dict(rep.verdicts["C5"].series)
        for level, s_val in s_series.items():
            r_val = r_series[level]
            a = 2.0 ** -level
            p_lo, p_hi = exponent.bounds((a, rep.delta))
            bound = max(r_val ** p_lo, r_val ** p_hi)
            assert s_val <= bound * (1.0 + 1e-6) + 1e-9, (name, level)
    _ok(8, "s(a) <= bracket bound from the C5 ratio on every entry/scale")


def test_acceptance_09_dual_path_hardy(grid):
    worst = 0.0
    for entry in CATALOG:
        p = entry.exponent
        p_minus, _ = p.bounds((0.0, 1.0))
        beta = min(0.3, 0.5 / p_minus)
        tests = [
            necessity_test_function(p, grid, 2.0 ** -8),
            power_function(grid, -beta),
            power_function(grid, 0.0, support=(2.0 ** -5, 2.0 ** -4)),
        ]
        for f in tests:
            h1 = hardy_average(f).values
            h2 = hardy_average_scaled(f).values
            ok = h1 > 0.0
            worst = max(worst, float(np.max(np.abs(h2[ok] / h1[ok] - 1.0))))
    assert worst < 1e-6, worst
    _ok(9, f"dual-path agreement on all catalog test functions, "
           f"worst rel diff {worst:.2e}")


def test_acceptance_10_grid_refinement_stability(grid, audits):
    reports, _ = audits
    fine = make_log_grid(1e-12, 2401)
    worst = 0.0
    for entry in CATALOG:
        coarse_rep = reports[entry.name]
        fine_rep = equivalence_audit(entry.exponent, fine,
                                     exponent_id=entry.name)
        for key, verdict in coarse_rep.verdicts.items():
            if verdict.cls != "bounded" or verdict.sup_value == 0.0:
                continue
            fv = fine_rep.verdicts[key]
            change = abs(fv.sup_value / verdict.sup_value - 1.0)
            assert change < 0.02, (entry.name, key, change)
            worst = max(worst, change)
    _ok(10, f"bounded sup values stable under grid doubling, "
            f"worst change {worst:.2%}")
