import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyvx import (
    Constant,
    PiecewiseConstant,
    SampledFunction,
    bracket_check,
    luxemburg_norm,
    make_log_grid,
    modular,
    norm_of_inverse_x,
)

from conftest import power_function


class TestModular:
    def test_constant_exponent_power(self, grid):
        # integral of x^{-1/2} over (x_min, 1) with p = 2 applied to x^{-1/4}
        f = power_function(grid, -0.25)
        mv = modular(f, Constant(2.0))
        exact = 2.0 * (1.0 - math.sqrt(grid.x_min))
        assert mv.value == pytest.approx(exact, rel=1e-12)

    def test_truncation_bias_reported(self, grid):
        f = power_function(grid, -0.25)
        mv = modular(f, Constant(2.0))
        # the missing head integral of x^{-1/2} over (0, x_min)
        assert mv.truncation_bias == pytest.approx(
            2.0 * math.sqrt(grid.x_min), rel=1e-9)

    def test_overflow_is_infinite(self, grid):
        f = power_function(grid, -0.5, coeff=1e200)
        mv = modular(f, Constant(5.0))
        assert not mv.finite

    def test_divergent_head_flagged_in_bias(self, grid):
        # x^{-0.9} under p = 5 integrates on (x_min, 1) but its true
        # modular diverges at 0; the bias estimate reports that honestly
        f = power_function(grid, -0.9)
        mv = modular(f, Constant(5.0))
        assert mv.finite
        assert mv.truncation_bias == math.inf

    def test_two_valued_exponent_split_exact(self, grid):
        p = PiecewiseConstant((0.5,), (2.0, 3.0))
        f = power_function(grid, -0.1)
        lo_part = (1.0 - grid.x_min ** 0.8) / 0.8 - (1.0 - 0.5 ** 0.8) / 0.8
        hi_part = (1.0 - 0.5 ** 0.7) / 0.7
        assert modular(f, p).value == pytest.approx(lo_part + hi_part,
                                                    rel=1e-12)


class TestLuxemburgNorm:
    def test_matches_lp_norm_constant_exponent(self, grid):
        f = power_function(grid, -0.25)
        nv = luxemburg_norm(f, Constant(2.0))
        exact = math.sqrt(2.0 * (1.0 - math.sqrt(grid.x_min)))
        assert nv.value == pytest.approx(exact, rel=1e-9)

    def test_norm_of_one_is_one(self, grid):
        f = power_function(grid, 0.0)
        # interval (x_min, 1) has measure 1 - x_min, so the norm of the
        # constant 1 is (1 - x_min)^{1/p}
        nv = luxemburg_norm(f, Constant(2.0))
        assert nv.value == pytest.approx(math.sqrt(1.0 - grid.x_min),
                                         rel=1e-9)

    def test_zero_function(self, grid):
        f = SampledFunction(grid, np.zeros(grid.n))
        assert luxemburg_norm(f, Constant(2.0)).value == 0.0

    def test_modular_at_norm_is_at_most_one(self, grid):
        from hardyvx.grids import scaled
        f = power_function(grid, -0.3, coeff=2.5)
        p = Constant(1.7)
        nv = luxemburg_norm(f, p)
        assert modular(scaled([f], 1.0 / nv.value), p).value <= 1.0 + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.1, 50.0), st.floats(-0.4, 0.4), st.floats(1.1, 4.0))
    def test_property_homogeneity(self, c, q, p0):
        grid = make_log_grid(1e-8, 241)
        p = Constant(p0)
        f1 = power_function(grid, q, 1.0)
        fc = power_function(grid, q, c)
        n1 = luxemburg_norm(f1, p).value
        nc = luxemburg_norm(fc, p).value
        assert nc == pytest.approx(c * n1, rel=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(1.1, 4.0), st.floats(-0.5, 0.5))
    def test_property_modular_decreases_in_lambda(self, p0, q):
        from hardyvx.grids import scaled
        grid = make_log_grid(1e-8, 241)
        f = power_function(grid, q, coeff=2.0)
        p = Constant(p0)
        vals = [modular(scaled([f], 1.0 / lam), p).value
                for lam in (0.5, 1.0, 2.0, 8.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestBracket:
    def test_bracket_report_passes(self, grid):
        p = PiecewiseConstant((0.3,), (1.5, 2.5))
        f = power_function(grid, -0.2, coeff=0.7)
        rep = bracket_check(f, p)
        assert rep.passed, (rep.slack_lower, rep.slack_upper)

    def test_bracket_both_sides_of_one(self, grid):
        p = PiecewiseConstant((0.6,), (2.0, 3.0))
        for coeff in (0.05, 20.0):
            rep = bracket_check(power_function(grid, 0.1, coeff=coeff), p)
            assert rep.passed


class TestNormOfInverseX:
    @pytest.mark.parametrize("p0", [2.0, 30.0, 60.0])
    def test_closed_form_p_two(self, grid, p0):
        # ||1/x||_{L^p(a,1)} = ((a^{1-p} - 1)/(p - 1))^{1/p}, in log space;
        # for large p the nodes below a overflow and must not count
        for a in (0.25, 0.04):
            k = (p0 - 1.0) * math.log(1.0 / a)
            log_mod = k + math.log(-math.expm1(-k)) - math.log(p0 - 1.0)
            nv = norm_of_inverse_x(Constant(p0), grid, a)
            assert nv.value == pytest.approx(math.exp(log_mod / p0),
                                             rel=1e-9)

    def test_p_one_log(self, grid):
        # L^1 norm of 1/x over (a,1) is ln(1/a)
        a = 2.0 ** -8
        nv = norm_of_inverse_x(Constant(1.0), grid, a)
        assert nv.value == pytest.approx(math.log(1.0 / a), rel=1e-9)

    def test_delta_restriction(self, grid):
        nv = norm_of_inverse_x(Constant(2.0), grid, 0.1, delta=0.5)
        assert nv.value == pytest.approx(math.sqrt(1.0 / 0.1 - 1.0 / 0.5),
                                         rel=1e-9)
