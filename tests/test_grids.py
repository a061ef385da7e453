import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyvx import (
    DivergentHeadError,
    SampledFunction,
    cumulative_integral,
    integrate,
    integrate_dlog,
    make_log_grid,
)
from hardyvx.grids import GridError, head_fit

from conftest import power_function


class TestGridConstruction:
    def test_endpoints_pinned(self, grid):
        assert grid.points[0] == pytest.approx(grid.x_min)
        assert grid.points[-1] == 1.0

    def test_uniform_in_log(self, grid):
        assert np.allclose(np.diff(grid.u), grid.h)

    def test_too_few_points(self):
        with pytest.raises(GridError):
            make_log_grid(1e-6, 8)


class TestExactPowerIntegration:
    @pytest.mark.parametrize("q", [-0.9, -0.5, 0.0, 0.7, 2.0])
    def test_integrate_power(self, grid, q):
        f = power_function(grid, q)
        exact = (1.0 - grid.x_min ** (q + 1.0)) / (q + 1.0)
        assert integrate(f, grid.x_min, 1.0) == pytest.approx(exact,
                                                              rel=1e-12)

    def test_integrate_dlog_power(self, grid):
        # integral of x^q dx/x over (a,b) = (b^q - a^q)/q
        f = power_function(grid, 0.5)
        a, b = 1e-6, 0.3
        exact = (b ** 0.5 - a ** 0.5) / 0.5
        assert integrate_dlog(f, a, b) == pytest.approx(exact, rel=1e-12)

    def test_head_extrapolation(self, grid):
        # full integral from 0 picks up the closed-form head below x_min
        f = power_function(grid, -0.5)
        assert integrate(f, 0.0, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_divergent_head_raises(self, grid):
        f = power_function(grid, -1.2)
        with pytest.raises(DivergentHeadError):
            integrate(f, 0.0, 1.0)

    def test_head_fit_recovers_exponent(self, grid):
        v0, q = head_fit(power_function(grid, -0.25, coeff=3.0))
        assert q == pytest.approx(-0.25, rel=1e-9)
        assert v0 == pytest.approx(3.0 * grid.x_min ** -0.25, rel=1e-9)


class TestSupportsAndSegments:
    def test_zero_outside_support(self, grid):
        f = power_function(grid, 0.0, support=(0.25, 0.5))
        assert f.evaluate(np.array([0.2]))[0] == 0.0
        assert f.evaluate(np.array([0.3]))[0] == 1.0

    def test_segment_integral_is_log2_for_inverse_x(self, grid):
        # integral of 1/x over (a/2, a) is exactly ln 2 at any scale
        for j in (3, 10, 25):
            a = 2.0 ** -j
            f = power_function(grid, -1.0, support=(a / 2.0, a))
            assert integrate(f, grid.x_min, 1.0) == pytest.approx(
                math.log(2.0), rel=1e-12)

    def test_steep_jump_outside_bounds(self, grid):
        # a cell far below [a, b] jumps by 200 decades; clipping must
        # keep its power law inside the cell so it contributes exactly 0
        g = SampledFunction(grid, np.where(grid.points < 1e-6, 1.0, 1e200))
        assert integrate(g, 0.5, 1.0) == pytest.approx(0.5e200, rel=1e-12)
        assert integrate_dlog(g, 0.5, 1.0) == pytest.approx(
            1e200 * math.log(2.0), rel=1e-12)

    def test_additivity_at_arbitrary_cut(self, grid):
        f = power_function(grid, -0.3)
        whole = integrate(f, grid.x_min, 1.0)
        cut = 0.01234
        split = integrate(f, grid.x_min, cut) + integrate(f, cut, 1.0)
        assert split == pytest.approx(whole, rel=1e-12)


class TestCumulativeIntegral:
    def test_matches_closed_form_for_power(self, grid):
        f = power_function(grid, -0.25)
        F = cumulative_integral(f)
        exact = grid.points ** 0.75 / 0.75
        assert np.max(np.abs(F.values / exact - 1.0)) < 1e-12

    def test_supported_segment(self, grid):
        f = power_function(grid, 0.0, support=(0.25, 0.5))
        F = cumulative_integral(f)
        i = grid.index_left(0.7)
        assert F.values[i] == pytest.approx(0.25, rel=1e-9)
        assert F.values[grid.index_left(0.1)] == 0.0

    def test_monotone(self, grid):
        f = power_function(grid, -0.5)
        F = cumulative_integral(f)
        assert np.all(np.diff(F.values) >= 0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-0.8, 1.5), st.floats(0.05, 0.9))
    def test_property_cumulative_equals_integrate(self, q, frac):
        grid = make_log_grid(1e-8, 241)
        f = power_function(grid, q)
        x = grid.points[int(frac * (grid.n - 1))]
        F = cumulative_integral(f)
        direct = integrate(f, 0.0, float(x))
        i = grid.index_left(float(x))
        assert F.values[i] == pytest.approx(direct, rel=1e-9, abs=1e-300)
