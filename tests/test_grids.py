import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hardyvx import (
    DivergentHeadError,
    SampledFunction,
    cumulative_integral,
    integrate,
    integrate_dlog,
    make_log_grid,
)
from hardyvx.grids import (
    GridError,
    _cell_integrals,
    _cumulative_integrals,
    _linear_cells,
    head_fit,
)

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
        g = power_function(grid, -0.25, coeff=3.0)
        v0, q = head_fit(g.values[0], g.values[1], grid)
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
        i = grid.node_slice(0.7, 1.0).start
        assert F.values[i] == pytest.approx(0.25, rel=1e-9)
        assert F.values[grid.node_slice(0.1, 1.0).start] == 0.0

    def test_segments_add_in_order(self, grid):
        # a segment list integrates to the sum of its segments' integrals,
        # added in segment order, however the segments are batched
        segs = [power_function(grid, -0.4),
                power_function(grid, 0.0, coeff=3.0, support=(0.01, 0.1)),
                power_function(grid, 0.3, coeff=2.0, support=(0.1, 0.7))]
        parts = [cumulative_integral(seg).values for seg in segs]
        whole = cumulative_integral(segs).values
        assert np.array_equal(whole, (parts[0] + parts[1]) + parts[2])
        assert np.array_equal(whole, _cumulative_integrals(
            [segs[1], segs, segs[:2]])[0][1])

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
        i = grid.node_slice(float(x), 1.0).start
        assert F.values[i] == pytest.approx(direct, rel=1e-9, abs=1e-300)


class TestCellKernel:
    # cell ends and clipped ends on a dyadic lattice, so s - u0 and the
    # clipped fractions are exact and quad sees the same cell as the kernel
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 64 * 60), st.integers(1, 2 * 4096),
           st.integers(0, 4095), st.integers(1, 4096),
           st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6),
                     st.floats(-0.6, 0.6), st.floats(-600.0, 600.0)),
           st.floats(-30.0, 30.0), st.sampled_from(["none", "left", "right"]),
           st.booleans())
    def test_property_matches_quad(self, i0, ih, k0, width, z, top,
                                   zero_end, weight_x):
        # |z| = |ln g1 - ln g0| from 0 past 0.5 to 600; k0 = 0 and
        # k0 + width >= 4096 are the unclipped ends
        u0, h = -i0 / 64, ih / 4096
        u1, w0 = u0 + h, k0 / 4096
        s, t = u0 + w0 * h, u0 + min(k0 + width, 4096) / 4096 * h
        l0, l1 = (top, top - z) if z > 0 else (top + z, top)
        g0, g1 = math.exp(l0), math.exp(l1)
        if zero_end == "left":
            g0 = 0.0
        elif zero_end == "right":
            g1 = 0.0
        got = _cell_integrals(np.array([u0, u1]), np.array([g0, g1]),
                              np.array([s]), np.array([t]),
                              weight_x=weight_x)[0]

        def weight(r):
            return math.exp(s + r) if weight_x else 1.0

        if g0 > 0.0 and g1 > 0.0:
            # ln g is linear across the cell; factor out its largest value
            L0, L1 = math.log(g0), math.log(g1)

            def log_g(r):
                return L0 + (L1 - L0) * (w0 + r / h)

            peak = max(log_g(0.0), log_g(t - s))
            ref = quad(lambda r: math.exp(log_g(r) - peak) * weight(r),
                       0.0, t - s, epsabs=0.0, epsrel=2e-14, limit=500)[0]
            ref *= math.exp(peak)
        else:
            ref = quad(lambda r: (g0 + (g1 - g0) * (w0 + r / h)) * weight(r),
                       0.0, t - s, epsabs=0.0, epsrel=2e-14, limit=500)[0]
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("widths", [
        [1e-2], [np.nextafter(1e-2, 0.0)], [1e-9, 1e-4, 9.99e-3],
        [0.023, 0.5, 3.0],
        [0.0, 1e-3, 1e-2, 0.023, 2.0, np.nextafter(1e-2, 0.0)],
    ])
    def test_linear_cells_branches_bit_for_bit(self, widths):
        # each branch on its own cells gives the values of both branches
        # evaluated everywhere and picked by np.where, on widths at and
        # on both sides of the Taylor cut-off 1e-2
        rng = np.random.default_rng(7)
        s = np.zeros(len(widths))
        t = s + widths
        dt = t - s
        assert np.array_equal(dt, widths)
        g_s, g_t = rng.uniform(0.0, 5.0, (2, dt.size))
        small = dt < 1e-2
        x = np.where(small, 1.0, dt)
        e = np.expm1(x)
        a = np.where(small, 1/2 + dt * (1/6 + dt * (1/24 + dt * (
            1/120 + dt * (1/720 + dt / 5040)))), (e - x) / (x * x))
        b = np.where(small, 1/2 + dt * (1/3 + dt * (1/8 + dt * (
            1/30 + dt * (1/144 + dt / 840)))), (x * e - e + x) / (x * x))
        both = np.exp(s) * dt * (g_s * a + g_t * b)
        assert np.array_equal(_linear_cells(g_s, g_t, s, t, True), both)
