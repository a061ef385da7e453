import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyvx import (
    Constant,
    DyadicJump,
    LogLogPerturbed,
    LogPerturbed,
    PiecewiseConstant,
    PiecewiseLinear,
    Tabulated,
    conjugate_reciprocal,
)
from hardyvx.exponent import DomainError, Germ, log_phi


class TestConstruction:
    def test_constant_below_one_rejected(self):
        with pytest.raises(ValueError):
            Constant(0.9)

    def test_piecewise_constant_shape(self):
        with pytest.raises(ValueError):
            PiecewiseConstant((0.5,), (2.0,))

    def test_dyadic_jump_scales_must_decrease(self):
        with pytest.raises(ValueError):
            DyadicJump(2.0, (0.1, 0.1), (0.25, 0.5))

    def test_domain(self):
        p = Constant(2.0)
        with pytest.raises(DomainError):
            p.eval(0.0)
        with pytest.raises(DomainError):
            p.eval(1.5)
        assert p.eval(1.0) == 2.0


class TestEvaluation:
    def test_log_perturbed_plus(self):
        p = LogPerturbed(2.0, 1.0, 1.0, "+")
        x = 1e-4
        assert p.eval(x) == pytest.approx(2.0 + 1.0 / math.log(1.0 / x))
        assert p.limit_at_origin() == 2.0

    def test_log_perturbed_minus_floors_at_one(self):
        p = LogPerturbed(3.0, 1.0, 0.5, "-")
        # at x = e^{-1/4} the unclamped value would dip to 1
        assert p.eval(0.9) == 1.0
        assert p.eval(1e-9) > 2.7

    def test_extreme_parameters_take_their_limits_silently(self):
        # eta**alpha past the largest double makes c/eta**alpha its limit
        # 0, and the germ of samples from the smallest double takes no
        # ln 0; a RuntimeWarning would fail the suite
        x = np.array([1e-300, 1e-12, 0.5, 0.9, 1.0])
        minus = LogPerturbed(297.0, 447.2036440863224, 350.0, "-").eval(x)
        assert minus.tolist() == [297.0, 297.0, 1.0, 1.0, 1.0]
        plus = LogPerturbed(224.0, 999.0, 337.2025318135346, "+").eval(x)
        assert plus[:2].tolist() == [224.0, 224.0]
        assert np.all(np.isfinite(plus))
        germ = Tabulated((5e-324, 1.0), (1.0, 1.0)).germ()
        assert (germ.p0, germ.constant_below) == (1.0, 1.0)

    def test_log_perturbed_plus_needs_a_finite_p_plus(self):
        # ETA_FLOOR**alpha underflows to 0: p_plus would be inf
        with pytest.raises(ValueError, match="p_plus"):
            LogPerturbed(928.0, 5e-324, 385.4704670888932, "+")

    def test_tabulated_is_its_first_value_below_its_first_knot(self):
        # also where the second knot shares the first's log, and at the
        # germ, which reads p below the first knot
        xs = (0.005779692884153314, 0.005779692884153315, 1.0)
        assert math.log(xs[0]) == math.log(xs[1])
        p = Tabulated(xs, (1.091, 2.462, 2.719))
        assert p.eval(np.array([1e-3, 0.005])).tolist() == [1.091, 1.091]
        assert p.germ().p0 == 1.091

    def test_loglog_perturbed_limit(self):
        p = LogLogPerturbed(2.0, 1.0)
        assert p.limit_at_origin() == 2.0
        x = 1e-8
        eta = math.log(1.0 / x)
        assert p.eval(x) == pytest.approx(2.0 + math.log(eta) / eta)

    def test_piecewise_constant_right_continuous(self):
        p = PiecewiseConstant((0.5,), (2.0, 3.0))
        assert p.eval(0.4999) == 2.0
        assert p.eval(0.5) == 3.0
        assert p.discontinuities() == [0.5]

    def test_piecewise_linear_interp(self):
        p = PiecewiseLinear((0.2, 0.8), (2.0, 3.0))
        assert p.eval(0.1) == 2.0
        assert p.eval(0.5) == pytest.approx(2.5)
        assert p.eval(0.9) == 3.0

    def test_dyadic_jump_cumulative(self):
        p = DyadicJump(2.0, (0.5, 0.25), (0.25, 0.0625))
        assert p.eval(0.01) == 2.0
        assert p.eval(0.1) == 2.25
        assert p.eval(0.5) == 2.75

    def test_tabulated_loglinear(self):
        p = Tabulated((1e-6, 1.0), (2.0, 4.0))
        assert p.eval(1e-6) == pytest.approx(2.0)
        assert p.eval(1.0) == pytest.approx(4.0)
        assert p.eval(1e-3) == pytest.approx(3.0)


UP_DOWN = PiecewiseLinear((0.3, 0.6, 0.9), (2.0, 3.0, 2.5))

# one case per schema family, and the constant members of two
GERMS = {
    "constant": (Constant(2.0), Germ(2.0, True, "nondecreasing", 1.0, 1.0)),
    "log-perturbed+": (LogPerturbed(2.0, 1.0, 1.0, "+"),
                       Germ(2.0, True, "nondecreasing", 1.0, 0.0)),
    "log-perturbed-": (LogPerturbed(3.0, 1.0, 0.5, "-"),
                       Germ(3.0, True, "nonincreasing", 1.0, 0.0)),
    "log-perturbed-one": (LogPerturbed(1.0, 1.0, 1.0, "-"),
                          Germ(1.0, True, "nondecreasing", 1.0, 1.0)),
    "loglog-perturbed": (LogLogPerturbed(2.0, 1.0),
                         Germ(2.0, True, "nondecreasing", 1.0, 0.0)),
    # the fall at 1e-15 sets the class, the rise at 0.5 ends it
    "piecewise-constant": (PiecewiseConstant((1e-15, 0.5), (3.0, 2.0, 4.0)),
                           Germ(3.0, True, "nonincreasing", 0.5, 1e-15)),
    "piecewise-linear": (UP_DOWN, Germ(2.0, True, "nondecreasing", 0.6, 0.3)),
    "dyadic-jump": (DyadicJump(2.0, (0.5, 0.25), (0.25, 0.0625)),
                    Germ(2.0, True, "nondecreasing", 1.0, 0.0625)),
    "tabulated": (Tabulated((1e-9, 1e-3, 0.5, 1.0), (2.0, 4.0, 1.5, 3.0)),
                  Germ(2.0, False, "nondecreasing", 1e-3, 1e-9)),
    "tabulated-constant": (Tabulated((1e-3, 1.0), (2.5, 2.5)),
                           Germ(2.5, False, "nondecreasing", 1.0, 1.0)),
}


class TestMonotonicity:
    @pytest.mark.parametrize("name", GERMS)
    def test_germ(self, name):
        p, germ = GERMS[name]
        assert p.germ() == germ

    def test_classes(self):
        # the readers the benchmark harness calls: the class on all of
        # (0, 1), or None where it changes
        assert Constant(2.0).monotonicity() == "nondecreasing"
        assert LogPerturbed(2.0, 1.0, 1.0, "+").monotonicity() == "nondecreasing"
        assert LogPerturbed(3.0, 1.0, 0.5, "-").monotonicity() == "nonincreasing"
        assert DyadicJump(2.0, (0.5,), (0.25,)).monotonicity() == "nondecreasing"
        assert UP_DOWN.monotonicity() is None
        assert UP_DOWN.limit_at_origin() == 2.0

    def test_nonmonotone_prefix(self):
        # nondecreasing up to the peak at the breakpoint 0.6, exactly
        germ = UP_DOWN.germ()
        assert (germ.monotone, germ.delta) == ("nondecreasing", 0.6)


class TestConjugateAndKernel:
    def test_conjugate_at_two(self):
        assert conjugate_reciprocal(Constant(2.0), 0.5) == pytest.approx(0.5)

    def test_conjugate_at_one_is_zero(self):
        assert conjugate_reciprocal(Constant(1.0), 0.5) == 0.0

    def test_phi_constant_two(self):
        # phi(x) = x**(-1/2)
        ln_phi = log_phi(Constant(2.0).eval(0.25), -math.log(0.25))
        assert math.exp(ln_phi) == pytest.approx(2.0)

    def test_phi_p_one_is_one(self):
        x = np.array([1e-10, 1e-3, 0.9])
        assert np.allclose(np.exp(log_phi(Constant(1.0).eval(x),
                                          -np.log(x))), 1.0)

    @given(st.floats(1.0, 10.0), st.floats(1e-10, 1.0))
    def test_phi_positive_and_at_most_inverse_x(self, p0, x):
        v = math.exp(log_phi(Constant(p0).eval(x), -math.log(x)))
        assert 0.0 < v <= 1.0 / x * (1 + 1e-12)


class TestBounds:
    def test_constant_bounds_exact(self):
        assert Constant(2.5).bounds((0.0, 1.0)) == (2.5, 2.5)

    def test_monotone_bounds_from_endpoints(self):
        p = LogPerturbed(2.0, 1.0, 1.0, "+")
        lo, hi = p.bounds((0.0, math.exp(-1.0)))
        assert lo == 2.0
        assert hi == pytest.approx(3.0)

    def test_jump_bounds_include_jump_values(self):
        p = PiecewiseConstant((0.5,), (2.0, 3.0))
        assert p.bounds((0.0, 1.0)) == (2.0, 3.0)
        # the peak of a nonmonotone p is its value at a breakpoint
        assert UP_DOWN.bounds((0.0, 1.0)) == (2.0, 3.0)
        assert UP_DOWN.bounds((0.5, 0.95)) == (2.5, 3.0)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bounds_and_germ_hold_on_a_dense_sample(self, data):
        """The knot families' bounds and germs against p at 2000
        log-spaced points of [a, b]."""
        family = data.draw(st.sampled_from(
            ["piecewise-constant", "piecewise-linear", "tabulated"]))
        # depths -log10 x in steps of 0.01
        depths = data.draw(st.lists(st.integers(1, 900), min_size=2,
                                    max_size=6, unique=True))
        knots = tuple(sorted(10.0 ** (-d / 100) for d in depths))
        if family == "tabulated" and data.draw(st.booleans()):
            knots += (1.0,)
        n = len(knots) + (family == "piecewise-constant")
        # few levels, so p is often flat between knots
        values = tuple(data.draw(st.lists(st.sampled_from(
            [1.0, 1.5, 2.0, 2.5, 3.0]), min_size=n, max_size=n)))
        p = {"piecewise-constant": PiecewiseConstant,
             "piecewise-linear": PiecewiseLinear,
             "tabulated": Tabulated}[family](knots, values)
        a_depth, b_depth = sorted(data.draw(st.lists(
            st.integers(0, 1000), min_size=2, max_size=2, unique=True)),
            reverse=True)
        a = 0.0 if data.draw(st.booleans()) else 10.0 ** (-a_depth / 100)
        b = 10.0 ** (-b_depth / 100)
        xs = np.geomspace(a or 1e-12, b, 2000)
        vals = p.eval(xs)

        lo, hi = p.bounds((a, b))
        assert lo <= vals.min() and vals.max() <= hi
        germ = p.germ()
        attained = {p.eval(x) for x in (a, b, *knots) if 0.0 < x <= b}
        attained.add(germ.p0 if a == 0.0 else p.eval(a))
        assert lo in attained and hi in attained

        below = vals[xs < germ.delta]
        step = np.diff(below) * (1.0 if germ.monotone == "nondecreasing"
                                 else -1.0)
        assert np.all(step >= -1e-12)
        assert np.all(vals[xs < germ.constant_below] == germ.p0)
