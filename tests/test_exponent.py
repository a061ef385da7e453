import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hardyvx import (
    Constant,
    DyadicJump,
    LogLogPerturbed,
    LogPerturbed,
    PiecewiseConstant,
    PiecewiseLinear,
    Tabulated,
    classify_monotonicity,
    conjugate_reciprocal,
)
from hardyvx.exponent import DomainError, log_phi, monotone_prefix


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


class TestMonotonicity:
    def test_classes(self):
        assert classify_monotonicity(Constant(2.0)).cls == "nondecreasing"
        assert classify_monotonicity(
            LogPerturbed(2.0, 1.0, 1.0, "+")).cls == "nondecreasing"
        assert classify_monotonicity(
            LogPerturbed(3.0, 1.0, 0.5, "-")).cls == "nonincreasing"
        assert classify_monotonicity(
            DyadicJump(2.0, (0.5,), (0.25,))).cls == "nondecreasing"

    def test_nonmonotone_prefix(self):
        p = PiecewiseLinear((0.3, 0.6, 0.9), (2.0, 3.0, 2.5))
        assert classify_monotonicity(p).cls == "nonmonotone"
        prefix = monotone_prefix(p)
        assert 0.55 <= prefix <= 0.65


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
        lo, hi, exact = Constant(2.5).bounds((0.0, 1.0))
        assert (lo, hi) == (2.5, 2.5) and exact

    def test_monotone_bounds_from_endpoints(self):
        p = LogPerturbed(2.0, 1.0, 1.0, "+")
        lo, hi, exact = p.bounds((0.0, math.exp(-1.0)))
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(3.0)
        assert exact

    def test_jump_bounds_include_jump_values(self):
        p = PiecewiseConstant((0.5,), (2.0, 3.0))
        lo, hi, _ = p.bounds((0.0, 1.0))
        assert (lo, hi) == (2.0, 3.0)
