import numpy as np
import pytest

from fluctx.equilibrium import (
    QuadratureSpec,
    expansion_residual_order,
    expansion_residuals,
    gibbs_expectation,
    partition_function,
    residual_coefficient_fit,
    stationarity_defect,
)
from fluctx.observables import parse_polynomial
from fluctx.recursions import d_table

X2 = parse_polynomial("x1^2", 1)
TABLE = d_table(8)


class TestQuadratureSpec:
    def test_tail_bound_certified(self):
        for eps in (0.2, 0.05, 0.01):
            spec = QuadratureSpec.for_eps(eps)
            assert spec.tail_bound < 1e-16
            assert spec.radius >= 3.0

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            QuadratureSpec.for_eps(0.0)
        with pytest.raises(ValueError):
            QuadratureSpec.for_eps(1.5)

    def test_nodes_cover_symmetric_interval(self):
        spec = QuadratureSpec.for_eps(0.05)
        x, w = spec.nodes_weights()
        assert np.all(w > 0)
        assert abs(x.min() + x.max()) < 1e-12  # symmetric layout


class TestPartitionFunction:
    def test_shifted_value_bounded(self):
        # Z_eps * e^{-1/(4 eps)} / sqrt(eps) stays within fixed bounds
        vals = {eps: partition_function(eps) / np.sqrt(eps) for eps in (0.2, 0.1, 0.05, 0.02)}
        assert all(3.0 < v < 4.5 for v in vals.values())
        # small-eps end: ratio varies by < 5%
        assert abs(vals[0.02] / vals[0.05] - 1.0) < 0.05

    def test_small_eps_laplace_limit(self):
        # Z_shifted / sqrt(eps) -> 2 sqrt(pi)
        val = partition_function(0.002) / np.sqrt(0.002)
        assert val == pytest.approx(2 * np.sqrt(np.pi), rel=2e-3)

    def test_symmetry_of_the_rule(self):
        spec = QuadratureSpec.for_eps(0.05)
        x, w = spec.nodes_weights()
        f = np.exp(-((0.25 * x ** 4 - 0.5 * x ** 2) + 0.25) / 0.05)
        full = np.sum(f * w)
        half_doubled = 2.0 * np.sum((f * w)[x > 0])
        assert half_doubled == pytest.approx(full, rel=1e-12)

    def test_self_convergence_under_refinement(self):
        z1 = partition_function(0.05, QuadratureSpec.for_eps(0.05))
        z2 = partition_function(0.05, QuadratureSpec.for_eps(0.05, refine=0.5))
        assert abs(z1 - z2) / z1 < 1e-10


class TestGibbsExpectation:
    def test_normalization(self):
        one = parse_polynomial("1", 1)
        assert gibbs_expectation(one, 0.1) == pytest.approx(1.0, abs=1e-13)

    def test_odd_observable_vanishes(self):
        x = parse_polynomial("x1", 1)
        assert abs(gibbs_expectation(x, 0.1)) < 1e-12

    def test_x2_near_second_order_prediction(self):
        # 1 - eps - 3 eps^2 at eps = 0.02; next term is -24 eps^3 ~ 2e-4
        val = gibbs_expectation(X2, 0.02)
        assert abs(val - (1 - 0.02 - 3 * 0.02 ** 2)) < 5e-4

    def test_requires_scalar(self):
        with pytest.raises(ValueError):
            gibbs_expectation(parse_polynomial("x1*x2", 2), 0.1)


class TestStationarity:
    def test_x4_identity(self):
        defect, scale = stationarity_defect(parse_polynomial("x1^4", 1), 0.1)
        assert abs(defect) < 1e-10 * scale

    def test_all_low_degree_polynomials(self):
        rng = np.random.default_rng(41)
        for eps in (0.2, 0.1, 0.05):
            for deg in range(1, 9):
                coeffs = rng.uniform(-1, 1, size=deg + 1)
                text = "+".join(f"{float(c)!r}*x1^{k}" for k, c in enumerate(coeffs))
                F = parse_polynomial(text, 1)
                defect, scale = stationarity_defect(F, eps)
                assert abs(defect) <= 1e-10 * max(scale, 1e-30)


class TestResidualOrder:
    def test_order_zero_effective_rate(self):
        # residual after B_0 alone decays like eps (B_1 = 0)
        fit = expansion_residual_order(*expansion_residuals(X2, 0, [0.1, 0.05, 0.02, 0.01], TABLE))
        assert fit.exponent >= 0.9

    def test_order_two_rate(self):
        eps, residuals = expansion_residuals(X2, 2, [0.06, 0.04, 0.025, 0.015, 0.01], TABLE)
        fit = expansion_residual_order(eps, residuals)
        assert fit.exponent >= 1.8
        assert fit.r_squared > 0.99

    def test_floor_detection(self):
        # an odd observable has identically zero residual: the fit must
        # refuse to report an order from quadrature noise
        x = parse_polynomial("x1", 1)
        with pytest.raises(ValueError):
            expansion_residuals(x, 0, [0.1, 0.05, 0.02, 0.01], TABLE)

    def test_eps_range_enforced(self):
        with pytest.raises(ValueError):
            expansion_residuals(X2, 2, [0.5, 0.2, 0.1, 0.05], TABLE)
        with pytest.raises(ValueError):
            expansion_residuals(X2, 2, [0.1, 0.05], TABLE)

    def test_leading_coefficient_fit(self):
        eps, residuals = expansion_residuals(X2, 2, [0.04, 0.025, 0.015, 0.01, 0.006], TABLE)
        coeffs = residual_coefficient_fit(eps, residuals, 2, degree=3)
        assert coeffs[0] == pytest.approx(-3.0, rel=0.1)
