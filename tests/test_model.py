import numpy as np
import pytest

from fluctx.model import DomainError, drift, flow_exact, potential_value


def e1(d):
    v = np.zeros(d)
    v[0] = 1.0
    return v


class TestPotential:
    def test_minimum_on_unit_sphere(self):
        for d in (1, 2, 3):
            assert potential_value(e1(d)) == pytest.approx(-0.25, abs=1e-15)
            assert potential_value(-e1(d)) == pytest.approx(-0.25, abs=1e-15)

    def test_origin(self):
        assert potential_value(np.zeros(3)) == 0.0

    def test_hand_value(self):
        assert potential_value(2 * e1(2)) == pytest.approx(2.0, abs=1e-14)

    def test_batch_matches_points(self):
        xs = np.random.default_rng(0).normal(size=(5, 3))
        assert potential_value(xs).shape == (5,)
        assert list(potential_value(xs)) == [potential_value(x) for x in xs]


class TestDrift:
    def test_equilibria(self):
        assert np.all(drift(np.zeros(2)) == 0)
        np.testing.assert_allclose(drift(e1(3)), 0.0, atol=1e-15)

    def test_hand_value(self):
        np.testing.assert_allclose(drift(2 * e1(2)), -6 * e1(2), atol=1e-14)

    def test_is_negative_gradient(self):
        # central differences of V, h = 1e-4, points with |x| <= 3
        rng = np.random.default_rng(7)
        h = 1e-4
        for _ in range(25):
            d = rng.integers(1, 4)
            x = rng.uniform(-1.5, 1.5, size=d)
            g = np.empty(d)
            for j in range(d):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                g[j] = (potential_value(xp) - potential_value(xm)) / (2 * h)
            np.testing.assert_allclose(drift(x), -g, atol=1e-6)


class TestFlowExact:
    def test_initial_condition(self):
        xi0 = np.array([0.3, -0.8])
        np.testing.assert_allclose(flow_exact(xi0, 0.0), xi0, atol=1e-15)

    def test_well_is_fixed(self):
        for t in (0.5, 2.0, 10.0):
            np.testing.assert_allclose(flow_exact(e1(3), t), e1(3), atol=1e-15)

    def test_hand_value(self):
        # d = 1, xi0 = 2, e^{-2t} = 1/3
        t = 0.5 * np.log(3.0)
        got = flow_exact(np.array([2.0]), t)
        np.testing.assert_allclose(got, [2.0 / np.sqrt(3.0)], rtol=1e-14)

    def test_solves_the_ode(self):
        xi0 = np.array([0.4, 0.1])
        h = 1e-6
        for t in (0.3, 1.0, 2.5):
            dx = (flow_exact(xi0, t + h) - flow_exact(xi0, t - h)) / (2 * h)
            np.testing.assert_allclose(dx, drift(flow_exact(xi0, t)), atol=1e-8)

    def test_norm_monotone_toward_sphere(self):
        for r0 in (0.2, 0.9, 1.5):
            norms = [np.linalg.norm(flow_exact(np.array([r0, 0.0]), t)) for t in np.linspace(0, 4, 30)]
            lo, hi = min(1.0, r0), max(1.0, r0)
            assert all(lo - 1e-12 <= n <= hi + 1e-12 for n in norms)

    def test_rejects_origin_and_negative_time(self):
        with pytest.raises(DomainError):
            flow_exact(np.zeros(2), 1.0)
        with pytest.raises(DomainError):
            flow_exact(e1(2), -0.1)
        with pytest.raises(DomainError):
            flow_exact(np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        xi0 = rng.uniform(-1.4, 1.4, size=(20, 3))
        xi0[np.all(xi0 == 0, axis=1)] = 0.5
        out = flow_exact(xi0, 1.7)
        for i in range(20):
            np.testing.assert_allclose(out[i], flow_exact(xi0[i], 1.7), rtol=1e-14)
