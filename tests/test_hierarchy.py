import numpy as np
import pytest

from fluctx.hierarchy import (
    InitialLaw,
    SimConfig,
    SimulationAbort,
    decompose_radial_tangential,
    path_rng,
    remainder,
    s_path,
    simulate_batch,
    simulate_path,
)
from fluctx.model import flow_exact_batch


def _rng(seed=0, idx=0):
    return path_rng(seed, idx)


class TestSimConfig:
    def test_grid_properties(self):
        cfg = SimConfig(dim=1, order=2, eps=0.1, dt=1e-2, t_final=1.0)
        assert cfg.n_steps == 100
        assert cfg.times[0] == 0.0
        assert cfg.times[-1] == pytest.approx(1.0)
        assert cfg.grid_index(0.5) == 50

    def test_off_grid_time_rejected(self):
        cfg = SimConfig(dim=1, order=2, eps=0.1, dt=1e-2, t_final=1.0)
        with pytest.raises(ValueError):
            cfg.grid_index(0.505)
        with pytest.raises(ValueError):
            cfg.grid_index(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dim=0, order=2, eps=0.1, dt=1e-3, t_final=1.0)
        with pytest.raises(ValueError):
            SimConfig(dim=1, order=-1, eps=0.1, dt=1e-3, t_final=1.0)
        with pytest.raises(ValueError):
            SimConfig(dim=1, order=2, eps=1.5, dt=1e-3, t_final=1.0)
        with pytest.raises(ValueError):
            SimConfig(dim=1, order=2, eps=0.1, dt=0.05, t_final=1.0)
        with pytest.raises(ValueError):
            SimConfig(dim=1, order=2, eps=0.1, dt=1e-2, t_final=1e-3)


class TestInitialLaw:
    def test_validation(self):
        with pytest.raises(ValueError):
            InitialLaw(kind="deterministic_point")
        with pytest.raises(ValueError):
            InitialLaw(kind="deterministic_point", point=(0.0, 0.0))
        with pytest.raises(ValueError):
            InitialLaw(kind="uniform_annulus", r_min=1.0, r_max=0.5)
        with pytest.raises(ValueError):
            InitialLaw(kind="gaussian", point=(1.0,))
        with pytest.raises(ValueError):
            InitialLaw(kind="deterministic_point", point=(1.0,), higher_std=(-1.0,))

    def test_sample_shapes_and_annulus_support(self):
        law = InitialLaw(kind="uniform_annulus", r_min=0.5, r_max=1.5, higher_std=(1.0,))
        xi0, xis = law.sample(_rng(1), 500, 3, 2)
        assert xi0.shape == (500, 3)
        assert len(xis) == 2 and all(x.shape == (500, 3) for x in xis)
        radii = np.linalg.norm(xi0, axis=1)
        assert np.all(radii > 0.5) and np.all(radii < 1.5)
        # unseeded higher orders are frozen at zero
        assert np.all(xis[1] == 0.0)

    def test_two_point_signs(self):
        law = InitialLaw(kind="symmetric_two_point", point=(1.0,))
        xi0, _ = law.sample(_rng(2), 1000, 1, 0)
        assert set(np.unique(xi0)) == {-1.0, 1.0}

    def test_xi_eps_is_exact_truncation(self):
        law = InitialLaw(kind="deterministic_point", point=(0.7,), higher_std=(1.0, 0.5))
        xi0, xis = law.sample(_rng(3), 10, 1, 2)
        eps = 0.04
        expected = xi0 + np.sqrt(eps) * xis[0] + eps * xis[1]
        assert np.allclose(law.xi_eps(xi0, xis, eps), expected, rtol=0, atol=0)

    def test_std_for(self):
        law = InitialLaw(kind="deterministic_point", point=(1.0,), higher_std=(2.0,))
        assert law.std_for(1) == 2.0
        assert law.std_for(5) == 0.0
        with pytest.raises(ValueError):
            law.std_for(0)


class TestDeterministicDynamics:
    def test_stationary_point_is_exactly_preserved(self):
        # at |x| = 1 the drift vanishes: every component sits still without noise
        cfg = SimConfig(dim=1, order=2, eps=0.1, dt=1e-2, t_final=1.0)
        law = InitialLaw(kind="deterministic_point", point=(1.0,))
        path = simulate_path(cfg, law, _rng(4), zero_noise=True)
        assert np.all(path.xfull == 1.0)
        assert np.all(path.xbar[0] == 1.0)
        assert np.all(path.xbar[1] == 0.0)
        assert np.all(path.xbar[2] == 0.0)

    def test_exact_flow_mode_matches_closed_form(self):
        cfg = SimConfig(dim=2, order=0, eps=0.1, dt=1e-2, t_final=2.0)
        law = InitialLaw(kind="deterministic_point", point=(0.3, 0.4))
        path = simulate_path(cfg, law, _rng(6), zero_noise=True)
        exact = np.stack([flow_exact_batch(path.xi0[None, :], t)[0] for t in cfg.times])
        assert np.max(np.abs(path.xbar[0] - exact)) < 1e-12


class TestPathwiseIdentities:
    def test_remainder_recursion_w1_from_w0(self):
        cfg = SimConfig(dim=1, order=2, eps=0.05, dt=2e-3, t_final=1.0)
        law = InitialLaw(kind="deterministic_point", point=(0.8,), higher_std=(1.0,))
        path = simulate_path(cfg, law, _rng(7))
        for idx in (0, 100, cfg.n_steps):
            w0 = remainder(path, 0, idx)
            w1 = remainder(path, 1, idx)
            assert w1 == pytest.approx(w0 / np.sqrt(cfg.eps) - path.xbar[1][idx],
                                       rel=1e-10, abs=1e-10)

    def test_remainder_validation(self):
        cfg = SimConfig(dim=1, order=1, eps=0.1, dt=1e-2, t_final=0.5)
        law = InitialLaw(kind="deterministic_point", point=(1.0,))
        path = simulate_path(cfg, law, _rng(8))
        with pytest.raises(ValueError):
            remainder(path, 2, 0)
        with pytest.raises(IndexError):
            remainder(path, 0, cfg.n_steps + 1)

    def test_x1_reconstructed_from_shared_increments(self):
        # rebuild Xbar_1 by Euler from the recorded increments and Xbar_0;
        # the coupling is exact, so the reconstruction is bitwise
        cfg = SimConfig(dim=2, order=1, eps=0.1, dt=5e-3, t_final=1.0)
        law = InitialLaw(kind="deterministic_point", point=(0.6, 0.5),
                         higher_std=(1.0,))
        path = simulate_path(cfg, law, _rng(9))
        x1 = path.xbar[1][0].copy()[None, :]
        sqrt2 = np.sqrt(2.0)
        for k in range(cfg.n_steps):
            x0 = path.xbar[0][k][None, :]
            r2 = np.sum(x0 * x0, axis=1, keepdims=True)
            dot = np.sum(x0 * x1, axis=1, keepdims=True)
            lin = (1.0 - r2) * x1 - 2.0 * dot * x0
            x1 += lin * cfg.dt + sqrt2 * path.brownian_increments[k][None, :]
            assert np.array_equal(x1[0], path.xbar[1][k + 1])


def _s_grid(path, m, i):
    if m == 0 and i == 0:
        return np.ones(len(path.times))
    if i < 1 or i > m:
        return np.zeros(len(path.times))
    return s_path(path, m, i)


def _s_reconstruction_error(dt, seed):
    """Sup-norm defect of the Euler reconstruction of the S_{m,i} dynamics."""
    cfg = SimConfig(dim=1, order=4, eps=0.1, dt=dt, t_final=3.0)
    law = InitialLaw(kind="deterministic_point", point=(0.8,), higher_std=(1.0,))
    path = simulate_path(cfg, law, _rng(123, seed))
    x0 = path.xbar[0][:, 0]
    dW = path.brownian_increments[:, 0]
    errors = {}
    for (m, i) in ((2, 1), (3, 2), (4, 2)):
        s = _s_grid(path, m, i)
        sm1, sm2 = _s_grid(path, m - 1, i - 1), _s_grid(path, m - 2, i - 2)
        sp1, sp2 = _s_grid(path, m, i + 1), _s_grid(path, m, i + 2)
        rec = np.empty_like(s)
        rec[0] = s[0]
        for k in range(len(dW)):
            drift = i * (1.0 - 3.0 * x0[k] ** 2) * s[k] \
                - i * (3.0 * x0[k] * sp1[k] + sp2[k])
            rec[k + 1] = rec[k] + drift * dt \
                + i * np.sqrt(2.0) * sm1[k] * dW[k] \
                + i * (i - 1) * sm2[k] * dW[k] ** 2
        errors[(m, i)] = np.max(np.abs(rec - s)) / (np.max(np.abs(s)) + 1.0)
    return errors


class TestSPathDynamics:
    # dS_{m,i} = i sqrt(2) S_{m-1,i-1} dW + i (1 - 3 Xbar_0^2) S_{m,i} dt
    #            + i(i-1) S_{m-2,i-2} dW^2 - i (3 Xbar_0 S_{m,i+1} + S_{m,i+2}) dt

    def test_reconstruction_small_at_fixed_dt(self):
        errors = _s_reconstruction_error(2e-3, seed=5)
        assert errors[(2, 1)] < 1e-12   # pure ODE component: exact
        assert errors[(3, 2)] < 0.05
        assert errors[(4, 2)] < 0.05

    def test_reconstruction_refines_with_dt(self):
        coarse = _s_reconstruction_error(2e-3, seed=6)
        fine = _s_reconstruction_error(5e-4, seed=6)
        for key in ((3, 2), (4, 2)):
            assert fine[key] < coarse[key] / 1.4

    def test_s_path_validation(self):
        cfg = SimConfig(dim=1, order=2, eps=0.1, dt=1e-2, t_final=0.5)
        law = InitialLaw(kind="deterministic_point", point=(1.0,))
        path = simulate_path(cfg, law, _rng(10))
        with pytest.raises(ValueError):
            s_path(path, 3, 1)
        with pytest.raises(ValueError):
            s_path(path, 2, 0)


class TestVectorStructure:
    def setup_method(self):
        self.cfg = SimConfig(dim=2, order=2, eps=0.1, dt=5e-3, t_final=2.0)
        self.law = InitialLaw(kind="deterministic_point", point=(1.0, 0.0),
                              higher_std=())
        steps = [self.cfg.grid_index(t) for t in (0.5, 1.0, 2.0)]
        self.res = simulate_batch(self.cfg, self.law, 40000, _rng(11), steps,
                                  with_xfull=False)
        self.steps = steps

    def test_radial_first_order_variance(self):
        # dr_1 = -2 r_1 dt + sqrt(2) dW: Var r_1(t) = (1 - e^{-4t}) / 2
        for t, step in zip((0.5, 1.0, 2.0), self.steps):
            r1 = self.res.xbar_at(step, 1)[:, 0]
            target = (1.0 - np.exp(-4.0 * t)) / 2.0
            assert np.var(r1) == pytest.approx(target, rel=0.05)

    def test_tangential_first_order_is_scaled_brownian(self):
        # v_1 = sqrt(2) W on the tangent space: E |v_1(t)|^2 = 2 (d-1) t
        for t, step in zip((0.5, 1.0, 2.0), self.steps):
            v1 = self.res.xbar_at(step, 1)[:, 1]
            assert np.mean(v1 ** 2) == pytest.approx(2.0 * t, rel=0.05)

    def test_radial_second_order_mean(self):
        # E r_2(t) = -[3/4 (1 - e^{-2t}) - 3/4 (e^{-2t} - e^{-4t})
        #             + (d-1)(t - (1 - e^{-2t}) / 2)]
        for t, step in zip((1.0, 2.0), self.steps[1:]):
            r2 = self.res.xbar_at(step, 2)[:, 0]
            target = -(0.75 * (1 - np.exp(-2 * t))
                       - 0.75 * (np.exp(-2 * t) - np.exp(-4 * t))
                       + (t - (1 - np.exp(-2 * t)) / 2))
            se = np.std(r2) / np.sqrt(len(r2))
            assert abs(np.mean(r2) - target) < 4 * se

    def test_decompose_matches_manual_projection(self):
        cfg = SimConfig(dim=2, order=2, eps=0.1, dt=5e-3, t_final=1.0)
        path = simulate_path(cfg, self.law, _rng(12))
        r, v = decompose_radial_tangential(path, 1)
        direction = path.xi0 / np.linalg.norm(path.xi0)
        assert np.allclose(r, path.xbar[1] @ direction)
        assert np.max(np.abs(v @ direction)) < 1e-12

    def test_decompose_validation(self):
        cfg = SimConfig(dim=1, order=2, eps=0.1, dt=1e-2, t_final=0.5)
        law = InitialLaw(kind="deterministic_point", point=(1.0,))
        path = simulate_path(cfg, law, _rng(13))
        with pytest.raises(ValueError):
            decompose_radial_tangential(path, 1)
        cfg2 = SimConfig(dim=2, order=2, eps=0.1, dt=1e-2, t_final=0.5)
        path2 = simulate_path(cfg2, self.law, _rng(14))
        with pytest.raises(ValueError):
            decompose_radial_tangential(path2, 3)


class TestAborts:
    def test_blowup_raises_on_single_path(self):
        cfg = SimConfig(dim=1, order=0, eps=0.1, dt=1e-2, t_final=1.0)
        law = InitialLaw(kind="deterministic_point", point=(30.0,))
        with pytest.raises(SimulationAbort) as err:
            simulate_path(cfg, law, _rng(15))
        assert err.value.component == "xfull"

    def test_batch_flags_and_freezes(self):
        cfg = SimConfig(dim=1, order=0, eps=0.1, dt=1e-2, t_final=1.0)
        law = InitialLaw(kind="deterministic_point", point=(30.0,))
        res = simulate_batch(cfg, law, 8, _rng(16), [cfg.n_steps])
        assert np.all(res.aborted)
        assert np.all(np.isnan(res.xfull[cfg.n_steps]))
        assert res.first_abort is not None

    def test_slice_steps_validated(self):
        cfg = SimConfig(dim=1, order=0, eps=0.1, dt=1e-2, t_final=1.0)
        law = InitialLaw(kind="deterministic_point", point=(1.0,))
        with pytest.raises(ValueError):
            simulate_batch(cfg, law, 4, _rng(17), [cfg.n_steps + 5])
