import sys
import threading
import time

import numpy as np
import pytest

from fluctx import hierarchy
from fluctx.hierarchy import (
    DRAW_AHEAD_BLOCK,
    DRAW_AHEAD_WIDTH,
    DRAW_BLOCK,
    DRAW_RING,
    InitialLaw,
    SimConfig,
    _component_sum,
    path_rng,
    simulate_batch,
)
from fluctx.model import flow_exact

import reference_kernel
from pathwise import (
    ChainBlowup,
    SimulationAbort,
    ZeroNormals,
    decompose_radial_tangential,
    remainder,
    s_path,
    simulate_path,
)


def _rng(seed=0, idx=0):
    return path_rng(seed, idx)


class TestSimConfig:
    def test_grid_properties(self):
        cfg = SimConfig(dim=1, order=2, eps=0.1, dt=1e-2, t_final=1.0)
        assert cfg.n_steps == 100
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
        exact = np.stack([flow_exact(path.xi0, t) for t in path.times])
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
        self.res = simulate_batch(self.cfg, self.law, 40000, _rng(11), steps, noise=())
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


class TestRowDot:
    def test_bitwise_equal_to_np_sum(self):
        # the component-major dot against np.sum over the same rows held
        # row-major, stacked as the kernel stacks them.  np.sum starts from
        # +0.0, so rows of -0.0 products (a = 0, b = -0) sum to +0.0, where
        # a plain (p0 + p1) + p2 gives -0.0; d = 9 takes the branch for
        # numpy's pairwise row sums
        rng = np.random.default_rng(31)
        for shape in ((1000, 1), (1000, 3), (4, 1000, 1), (4, 1000, 3), (1000, 9)):
            a, b = rng.standard_normal(shape), rng.standard_normal(shape)
            a[..., ::7, :], b[..., ::5, :] = 0.0, -0.0
            a[..., ::11, :], a[..., ::13, :] = np.nan, np.inf
            with np.errstate(invalid="ignore"):
                p = np.swapaxes(a * b, -1, -2).copy()
                out = np.empty(p.shape[:-2] + p.shape[-1:])
                got = _component_sum(p, out)
                want = np.sum(a * b, axis=-1)
            assert got is out
            assert got.tobytes() == want.tobytes()


NOISE = (0.05, 0.02, 0.01, 0.005)


class TestSharedNoise:
    # xi_1 with std 20 puts a few X_0.05 starts beyond the Euler stability
    # bound |x| ~ sqrt(2 / dt), so the eps = 0.05 abort mask is not empty
    LAW = InitialLaw(kind="uniform_annulus", r_min=0.6, r_max=1.4, higher_std=(20.0,))

    def test_matches_separate_simulations(self):
        cfg = SimConfig(dim=1, order=2, dt=1e-2, t_final=1.0)
        steps = [0, 50, cfg.n_steps]
        shared = simulate_batch(cfg, self.LAW, 2000, _rng(21, 3), steps, noise=NOISE)
        assert shared.lost[0.05].any() and not shared.lost[None].any()
        for eps in NOISE:
            alone = simulate_batch(cfg, self.LAW, 2000, _rng(21, 3), steps, noise=(eps,))
            assert list(alone.xfull) == [eps]
            for step in steps:
                assert np.array_equal(shared.xfull[eps][step], alone.xfull[eps][step],
                                      equal_nan=True)
                for k in range(cfg.order + 1):
                    assert np.array_equal(shared.xbar_at(step, k), alone.xbar_at(step, k))
            assert np.array_equal(shared.lost[eps], alone.lost[eps])
            assert np.array_equal(shared.lost[None], alone.lost[None])

    def test_chain_only(self):
        cfg = SimConfig(dim=1, order=1, dt=1e-2, t_final=0.5)
        res = simulate_batch(cfg, self.LAW, 100, _rng(22), [cfg.n_steps], noise=())
        assert res.xfull == {} and list(res.lost) == [None]
        with_noise = simulate_batch(cfg, self.LAW, 100, _rng(22), [cfg.n_steps], noise=(0.1,))
        assert np.array_equal(res.xbar_at(cfg.n_steps, 1), with_noise.xbar_at(cfg.n_steps, 1))

    def test_with_xfull_spelling(self):
        cfg = SimConfig(dim=1, order=1, eps=0.1, dt=1e-2, t_final=0.5)
        on = simulate_batch(cfg, self.LAW, 100, _rng(23), [cfg.n_steps], with_xfull=True)
        off = simulate_batch(cfg, self.LAW, 100, _rng(23), [cfg.n_steps], with_xfull=False)
        assert list(on.xfull) == [0.1] and off.xfull == {}

    def test_noise_levels_validated(self):
        cfg = SimConfig(dim=1, order=1, dt=1e-2, t_final=0.5)
        for noise in ((0.1, 0.1), (0.1, 1.5), (0.0,)):
            with pytest.raises(ValueError):
                simulate_batch(cfg, self.LAW, 4, _rng(24), [cfg.n_steps], noise=noise)


class TestAborts:
    def test_blowup_raises_on_single_path(self):
        cfg = SimConfig(dim=1, order=0, eps=0.1, dt=1e-2, t_final=1.0)
        law = InitialLaw(kind="deterministic_point", point=(30.0,))
        with pytest.raises(SimulationAbort) as err:
            simulate_path(cfg, law, _rng(15))
        assert err.value.component == "xfull(eps=0.1)"

    def test_batch_flags_and_freezes(self):
        cfg = SimConfig(dim=1, order=0, eps=0.1, dt=1e-2, t_final=1.0)
        law = InitialLaw(kind="deterministic_point", point=(30.0,))
        res = simulate_batch(cfg, law, 8, _rng(16), [cfg.n_steps], noise=(cfg.eps,))
        assert np.all(res.aborted)
        assert np.all(np.isnan(res.xfull[cfg.eps][cfg.n_steps]))
        assert res.first_abort is not None

    def test_slice_steps_validated(self):
        cfg = SimConfig(dim=1, order=0, eps=0.1, dt=1e-2, t_final=1.0)
        law = InitialLaw(kind="deterministic_point", point=(1.0,))
        with pytest.raises(ValueError):
            simulate_batch(cfg, law, 4, _rng(17), [cfg.n_steps + 5])


class _TrajectoryBlowup(InitialLaw):
    """X_0.05 starts far beyond the Euler stability bound on path 1 only."""

    def xi_eps(self, xi0, xis, eps):
        out = super().xi_eps(xi0, xis, eps)
        if eps == 0.05:
            out[1] = 50.0
        return out


def _assert_same_batch(new, old):
    assert new.slice_steps == old.slice_steps
    assert new.first_abort == old.first_abort
    assert list(new.lost) == list(old.lost)
    for key in old.lost:
        assert new.lost[key].tobytes() == old.lost[key].tobytes()
    assert list(new.x0) == list(old.x0) and list(new.xbar) == list(old.xbar)
    for step in old.x0:
        assert new.x0[step].shape == old.x0[step].shape
        assert new.x0[step].tobytes() == old.x0[step].tobytes()
        assert len(new.xbar[step]) == len(old.xbar[step])
        for a, b in zip(new.xbar[step], old.xbar[step]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert list(new.xfull) == list(old.xfull)
    for eps in old.xfull:
        assert list(new.xfull[eps]) == list(old.xfull[eps])
        for step in old.xfull[eps]:
            a, b = new.xfull[eps][step], old.xfull[eps][step]
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestReferenceKernel:
    """The component-major kernel against the frozen row-major one, byte for byte."""

    # 300 paths: a draw block of DRAW_BLOCK // (300 d) steps, which 137
    # steps are not a multiple of at d = 1, 2 or 3
    N, CFG = 300, dict(dt=1e-2, t_final=1.37)
    LAW = InitialLaw(kind="uniform_annulus", r_min=0.6, r_max=1.4,
                     higher_std=(1.0, 0.5, 0.25, 0.1))

    def _compare(self, law, dim, order, noise, seed=41, n=None):
        n = n or self.N
        cfg = SimConfig(dim=dim, order=order, **self.CFG)
        steps = [0, cfg.n_steps // 2, cfg.n_steps]
        new = simulate_batch(cfg, law, n, path_rng(seed, dim), steps, noise=noise)
        old = reference_kernel.simulate_batch(cfg, law, n, path_rng(seed, dim), steps,
                                              noise=noise)
        _assert_same_batch(new, old)
        return new

    @pytest.mark.parametrize("dim", (1, 2, 3))
    @pytest.mark.parametrize("order", (0, 1, 2, 3, 4))
    @pytest.mark.parametrize("noise", ((), (0.05,), NOISE))
    def test_matches_row_major_kernel(self, dim, order, noise):
        cfg = SimConfig(dim=dim, order=order, **self.CFG)
        assert cfg.n_steps % (DRAW_BLOCK // (self.N * dim)) != 0
        self._compare(self.LAW, dim, order, noise)

    @pytest.mark.parametrize("dim", (8, 9))
    @pytest.mark.parametrize("noise", ((), NOISE))
    def test_pairwise_component_sums(self, dim, noise):
        # from 8 components each row's |x0|^2 and dot products are summed
        # pairwise, as the row-major kernel sums them; 200 paths draw inline
        assert 200 * dim < DRAW_AHEAD_WIDTH
        self._compare(self.LAW, dim, 2, noise, n=200)

    @pytest.mark.parametrize("dim", (1, 3))
    def test_blowup_in_one_trajectory(self, dim):
        law = _TrajectoryBlowup(kind="uniform_annulus", r_min=0.6, r_max=1.4, higher_std=(1.0,))
        res = self._compare(law, dim, 2, NOISE)
        assert np.flatnonzero(res.lost[0.05]).tolist() == [1]
        assert not any(res.lost[eps].any() for eps in NOISE[1:]) and not res.lost[None].any()
        assert res.first_abort[1] == "xfull(eps=0.05)"

    @pytest.mark.parametrize("dim", (1, 3))
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_blowup_in_the_chain(self, dim):
        law = ChainBlowup(kind="uniform_annulus", r_min=0.6, r_max=1.4, higher_std=(1.0,))
        res = self._compare(law, dim, 3, (0.05, 0.01))
        for key in (None, 0.05, 0.01):
            assert np.flatnonzero(res.lost[key]).tolist() == [0]
        assert res.first_abort[1] == "xbar1"
        assert np.isnan(res.xbar_at(res.slice_steps[-1], 3)[0]).all()

    def test_zero_noise(self):
        law = InitialLaw(kind="deterministic_point", point=(0.3, -0.4, 0.0), higher_std=(0.5,))
        cfg = SimConfig(dim=3, order=2, **self.CFG)
        new = simulate_batch(cfg, law, 50, ZeroNormals(), [cfg.n_steps], noise=(0.1,))
        old = reference_kernel.simulate_batch(cfg, law, 50, ZeroNormals(), [cfg.n_steps],
                                              noise=(0.1,))
        _assert_same_batch(new, old)


class _Recording:
    """A generator that notes the thread of each block draw (out=), can slow each
    down by `delay` seconds, and can fail at one."""

    def __init__(self, rng, fail_at=None, delay=0.0):
        self.rng, self.fail_at, self.delay, self.threads = rng, fail_at, delay, []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def standard_normal(self, size=None, out=None):
        if out is not None:
            self.threads.append(threading.current_thread())
            time.sleep(self.delay)
            if len(self.threads) == self.fail_at:
                raise RuntimeError("draw failed")
        return self.rng.standard_normal(size, out=out)


def _bounded(fn, timeout=60.0):
    """fn() on its own thread, joined with a timeout: a hang fails instead of stalling."""
    box = {}

    def run():
        try:
            box["result"] = fn()
        except BaseException as exc:  # re-raised below, on the test's thread
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "simulate_batch did not return"
    if "error" in box:
        raise box["error"]
    return box["result"]


class TestDrawAhead:
    """From DRAW_AHEAD_WIDTH doubles a step on, a helper thread draws the increments."""

    # paths per dim for a step of 2 100 doubles: blocks of 15 steps, which
    # 137 steps are not a multiple of, and more blocks than the ring holds
    N = {1: 2100, 3: 700}
    CFG = TestReferenceKernel.CFG
    LAW = TestReferenceKernel.LAW

    def _compare(self, law, dim, order, noise, n=None):
        n = n or self.N[dim]
        cfg = SimConfig(dim=dim, order=order, **self.CFG)
        steps = [0, cfg.n_steps // 2, cfg.n_steps]
        rng, ref_rng = _Recording(path_rng(43, dim)), path_rng(43, dim)
        new = simulate_batch(cfg, law, n, rng, steps, noise=noise)
        old = reference_kernel.simulate_batch(cfg, law, n, ref_rng, steps, noise=noise)
        _assert_same_batch(new, old)
        # the generator is left where the step-by-step draws leave it
        assert rng.standard_normal(5).tobytes() == ref_rng.standard_normal(5).tobytes()
        return new, rng.threads

    @pytest.mark.parametrize("dim", (1, 3))
    @pytest.mark.parametrize("noise", ((), NOISE))
    def test_matches_row_major_kernel(self, dim, noise):
        n, n_steps = self.N[dim], SimConfig(dim=dim, order=3, **self.CFG).n_steps
        block = DRAW_AHEAD_BLOCK // (n * dim)
        assert n * dim >= DRAW_AHEAD_WIDTH
        assert n_steps % block and n_steps // block > DRAW_RING
        before = threading.active_count()
        _, threads = self._compare(self.LAW, dim, 3, noise)
        assert len(threads) == -(-n_steps // block)
        assert threading.current_thread() not in threads
        assert threading.active_count() == before

    @pytest.mark.parametrize("dim", (8, 9))
    @pytest.mark.parametrize("noise", ((), NOISE))
    def test_pairwise_component_sums(self, dim, noise):
        assert 300 * dim >= DRAW_AHEAD_WIDTH
        self._compare(self.LAW, dim, 2, noise, n=300)

    @pytest.mark.parametrize("dim", (1, 3))
    def test_inline_below_the_width(self, dim):
        n, n_steps = 300, SimConfig(dim=dim, order=2, **self.CFG).n_steps
        assert n * dim < DRAW_AHEAD_WIDTH
        _, threads = self._compare(self.LAW, dim, 2, (0.05,), n=n)
        assert set(threads) == {threading.current_thread()}
        # inline blocks are DRAW_BLOCK doubles, not the helper's DRAW_AHEAD_BLOCK
        assert len(threads) == -(-n_steps // (DRAW_BLOCK // (n * dim)))

    @pytest.mark.parametrize("dim", (1, 3))
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_blowup_in_the_chain(self, dim):
        law = ChainBlowup(kind="uniform_annulus", r_min=0.6, r_max=1.4, higher_std=(1.0,))
        res, _ = self._compare(law, dim, 3, (0.05, 0.01))
        for key in (None, 0.05, 0.01):
            assert np.flatnonzero(res.lost[key]).tolist() == [0]
        assert res.first_abort[1] == "xbar1"

    def test_zero_noise(self):
        law = InitialLaw(kind="deterministic_point", point=(0.3, -0.4, 0.0), higher_std=(0.5,))
        cfg = SimConfig(dim=3, order=2, **self.CFG)
        n = self.N[3]
        new = simulate_batch(cfg, law, n, ZeroNormals(), [cfg.n_steps], noise=(0.1,))
        old = reference_kernel.simulate_batch(cfg, law, n, ZeroNormals(), [cfg.n_steps],
                                              noise=(0.1,))
        _assert_same_batch(new, old)

    def test_concurrent_calls_under_fast_switching(self):
        """Three calls at once, each with its own helper, switching threads every 10 us."""
        cfg = SimConfig(dim=1, order=2, **self.CFG)
        steps = [cfg.n_steps // 2, cfg.n_steps]
        seeds = (46, 47, 48)
        expected = [reference_kernel.simulate_batch(cfg, self.LAW, self.N[1], path_rng(s, 0),
                                                    steps, noise=NOISE) for s in seeds]
        results = {}

        def run(s):
            results[s] = simulate_batch(cfg, self.LAW, self.N[1], path_rng(s, 0), steps,
                                        noise=NOISE)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=run, args=(s,)) for s in seeds]
            for t in callers:
                t.start()
            for t in callers:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for s, old in zip(seeds, expected):
            _assert_same_batch(results[s], old)

    @pytest.mark.parametrize("fail_at", (1, 5))
    def test_draw_error_reaches_the_caller(self, fail_at):
        cfg = SimConfig(dim=1, order=2, **self.CFG)
        rng = _Recording(path_rng(44, 0), fail_at=fail_at)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            _bounded(lambda: simulate_batch(cfg, self.LAW, self.N[1], rng, [cfg.n_steps],
                                            noise=NOISE))
        assert threading.active_count() == before
        assert rng.threads[-1] is not threading.current_thread()

    def test_stepping_error_stops_the_helper(self, monkeypatch):
        calls = []

        def failing_sum(p, out):
            calls.append(None)
            if len(calls) == 40:
                raise FloatingPointError("stepping failed")
            return _component_sum(p, out)

        monkeypatch.setattr(hierarchy, "_component_sum", failing_sum)
        cfg = SimConfig(dim=1, order=2, **self.CFG)
        # slow draws: the helper is still drawing ahead when the caller fails
        rng = _Recording(path_rng(45, 0), delay=0.05)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="stepping failed"):
            _bounded(lambda: simulate_batch(cfg, self.LAW, self.N[1], rng, [cfg.n_steps],
                                            noise=NOISE))
        # the helper was joined before the error left simulate_batch
        assert not rng.threads[-1].is_alive()
        assert threading.active_count() == before


class TestBlockEdges:
    """The exact flow, 1 - |x0|^2 and sqrt(2) dW are computed a block of steps at a time.

    Blocks are DRAW_BLOCK // (n d) steps long; the helper's larger draws
    are handed out in pieces of that length.  Slices and a chain abort on
    either side of each kind of edge, on both draw paths, against the
    row-major kernel byte for byte.
    """

    CFG = TestReferenceKernel.CFG
    LAW = TestReferenceKernel.LAW
    # inline at 300 and 2 x 300 doubles a step, on the helper at 2 100
    SHAPES = ((300, 1), (300, 3), (2100, 1), (700, 3))

    def _compare(self, law, n, dim, order, noise, make_rng):
        cfg = SimConfig(dim=dim, order=order, **self.CFG)
        length = DRAW_BLOCK // (n * dim)
        drawn = length if n * dim < DRAW_AHEAD_WIDTH else DRAW_AHEAD_BLOCK // (n * dim)
        assert cfg.n_steps % length and cfg.n_steps % drawn and cfg.n_steps > 2 * drawn + 1
        # the last step of a block and the first of the next, at the first
        # two hand-out edges and at the first edge of a draw
        steps = [0, length, length + 1, 2 * length, 2 * length + 1, drawn, drawn + 1,
                 cfg.n_steps]
        rng, ref_rng = make_rng(), make_rng()
        new = simulate_batch(cfg, law, n, rng, steps, noise=noise)
        old = reference_kernel.simulate_batch(cfg, law, n, ref_rng, steps, noise=noise)
        _assert_same_batch(new, old)
        assert rng.standard_normal(5).tobytes() == ref_rng.standard_normal(5).tobytes()
        return new, length

    @pytest.mark.parametrize("n, dim", SHAPES)
    @pytest.mark.parametrize("noise", ((), (0.05, 0.01)))
    def test_slices_at_block_edges(self, n, dim, noise):
        self._compare(self.LAW, n, dim, 3, noise, lambda: path_rng(49, dim))

    @pytest.mark.parametrize("n, dim", SHAPES)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_chain_abort_before_a_block_edge(self, n, dim):
        law = ChainBlowup(kind="uniform_annulus", r_min=0.6, r_max=1.4, higher_std=(1.0,))
        res, length = self._compare(law, n, dim, 2, (0.05,), lambda: path_rng(50, dim))
        # flagged at the first check, no later than the first block's last
        # step; the later blocks step the frozen path from a finite flow
        assert res.first_abort[0] <= length and res.first_abort[1] == "xbar1"
        for key in (None, 0.05):
            assert np.flatnonzero(res.lost[key]).tolist() == [0]
        assert np.isnan(res.xbar_at(length + 1, 2)[0]).all()
        assert np.isnan(res.x0[length + 1][0]).all() and np.isfinite(res.x0[length + 1][1:]).all()

    @pytest.mark.parametrize("n, dim", SHAPES)
    def test_zero_noise(self, n, dim):
        law = InitialLaw(kind="deterministic_point", point=(0.6,) + (0.0,) * (dim - 1),
                         higher_std=(0.5,))
        self._compare(law, n, dim, 2, (0.1,), ZeroNormals)


class _HugeTangent(InitialLaw):
    """xi_1 = 1e308 e_2 on paths 0 and 1: finite, but their total overflows."""

    def sample(self, rng, n, dim, order):
        xi0, xis = super().sample(rng, n, dim, order)
        xis[0][:2] = (0.0, 1e308)
        return xi0, xis


class TestFiniteCheck:
    """While no path is lost, one finite total stands for the per-path check."""

    def test_total_settles_the_common_case(self):
        assert hierarchy._all_finite(np.ones((3, 2, 5)))
        assert hierarchy._all_finite(np.empty((0, 2, 5)))
        for bad in (np.inf, -np.inf, np.nan):
            a = np.ones((3, 2, 5))
            a[1, 0, 2] = bad
            assert not hierarchy._all_finite(a)

    def test_overflowing_total_falls_back_to_the_entries(self):
        a = np.ones((3, 2, 5))
        a[0, 1, 0] = a[2, 1, 4] = 1e308
        with np.errstate(over="ignore"):
            assert np.isinf(np.add.reduce(a, None))
            assert hierarchy._all_finite(a)

    @pytest.mark.parametrize("n", (300, 1100))
    def test_overflowing_state_flags_nothing(self, n):
        # at x0 = e_1 the e_2 component of Xbar_1 moves by Brownian increments
        # only, so both paths hold about 1e308 to the end
        law = _HugeTangent(kind="deterministic_point", point=(1.0, 0.0), higher_std=(1.0,))
        cfg = SimConfig(dim=2, order=1, **TestReferenceKernel.CFG)
        new = simulate_batch(cfg, law, n, path_rng(51, 0), [cfg.n_steps], noise=())
        old = reference_kernel.simulate_batch(cfg, law, n, path_rng(51, 0), [cfg.n_steps],
                                              noise=())
        _assert_same_batch(new, old)
        assert new.first_abort is None and not new.lost[None].any()
        assert (new.xbar_at(cfg.n_steps, 1)[:2, 1] > 1e307).all()
