import numpy as np
import pytest
from scipy.integrate import quad

from fluctx import estimators
from fluctx.estimators import (
    EstimationError,
    McEstimate,
    a_functional,
    batch_layout,
    conditional_s,
    estimate_strong_remainder_sq,
    estimate_weak_remainder,
    fit_exponential_rate,
    fit_power_law,
    mc_mean,
    mc_multi,
    strong_remainder_sq,
)
from fluctx.hierarchy import InitialLaw, SimConfig
from fluctx.model import flow_exact
from fluctx.observables import parse_polynomial

from pathwise import ChainBlowup, batch_slot, mc_multi_slots

X2 = parse_polynomial("x1^2", 1)

POINT_LAW = InitialLaw(kind="symmetric_two_point", point=(1.0,), higher_std=(1.0,))
ANNULUS = InitialLaw(kind="uniform_annulus", r_min=0.5, r_max=1.5, higher_std=(1.0,))


def _cfg(order=2, eps=0.1, dt=2e-3, t_final=2.0, dim=1):
    return SimConfig(dim=dim, order=order, eps=eps, dt=dt, t_final=t_final)


class TestBatchLayout:
    def test_sizes_sum_and_balance(self):
        sizes = batch_layout(1003, 40)
        assert sum(sizes) == 1003
        assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_layout(1000, 10)
        with pytest.raises(ValueError):
            batch_layout(10, 20)


class TestMcEstimate:
    def test_agreement_band(self):
        est = McEstimate(value=1.0, stderr=0.1, n_paths=100, n_batches=20)
        assert est.agrees_with(1.25)
        assert not est.agrees_with(1.5)


class TestEstimateA:
    def test_frozen_leading_order_is_exact(self):
        # deterministic xi_0 = 1 sits at the fixed point: a_0(t, x^2) = 1
        # with zero variance
        cfg = _cfg(order=0, t_final=0.5)
        law = InitialLaw(kind="deterministic_point", point=(1.0,))
        est = mc_mean(lambda res: a_functional(0, X2, res, 250), cfg, law, 2000, 1, [250],
                      noise=())
        assert est.value == 1.0
        assert est.stderr == 0.0

    def test_a0_matches_direct_flow_quadrature(self):
        # a_0(t, x^2) for the annulus law is the radial average of the
        # squared exact flow
        cfg = _cfg(order=0, dt=1e-2, t_final=1.0)
        est = mc_mean(lambda res: a_functional(0, X2, res, 100), cfg, ANNULUS, 40000, 2, [100],
                      noise=())
        target, _ = quad(lambda r: float(flow_exact(np.array([r]), 1.0)[0]) ** 2,
                         0.5, 1.5)
        assert est.agrees_with(target)

    def test_odd_coefficient_vanishes(self):
        cfg = _cfg(order=1, dt=2e-3, t_final=1.0)
        est = mc_mean(lambda res: a_functional(1, X2, res, 500), cfg, POINT_LAW, 20000, 3, [500],
                      noise=())
        assert est.agrees_with(0.0)

    def test_batch_independence(self):
        # each batch is its own substream: simulated alone, in any order,
        # batch b reproduces its (sum, count, aborted) slot of the full run
        cfg = _cfg(order=2, dt=5e-3, t_final=1.0)
        step = cfg.grid_index(1.0)
        quantities = {"a2": lambda res: a_functional(2, X2, res, step),
                      "w1": strong_remainder_sq(cfg, step)[1]}
        est, slots = mc_multi_slots(quantities, cfg, ANNULUS, 4000, 4, [step],
                                    noise=(cfg.eps,))
        assert est["a2"] == mc_mean(quantities["a2"], cfg, ANNULUS, 4000, 4, [step], noise=())
        sizes = batch_layout(4000, 40)
        for name, fn in quantities.items():
            assert len(slots[name]) == 40
            for b in (39, 17, 0):
                assert batch_slot(fn, cfg, ANNULUS, sizes[b], 4, b, [step],
                                  (cfg.eps,)) == slots[name][b]

    def test_grid_refinement_stability(self):
        coarse = mc_mean(lambda res: a_functional(2, X2, res, 250),
                         _cfg(order=2, dt=4e-3, t_final=1.0), POINT_LAW, 20000, 5, [250],
                         noise=())
        fine = mc_mean(lambda res: a_functional(2, X2, res, 500),
                       _cfg(order=2, dt=2e-3, t_final=1.0), POINT_LAW, 20000, 5, [500],
                       noise=())
        assert abs(coarse.value - fine.value) < 3 * (coarse.stderr + fine.stderr)

    def test_validation(self):
        # a time off the dt grid has no grid step to read the coefficient at
        with pytest.raises(ValueError):
            _cfg(order=1).grid_index(0.3337)


class TestStderrCalibration:
    def test_batch_means_coverage(self):
        # 60 independent estimates of a quantity with a known exact value:
        # the 3-sigma band from batch means should cover nearly always
        cfg = _cfg(order=0, dt=1e-2, t_final=0.5)
        target, _ = quad(lambda r: float(flow_exact(np.array([r]), 0.5)[0]) ** 2,
                         0.5, 1.5)
        hits = sum(
            mc_mean(lambda res: a_functional(0, X2, res, 50), cfg, ANNULUS, 2000, 1000 + trial,
                    [50], noise=(), n_batches=20).agrees_with(target)
            for trial in range(60)
        )
        assert hits >= 57


class TestWeakRemainder:
    def test_same_seed_identity_between_orders(self):
        # v_1 = v_0 / sqrt(eps) - a_1 holds pathwise on shared increments,
        # so the estimates satisfy it to rounding
        cfg = _cfg(order=2, dt=5e-3, t_final=1.0, eps=0.1)
        kw = dict(n_paths=4000, seed=7)
        v0 = estimate_weak_remainder(0, 1.0, X2, cfg, POINT_LAW, **kw)
        v1 = estimate_weak_remainder(1, 1.0, X2, cfg, POINT_LAW, **kw)
        a1 = mc_mean(lambda res: a_functional(1, X2, res, 200), cfg, POINT_LAW, 4000, 7, [200],
                     noise=())
        assert v1.value == pytest.approx(v0.value / np.sqrt(cfg.eps) - a1.value,
                                         rel=1e-10, abs=1e-12)

    def test_coupling_reduces_variance(self):
        # rescaling the v_0 estimate by eps^{-1} would give v_2 with stderr
        # v0.stderr / eps; the coupled v_2 estimator cancels the shared
        # first-order noise pathwise and beats that bound
        cfg = _cfg(order=2, dt=5e-3, t_final=1.0, eps=0.1)
        v0 = estimate_weak_remainder(0, 1.0, X2, cfg, ANNULUS, 4000, seed=8)
        v2 = estimate_weak_remainder(2, 1.0, X2, cfg, ANNULUS, 4000, seed=8)
        assert v2.stderr < v0.stderr / cfg.eps / 1.5

    def test_validation(self):
        cfg = _cfg(order=1)
        with pytest.raises(ValueError):
            estimate_weak_remainder(2, 1.0, X2, cfg, POINT_LAW, 2000, seed=9)


class TestStrongRemainder:
    def test_orders_improve_with_m(self):
        eps_grid = [0.05, 0.02, 0.01, 0.005]
        cfg_for = lambda eps: _cfg(order=2, eps=eps, dt=2e-3, t_final=2.0)
        per_eps = [estimate_strong_remainder_sq(2.0, cfg_for(eps), ANNULUS, 20000, seed=10)
                   for eps in eps_grid]
        slopes = [fit_power_law(eps_grid, [ests[m].value for ests in per_eps]).exponent
                  for m in (0, 1, 2)]
        assert all(s >= 0.9 for s in slopes)

    def test_one_estimate_per_order(self):
        cfg = _cfg(order=1, t_final=1.0)
        ests = estimate_strong_remainder_sq(1.0, cfg, POINT_LAW, 2000, seed=11)
        assert len(ests) == 2
        assert all(e.n_paths == 2000 and e.n_batches == 40 for e in ests)

    def test_validation(self):
        cfg = _cfg(order=1)
        with pytest.raises(ValueError):
            estimate_strong_remainder_sq(0.3337, cfg, POINT_LAW, 2000, seed=11)


class TestConditionalS:
    # with xi_0 = +-1 and std(xi_1) = 1 the chain has closed-form moments:
    # E S_{2,2}(t) = 1/2 + e^{-4t}/2,  E[S_{2,1}(t) | xi_0 = +1] = -(3/4)(1 - e^{-4t})

    def test_first_order_centered(self):
        cfg = _cfg(order=1, dt=2e-3, t_final=1.0)
        est = mc_multi({"S": conditional_s(1, 1, 500)}, cfg, POINT_LAW, 20000, 12, [500],
                       noise=())["S"]
        assert est.agrees_with(0.0)

    def test_s22_closed_form(self):
        cfg = _cfg(order=2, dt=2e-3, t_final=1.0)
        est = mc_multi({"S": conditional_s(2, 2, 500)}, cfg, POINT_LAW, 40000, 13, [500],
                       noise=())["S"]
        target = 0.5 + 0.5 * np.exp(-4.0)
        assert abs(est.value - target) < 3 * est.stderr + cfg.dt

    def test_s21_sign_conditioning(self):
        cfg = _cfg(order=2, dt=2e-3, t_final=2.0)
        target = -0.75 * (1.0 - np.exp(-8.0))
        out = mc_multi({sign: conditional_s(2, 1, 1000, sign) for sign in "+-"}, cfg,
                       POINT_LAW, 40000, 14, [1000], noise=())
        plus, minus = out["+"], out["-"]
        assert abs(plus.value - target) < 3 * plus.stderr + 2 * cfg.dt
        assert abs(minus.value + target) < 3 * minus.stderr + 2 * cfg.dt
        assert plus.n_paths + minus.n_paths == 40000

    def test_limit_reached_by_t4(self):
        cfg = _cfg(order=2, dt=2e-3, t_final=4.0)
        est = mc_multi({"S": conditional_s(2, 2, 2000)}, cfg, POINT_LAW, 40000, 15, [2000],
                       noise=())["S"]
        assert abs(est.value - 0.5) < 3 * est.stderr + cfg.dt

    def test_validation(self):
        with pytest.raises(ValueError):
            conditional_s(2, 2, 500, sign="0")


class TestAbortPolicy:
    def test_mass_aborts_raise(self):
        cfg = SimConfig(dim=1, order=0, eps=0.1, dt=1e-2, t_final=1.0)
        law = InitialLaw(kind="deterministic_point", point=(30.0,))
        with pytest.raises(EstimationError):
            estimate_strong_remainder_sq(1.0, cfg, law, 2000, seed=17)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_budget_stops_at_the_first_batch_over_it(self, monkeypatch):
        # one chain abort per batch of 500: the budget of 20 paths is
        # exceeded at batch 20, and batches 21..39 never run
        calls = []
        simulate = estimators.simulate_batch
        monkeypatch.setattr(estimators, "simulate_batch",
                            lambda *a, **kw: calls.append(1) or simulate(*a, **kw))
        cfg = SimConfig(dim=1, order=2, dt=1e-2, t_final=0.5)
        law = ChainBlowup(kind="uniform_annulus", r_min=0.6, r_max=1.4, higher_std=(1.0,))
        with pytest.raises(EstimationError) as err:
            mc_mean(lambda res: res.x0[50][:, 0], cfg, law, 20000, 5, [50], noise=())
        assert len(calls) == 21
        assert str(err.value).startswith("21 of 20000 paths aborted by batch 20 of 40 "
                                         "(the first in batch 0, step ")
        assert str(err.value).endswith(", xbar1)")


class TestMcMulti:
    def test_batches_without_retained_paths_are_skipped(self):
        # 100 paths in 40 batches of 2-3: some batches draw a single sign of
        # xi_0, keep no paths under the sign mask and carry no batch mean
        cfg = _cfg(order=1, dt=1e-2, t_final=0.5)
        law = InitialLaw(kind="symmetric_two_point", point=(1.0,))
        out = mc_multi({"x0": (lambda res: res.x0[50][:, 0], lambda res: res.xi0[:, 0] > 0),
                        "all": lambda res: res.x0[50][:, 0] ** 2},
                       cfg, law, 100, 19, [50], noise=())
        plus = out["x0"]
        assert plus.n_batches < 40
        assert 0 < plus.n_paths < 100
        assert plus.value == pytest.approx(1.0)
        assert out["all"].n_paths == 100 and out["all"].n_batches == 40

    def test_all_masked_out_raises(self):
        cfg = _cfg(order=1, dt=1e-2, t_final=0.5)
        law = InitialLaw(kind="deterministic_point", point=(1.0,))
        with pytest.raises(EstimationError):
            mc_multi({"minus": (lambda res: res.x0[50][:, 0], lambda res: res.xi0[:, 0] < 0)},
                     cfg, law, 100, 19, [50], noise=())


class TestAbortIsolation:
    # xi_1 with std 17 puts 8 of these 20 000 X_0.05 starts beyond the Euler
    # stability bound |x| ~ sqrt(2 / dt): X_0.05 blows up there, while the
    # chain and the smaller eps stay finite
    LAW = InitialLaw(kind="uniform_annulus", r_min=0.6, r_max=1.4, higher_std=(17.0,))
    NOISE = (0.05, 0.02, 0.01, 0.005)

    def _quantities(self, cfg, noise, step):
        qs = {"a1": lambda res: a_functional(1, X2, res, step)}
        for eps in noise:
            qs[eps] = strong_remainder_sq(SimConfig(dim=1, order=2, dt=cfg.dt,
                                                    t_final=cfg.t_final, eps=eps), step)[1]
        return qs

    def test_noisy_abort_leaves_only_its_level(self):
        cfg = SimConfig(dim=1, order=2, dt=1e-2, t_final=0.5)
        shared = mc_multi(self._quantities(cfg, self.NOISE, 50), cfg, self.LAW, 20000, 5,
                          [50], noise=self.NOISE)
        assert shared[0.05].n_aborted == 8 and shared[0.05].n_paths == 20000 - 8
        for name in ("a1",) + self.NOISE[1:]:
            assert shared[name].n_aborted == 0 and shared[name].n_paths == 20000
        alone = mc_multi(self._quantities(cfg, (0.05,), 50), cfg, self.LAW, 20000, 5,
                         [50], noise=(0.05,))
        assert alone[0.05] == shared[0.05]
        assert alone["a1"] == shared["a1"]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_chain_abort_leaves_every_quantity(self):
        cfg = SimConfig(dim=1, order=2, dt=1e-2, t_final=0.5)
        law = ChainBlowup(kind="uniform_annulus", r_min=0.6, r_max=1.4, higher_std=(1.0,))
        out = mc_multi(self._quantities(cfg, self.NOISE, 50), cfg, law, 20000, 5, [50],
                       noise=self.NOISE, n_batches=20)
        for name in ("a1",) + self.NOISE:
            assert out[name].n_aborted == 20 and out[name].n_paths == 20000 - 20

    def test_undeclared_level_rejected(self):
        cfg = SimConfig(dim=1, order=2, dt=1e-2, t_final=0.5)
        with pytest.raises(ValueError):
            mc_multi(self._quantities(cfg, (0.05,), 50), cfg, self.LAW, 100, 5, [50],
                     noise=(0.02,))


class TestFitPowerLaw:
    def test_exact_line(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_power_law(xs, xs)
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_scaled_square(self):
        xs = np.array([0.1, 0.2, 0.4, 0.8])
        fit = fit_power_law(xs, 7.0 * xs ** 2)
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(7.0), abs=1e-10)

    def test_noisy_slope_recovered(self):
        rng = np.random.default_rng(18)
        xs = np.geomspace(0.01, 1.0, 12)
        ys = 3.0 * xs ** 1.5 * np.exp(rng.normal(0, 0.02, size=12))
        fit = fit_power_law(xs, ys)
        assert 1.35 < fit.exponent < 1.65

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0, -4.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 0.0, 4.0])


class TestFitExponentialRate:
    def test_exact_rates(self):
        ts = np.linspace(0.5, 3.0, 6)
        assert fit_exponential_rate(ts, np.exp(-ts)).exponent == pytest.approx(1.0)
        fit = fit_exponential_rate(ts, 3.0 * np.exp(-2.0 * ts))
        assert fit.exponent == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noise_floor_points_dropped(self):
        ts = np.linspace(0.5, 4.0, 8)
        gaps = np.exp(-ts)
        gaps[-2:] = 1e-4          # flat noise floor
        se = np.full(8, 1e-4)     # last two sit below 5 stderr
        fit = fit_exponential_rate(ts, gaps, se)
        assert fit.n_points == 6
        assert fit.exponent == pytest.approx(1.0, abs=1e-10)

    def test_too_few_usable_points(self):
        ts = np.array([1.0, 2.0, 3.0, 4.0])
        gaps = np.exp(-ts)
        se = np.array([1e-9, 1e-9, 1.0, 1.0])
        with pytest.raises(ValueError):
            fit_exponential_rate(ts, gaps, se)
        with pytest.raises(ValueError):
            fit_exponential_rate(ts, -gaps)
