import numpy as np
import pytest
from scipy.integrate import quad

from fluctx import estimators
from fluctx.cli import RULES
from fluctx.estimators import (
    EstimationError,
    McEstimate,
    Quantity,
    batch_layout,
    conditional_s,
    fit_exponential_rate,
    fit_power_law,
    mc_multi,
    N_BATCHES,
    simulation,
    strong_remainder_sq,
    weak_coefficient,
    weak_remainder,
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


def mean(quantity, dt, law, n_paths, seed):
    """The mc_multi estimate of one quantity, at d = 1."""
    return mc_multi({"q": quantity}, 1, dt, law, n_paths, seed)["q"]


def agrees(est, reference):
    """The "sigma" pass rule of result rows: within 3 batch-means stderr."""
    return RULES["sigma"][1](est.value, est.stderr, reference, None)


class TestBatchLayout:
    def test_sizes_sum_and_balance(self):
        sizes = batch_layout(1003)
        assert len(sizes) == N_BATCHES == 40
        assert sum(sizes) == 1003
        assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_layout(N_BATCHES - 1)


class TestMcEstimate:
    def test_agreement_band(self):
        est = McEstimate(value=1.0, stderr=0.1, n_paths=100, n_batches=20)
        assert agrees(est, 1.25)
        assert not agrees(est, 1.5)


class TestEstimateA:
    def test_frozen_leading_order_is_exact(self):
        # deterministic xi_0 = 1 sits at the fixed point: a_0(t, x^2) = 1
        # with zero variance
        law = InitialLaw(kind="deterministic_point", point=(1.0,))
        est = mean(weak_coefficient(0, X2, 250), 2e-3, law, 2000, 1)
        assert est.value == 1.0
        assert est.stderr == 0.0

    def test_a0_matches_direct_flow_quadrature(self):
        # a_0(t, x^2) for the annulus law is the radial average of the
        # squared exact flow
        est = mean(weak_coefficient(0, X2, 100), 1e-2, ANNULUS, 40000, 2)
        target, _ = quad(lambda r: float(flow_exact(np.array([r]), 1.0)[0]) ** 2,
                         0.5, 1.5)
        assert agrees(est, target)

    def test_odd_coefficient_vanishes(self):
        est = mean(weak_coefficient(1, X2, 500), 2e-3, POINT_LAW, 20000, 3)
        assert agrees(est, 0.0)

    def test_batch_independence(self):
        # each batch is its own substream: simulated alone, in any order,
        # batch b reproduces its (sum, count, aborted) slot of the full run
        cfg = _cfg(order=2, dt=5e-3, t_final=1.0)
        step = cfg.grid_index(1.0)
        quantities = {"a2": weak_coefficient(2, X2, step),
                      "w1": strong_remainder_sq(cfg.eps, cfg.order, step)[1]}
        est, slots = mc_multi_slots(quantities, 1, cfg.dt, ANNULUS, 4000, 4)
        assert est["a2"] == mean(quantities["a2"], cfg.dt, ANNULUS, 4000, 4)
        sizes = batch_layout(4000)
        for name, q in quantities.items():
            assert len(slots[name]) == 40
            for b in (39, 17, 0):
                assert batch_slot(q, cfg, ANNULUS, sizes[b], 4, b, (cfg.eps,)) == slots[name][b]

    def test_grid_refinement_stability(self):
        coarse = mean(weak_coefficient(2, X2, 250), 4e-3, POINT_LAW, 20000, 5)
        fine = mean(weak_coefficient(2, X2, 500), 2e-3, POINT_LAW, 20000, 5)
        assert abs(coarse.value - fine.value) < 3 * (coarse.stderr + fine.stderr)

    def test_validation(self):
        # a time off the dt grid has no grid step to read the coefficient at
        with pytest.raises(ValueError):
            _cfg(order=1).grid_index(0.3337)


class TestStderrCalibration:
    def test_batch_means_coverage(self):
        # 60 independent estimates of a quantity with a known exact value:
        # the 3-sigma band from batch means should cover nearly always
        target, _ = quad(lambda r: float(flow_exact(np.array([r]), 0.5)[0]) ** 2,
                         0.5, 1.5)
        hits = sum(
            agrees(mean(weak_coefficient(0, X2, 50), 1e-2, ANNULUS, 2000, 1000 + trial), target)
            for trial in range(60)
        )
        assert hits >= 57


class TestWeakRemainder:
    def test_same_seed_identity_between_orders(self):
        # v_1 = v_0 / sqrt(eps) - a_1 holds pathwise on shared increments,
        # so the estimates satisfy it to rounding
        eps = 0.1
        v0 = mean(weak_remainder(0, X2, eps, 2, 200), 5e-3, POINT_LAW, 4000, 7)
        v1 = mean(weak_remainder(1, X2, eps, 2, 200), 5e-3, POINT_LAW, 4000, 7)
        a1 = mean(weak_coefficient(1, X2, 200), 5e-3, POINT_LAW, 4000, 7)
        assert v1.value == pytest.approx(v0.value / np.sqrt(eps) - a1.value,
                                         rel=1e-10, abs=1e-12)

    def test_coupling_reduces_variance(self):
        # rescaling the v_0 estimate by eps^{-1} would give v_2 with stderr
        # v0.stderr / eps; the coupled v_2 estimator cancels the shared
        # first-order noise pathwise and beats that bound
        eps = 0.1
        v0 = mean(weak_remainder(0, X2, eps, 2, 200), 5e-3, ANNULUS, 4000, 8)
        v2 = mean(weak_remainder(2, X2, eps, 2, 200), 5e-3, ANNULUS, 4000, 8)
        assert v2.stderr < v0.stderr / eps / 1.5

    def test_validation(self):
        # v_2 reads Xbar_2, past the order 1 its X_eps is truncated at
        with pytest.raises(ValueError):
            mean(weak_remainder(2, X2, 0.1, 1, 500), 2e-3, POINT_LAW, 2000, 9)


class TestStrongRemainder:
    def test_orders_improve_with_m(self):
        eps_grid = [0.05, 0.02, 0.01, 0.005]
        per_eps = [list(mc_multi(strong_remainder_sq(eps, 2, 1000), 1, 2e-3, ANNULUS, 20000,
                                 10).values())
                   for eps in eps_grid]
        slopes = [fit_power_law(eps_grid, [ests[m].value for ests in per_eps])
                  for m in (0, 1, 2)]
        assert all(s >= 0.9 for s in slopes)

    def test_one_estimate_per_order(self):
        ests = list(mc_multi(strong_remainder_sq(0.1, 1, 500), 1, 2e-3, POINT_LAW, 2000,
                             11).values())
        assert len(ests) == 2
        assert all(e.n_paths == 2000 and e.n_batches == 40 for e in ests)

    def test_validation(self):
        # a time off the dt grid has no grid step to read the remainders at
        cfg = _cfg(order=1)
        with pytest.raises(ValueError):
            strong_remainder_sq(cfg.eps, cfg.order, cfg.grid_index(0.3337))


class TestConditionalS:
    # with xi_0 = +-1 and std(xi_1) = 1 the chain has closed-form moments:
    # E S_{2,2}(t) = 1/2 + e^{-4t}/2,  E[S_{2,1}(t) | xi_0 = +1] = -(3/4)(1 - e^{-4t})

    def test_first_order_centered(self):
        est = mean(conditional_s(1, 1, 500), 2e-3, POINT_LAW, 20000, 12)
        assert agrees(est, 0.0)

    def test_s22_closed_form(self):
        dt = 2e-3
        est = mean(conditional_s(2, 2, 500), dt, POINT_LAW, 40000, 13)
        target = 0.5 + 0.5 * np.exp(-4.0)
        assert abs(est.value - target) < 3 * est.stderr + dt

    def test_s21_sign_conditioning(self):
        dt = 2e-3
        target = -0.75 * (1.0 - np.exp(-8.0))
        out = mc_multi({sign: conditional_s(2, 1, 1000, sign) for sign in "+-"}, 1, dt,
                       POINT_LAW, 40000, 14)
        plus, minus = out["+"], out["-"]
        assert abs(plus.value - target) < 3 * plus.stderr + 2 * dt
        assert abs(minus.value + target) < 3 * minus.stderr + 2 * dt
        assert plus.n_paths + minus.n_paths == 40000

    def test_limit_reached_by_t4(self):
        dt = 2e-3
        est = mean(conditional_s(2, 2, 2000), dt, POINT_LAW, 40000, 15)
        assert abs(est.value - 0.5) < 3 * est.stderr + dt

    def test_validation(self):
        with pytest.raises(ValueError):
            conditional_s(2, 2, 500, sign="0")


class TestAbortPolicy:
    def test_mass_aborts_raise(self):
        law = InitialLaw(kind="deterministic_point", point=(30.0,))
        with pytest.raises(EstimationError):
            mc_multi(strong_remainder_sq(0.1, 0, 100), 1, 1e-2, law, 2000, 17)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_budget_stops_at_the_first_batch_over_it(self, monkeypatch):
        # one chain abort per batch of 500: the budget of 20 paths is
        # exceeded at batch 20, and batches 21..39 never run
        calls = []
        simulate = estimators.simulate_batch
        monkeypatch.setattr(estimators, "simulate_batch",
                            lambda *a, **kw: calls.append(1) or simulate(*a, **kw))
        law = ChainBlowup(kind="uniform_annulus", r_min=0.6, r_max=1.4, higher_std=(1.0,))
        # reads Xbar_0 only, but steps the chain, where the blowup is, to order 2
        with pytest.raises(EstimationError) as err:
            mean(Quantity(lambda res: res.x0[50][:, 0], 2, (50,)), 1e-2, law, 20000, 5)
        assert len(calls) == 21
        assert str(err.value).startswith("21 of 20000 paths aborted by batch 20 of 40 "
                                         "(the first in batch 0, step ")
        assert str(err.value).endswith(", xbar1)")


class TestMcMulti:
    def test_batches_without_retained_paths_are_skipped(self):
        # 100 paths in 40 batches of 2-3: some batches draw a single sign of
        # xi_0, keep no paths under the sign mask and carry no batch mean
        law = InitialLaw(kind="symmetric_two_point", point=(1.0,))
        out = mc_multi({"x0": Quantity(lambda res: res.x0[50][:, 0], 1, (50,),
                                       mask=lambda res: res.xi0[:, 0] > 0),
                        "all": Quantity(lambda res: res.x0[50][:, 0] ** 2, 1, (50,))},
                       1, 1e-2, law, 100, 19)
        plus = out["x0"]
        assert plus.n_batches < 40
        assert 0 < plus.n_paths < 100
        assert plus.value == pytest.approx(1.0)
        assert out["all"].n_paths == 100 and out["all"].n_batches == 40

    def test_all_masked_out_raises(self):
        law = InitialLaw(kind="deterministic_point", point=(1.0,))
        with pytest.raises(EstimationError):
            mean(Quantity(lambda res: res.x0[50][:, 0], 1, (50,),
                          mask=lambda res: res.xi0[:, 0] < 0), 1e-2, law, 100, 19)


class TestSimulation:
    def test_order_slices_and_end_follow_the_reads(self):
        sim, steps, noise = simulation({"a3": weak_coefficient(3, X2, 30),
                                        "a1": weak_coefficient(1, X2, 10)}, 1, 1e-2)
        assert (sim.order, sim.n_steps, steps, noise) == (3, 30, [10, 30], ())

    def test_a_noisy_request_steps_its_truncation_order(self, monkeypatch):
        # v_0 reads Xbar_0 alone, but its X_eps starts from xi_eps truncated
        # at order 2, so the chain runs to order 2
        orders = []
        simulate = estimators.simulate_batch

        def spy(cfg, *args, **kwargs):
            orders.append(cfg.order)
            return simulate(cfg, *args, **kwargs)

        monkeypatch.setattr(estimators, "simulate_batch", spy)
        mc_multi({"v0": weak_remainder(0, X2, 0.1, 2, 20), "a1": weak_coefficient(1, X2, 20)},
                 1, 1e-2, ANNULUS, 100, 5)
        assert orders == [2] * N_BATCHES

    def test_mixed_truncation_orders_are_rejected(self):
        # the law draws xi_1..xi_order of the chain order into every X_eps, so
        # an X_eps truncated below the chain order cannot ride on it
        with pytest.raises(ValueError):
            simulation({**strong_remainder_sq(0.1, 1, 20),
                        "v": weak_remainder(0, X2, 0.05, 2, 20)}, 1, 1e-2)
        with pytest.raises(ValueError):
            simulation({"v": weak_remainder(0, X2, 0.1, 1, 20),
                        "a2": weak_coefficient(2, X2, 20)}, 1, 1e-2)


class TestAbortIsolation:
    # xi_1 with std 17 puts 8 of these 20 000 X_0.05 starts beyond the Euler
    # stability bound |x| ~ sqrt(2 / dt): X_0.05 blows up there, while the
    # chain and the smaller eps stay finite
    LAW = InitialLaw(kind="uniform_annulus", r_min=0.6, r_max=1.4, higher_std=(17.0,))
    NOISE = (0.05, 0.02, 0.01, 0.005)

    def _quantities(self, noise, step):
        qs = {"a1": weak_coefficient(1, X2, step)}
        for eps in noise:
            qs[eps] = strong_remainder_sq(eps, 2, step)[1]
        return qs

    def test_noisy_abort_leaves_only_its_level(self):
        shared = mc_multi(self._quantities(self.NOISE, 50), 1, 1e-2, self.LAW, 20000, 5)
        assert shared[0.05].n_aborted == 8 and shared[0.05].n_paths == 20000 - 8
        for name in ("a1",) + self.NOISE[1:]:
            assert shared[name].n_aborted == 0 and shared[name].n_paths == 20000
        alone = mc_multi(self._quantities((0.05,), 50), 1, 1e-2, self.LAW, 20000, 5)
        assert alone[0.05] == shared[0.05]
        assert alone["a1"] == shared["a1"]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_chain_abort_leaves_every_quantity(self):
        # one chain abort in each of the 40 batches: 40 of 40 000 paths is
        # within the 0.1% budget
        law = ChainBlowup(kind="uniform_annulus", r_min=0.6, r_max=1.4, higher_std=(1.0,))
        out = mc_multi(self._quantities(self.NOISE, 50), 1, 1e-2, law, 40000, 5)
        for name in ("a1",) + self.NOISE:
            assert out[name].n_aborted == 40 and out[name].n_paths == 40000 - 40

    def test_simulates_the_levels_its_quantities_read(self, monkeypatch):
        # the noise levels come from the quantities' eps, in the order first
        # read, and each batch steps exactly those trajectories
        levels = []
        simulate = estimators.simulate_batch

        def spy(*args, noise, **kwargs):
            levels.append(noise)
            return simulate(*args, noise=noise, **kwargs)

        monkeypatch.setattr(estimators, "simulate_batch", spy)
        qs = {"v_a": weak_remainder(1, X2, 0.02, 2, 20),
              "a1": weak_coefficient(1, X2, 20),
              "w": strong_remainder_sq(0.05, 2, 20)[0],
              "v_b": weak_remainder(2, X2, 0.02, 2, 20)}
        assert simulation(qs, 1, 1e-2)[2] == (0.02, 0.05)
        mc_multi(qs, 1, 1e-2, self.LAW, 100, 5)
        assert levels == [(0.02, 0.05)] * N_BATCHES
        levels.clear()
        mc_multi(self._quantities((), 20), 1, 1e-2, self.LAW, 100, 5)
        assert levels == [()] * N_BATCHES


class TestFitPowerLaw:
    def test_exact_line(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_power_law(xs, xs)
        assert fit == pytest.approx(1.0, abs=1e-12)

    def test_scaled_square(self):
        xs = np.array([0.1, 0.2, 0.4, 0.8])
        assert fit_power_law(xs, 7.0 * xs ** 2) == pytest.approx(2.0, abs=1e-12)

    def test_noisy_slope_recovered(self):
        rng = np.random.default_rng(18)
        xs = np.geomspace(0.01, 1.0, 12)
        ys = 3.0 * xs ** 1.5 * np.exp(rng.normal(0, 0.02, size=12))
        assert 1.35 < fit_power_law(xs, ys) < 1.65

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0, -4.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 0.0, 4.0])


class TestFitExponentialRate:
    def test_exact_rates(self):
        ts, se = np.linspace(0.5, 3.0, 6), np.zeros(6)
        assert fit_exponential_rate(ts, np.exp(-ts), se) == pytest.approx(1.0)
        assert fit_exponential_rate(ts, 3.0 * np.exp(-2.0 * ts), se) == pytest.approx(2.0)

    def test_noise_floor_points_dropped(self):
        ts = np.linspace(0.5, 4.0, 8)
        gaps = np.exp(-ts)
        gaps[-2:] = 1e-4          # flat noise floor
        se = np.full(8, 1e-4)     # last two sit below 5 stderr
        # kept, the floor would flatten the slope well away from 1
        assert fit_exponential_rate(ts, gaps, se) == pytest.approx(1.0, abs=1e-10)

    def test_too_few_usable_points(self):
        ts = np.array([1.0, 2.0, 3.0, 4.0])
        gaps = np.exp(-ts)
        se = np.array([1e-9, 1e-9, 1.0, 1.0])
        with pytest.raises(ValueError):
            fit_exponential_rate(ts, gaps, se)
        with pytest.raises(ValueError):
            fit_exponential_rate(ts, -gaps, np.zeros(4))
