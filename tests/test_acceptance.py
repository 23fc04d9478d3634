"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v``; the conftest hook prints a
pass/fail line per criterion.
"""

import numpy as np
import pytest

from cyclesync.dynamics import DEFAULT_QUARTIC, AgentParams, steady_state_alpha0
from cyclesync.empirics import ScenarioSpec, cf_bandpass, scenario_run
from cyclesync.fixtures import demo_flow_table
from cyclesync.master_stability import (
    from_eigenbasis,
    master_stability_function,
    propagate_deviations,
    shock_response_compare,
    synchronized_orbit,
    time_resolved_volume_rate,
    to_eigenbasis,
)
from cyclesync.networks import (
    Adjacency,
    InteractionNetwork,
    build_io_network,
    build_topology,
    generalized_laplacian,
    uniform_coupling,
)
from cyclesync.phase import (
    epsilon_sweep,
    measured_frequency,
    phase_coherence,
    phase_series,
)
from cyclesync.simulation import (
    ShockConfig,
    SimulationConfig,
    ar1_path,
    simulate,
    simulate_batch,
)

Q = DEFAULT_QUARTIC
CYCLE = AgentParams.with_steady_state(-0.04, 0.4, 0.1, Q)
NOISY_PEAKS = {"min_separation": 10, "smooth_window": 7}


def _single_agent_net():
    return InteractionNetwork(weights=np.eye(1))


def test_criterion_01_limit_cycle_period():
    cfg = SimulationConfig(steps=4000, burn_in=1000, seed=0)
    traj = simulate(_single_agent_net(), CYCLE, Q, None, cfg)
    period = 2 * np.pi / measured_frequency(traj.y[:, 0])
    assert period == pytest.approx(36.0, abs=2.0)


def test_criterion_02_uncoupled_period_spread():
    adj = build_topology("complete", 10)
    net = uniform_coupling(adj, 0.0)
    params = [AgentParams.with_steady_state(a1, 0.4, 0.1, Q)
              for a1 in np.linspace(-0.1, -0.02, 10)]
    cfg = SimulationConfig(steps=4000, burn_in=1000, seed=0)
    traj = simulate(net, params, Q, None, cfg)
    periods = [2 * np.pi / measured_frequency(traj.y[:, i]) for i in range(10)]
    assert min(periods) == pytest.approx(20.0, abs=3.0)
    assert max(periods) == pytest.approx(66.0, abs=5.0)


def test_criterion_03_entrainment_transition():
    adj = build_topology("complete", 10)
    sweep = epsilon_sweep(adj, np.linspace(-0.1, -0.02, 10),
                          eps_grid=[0.10, 0.15, 0.20, 0.25],
                          steps=2500, burn_in=500, seed=0)
    assert not sweep.entrained[0]                     # eps = 0.10
    assert sweep.entrained[-1]                        # eps = 0.25
    assert 0.15 <= sweep.transition_epsilon() <= 0.25


def test_criterion_04_star_hub_frequency_dominance():
    adj = build_topology("star", 10)
    # the hub (node 0) carries the highest natural frequency
    grid = np.linspace(-0.1, -0.02, 10)
    alpha1 = np.concatenate([[grid[0]], grid[1:]])
    uncoupled = epsilon_sweep(adj, alpha1, eps_grid=[0.0],
                              steps=2500, burn_in=500, seed=0)
    coupled = epsilon_sweep(adj, alpha1, eps_grid=[0.5],
                            steps=2500, burn_in=500, seed=0)
    assert coupled.entrained[0]
    omega_common = coupled.omegas[0].mean()
    omega_hub = uncoupled.omegas[0, 0]
    omega_mean = uncoupled.omegas[0].mean()
    assert abs(omega_common - omega_hub) < abs(omega_common - omega_mean)


@pytest.fixture(scope="module")
def long_orbit():
    return synchronized_orbit(CYCLE, Q, steps=61000, burn_in=2000)


def test_criterion_05_master_stability_function(long_orbit):
    grid = np.linspace(0.0, 2.0, 21)
    curve = master_stability_function(long_orbit, grid,
                                      burn_in=1000, window=60000)
    assert -1e-3 <= curve.mu1[0] <= 1e-3
    assert np.all(curve.mu1[1:] < 0)
    assert np.all(curve.mu2[1:] < 0)
    low = curve.mu1[grid <= 0.5]
    assert np.all(np.diff(low) <= 1e-12)


def test_criterion_06_time_resolved_stability(long_orbit):
    period = int(round(long_orbit.period))
    series = time_resolved_volume_rate(long_orbit, 0.6)[:period]
    slope = long_orbit.fprime[:period]
    assert np.corrcoef(series, slope)[0, 1] > 0.9


def test_criterion_07_eigenbasis_oracle(long_orbit, two_clique_adj):
    spec = generalized_laplacian(two_clique_adj, eps=0.3)
    shock_y = np.array([0.05, 0.03, 0.04, -0.03, -0.06, 0.00])
    xi0 = np.zeros(12)
    xi0[1::2] = shock_y
    zeta_y = to_eigenbasis(xi0, spec)[1::2]

    # reference deviation vector in the eigenbasis, to two decimals:
    # (0.01, 0.09, 0.00, 0.02, -0.02, -0.04).  The two modes sharing the
    # repeated middle eigenvalue are only determined up to a rotation of
    # that plane, so the check pins each simple mode's magnitude and the
    # joint norm of the repeated pair.
    lam = spec.eigenvalues
    assert lam[3] == pytest.approx(lam[4], abs=1e-9)      # repeated pair
    assert abs(zeta_y[0]) == pytest.approx(0.01, abs=0.005)
    assert abs(zeta_y[1]) == pytest.approx(0.09, abs=0.005)
    assert abs(zeta_y[2]) == pytest.approx(0.00, abs=0.005)
    assert abs(zeta_y[5]) == pytest.approx(0.02, abs=0.005)
    pair_norm = float(np.hypot(zeta_y[3], zeta_y[4]))
    assert pair_norm == pytest.approx(float(np.hypot(0.02, 0.04)), abs=0.005)

    # slow-mode decay time exceeds every faster mode's
    _, zeta = propagate_deviations(long_orbit, spec, xi0, steps=600)
    z_y = np.abs(zeta[:, 1::2])

    def decay_time(mode):
        target = 0.1 * z_y[0, mode]
        below = np.flatnonzero(z_y[1:, mode] <= target)
        return int(below[0]) + 1 if below.size else zeta.shape[0]

    slow = decay_time(1)
    assert all(decay_time(m) < slow for m in range(2, 6))


@pytest.fixture(scope="module")
def pair_net():
    return uniform_coupling(build_topology("complete", 2), 0.3)


def test_criterion_08_linearization_quality_ordering(pair_net):
    rmses = []
    shifts = {}
    for u in (0.025, 0.05, 0.1, 0.2):
        resp = shock_response_compare(pair_net, CYCLE, Q, shock=[u, 0.0])
        rmses.append(resp.rmse)
    assert all(a < b for a, b in zip(rmses, rmses[1:]))
    for u in (0.1, -0.1):
        shifts[u] = shock_response_compare(pair_net, CYCLE, Q,
                                           shock=[u, 0.0]).phase_shift
    assert shifts[0.1] > 0
    assert shifts[-0.1] < 0


def _mean_coherence(net, params, shocks, n_seeds, steps=2500, burn_in=500):
    cfg = SimulationConfig(steps=steps, burn_in=burn_in)
    values = []
    for traj in simulate_batch(net, [params] * n_seeds, Q, shocks, cfg,
                               seeds=range(n_seeds)):
        phis = np.column_stack([phase_series(traj.y[:, i], **NOISY_PEAKS).phi
                                for i in range(net.n)])
        values.append(phase_coherence(phis))
    return float(np.mean(values))


def test_criterion_09_noise_experiments():
    grid = np.linspace(-0.1, -0.02, 10)
    params = [AgentParams.with_steady_state(a1, 0.4, 0.1, Q) for a1 in grid]
    adj = build_topology("complete", 10)

    # (a) idiosyncratic noise raises the entrainment threshold
    idio = ShockConfig(rho_u=0.5, sigma_u=0.1)
    r_weak = _mean_coherence(uniform_coupling(adj, 0.2), params, idio, 20)
    r_strong = _mean_coherence(uniform_coupling(adj, 0.4), params, idio, 20)
    assert r_strong - r_weak >= 0.1

    # (b) stronger common noise synchronizes uncoupled agents more
    common_net = InteractionNetwork(weights=np.eye(10), sectors=["ALL"] * 10)
    means = [_mean_coherence(common_net, params,
                             ShockConfig(rho_v=0.5, sigma_v=sv), 20)
             for sv in (0.05, 0.10, 0.15)]
    assert all(a <= b for a, b in zip(means, means[1:]))


def test_criterion_10_endogenous_comovement_dominance(demo_io_network):
    spec = ScenarioSpec(dynamics=("cycle", "focus", "node"),
                        shock_types=("idiosyncratic", "country", "sector"),
                        sigma_u_grid=(0.1, 0.2, 0.3), n_seeds=20)
    rows = scenario_run(demo_io_network, spec)
    table = {(r.dynamics, r.shock_type, r.sigma_u, r.group): r for r in rows}
    for shock in spec.shock_types:
        for su in spec.sigma_u_grid:
            for group in ("within_country_sectors", "across_country_aggregates"):
                cyc = table[("cycle", shock, su, group)]
                for other in ("focus", "node"):
                    oth = table[(other, shock, su, group)]
                    pooled = np.sqrt(cyc.sd_corr ** 2 + oth.sd_corr ** 2)
                    assert cyc.mean_corr >= oth.mean_corr - pooled, \
                        (shock, su, group, other)

    # deterministic limit cycle: comovement is complete
    quiet = ScenarioSpec(dynamics=("cycle",), shock_types=("idiosyncratic",),
                         sigma_u_grid=(0.0,), n_seeds=3)
    for r in scenario_run(demo_io_network, quiet):
        assert r.mean_corr > 0.99


class TestCriterion11PropertySuites:
    def _random_connected_adjacency(self, rng):
        n = int(rng.integers(3, 12))
        m = (rng.random((n, n)) < 0.4).astype(float)
        m = np.triu(m, 1)
        m = m + m.T
        idx = np.arange(n - 1)
        m[idx, idx + 1] = 1
        m[idx + 1, idx] = 1
        return Adjacency(m)

    def test_row_stochasticity(self, rng):
        for _ in range(100):
            adj = self._random_connected_adjacency(rng)
            net = uniform_coupling(adj, float(rng.uniform(0, 1)))
            assert np.max(np.abs(net.weights.sum(axis=1) - 1.0)) < 1e-10

    def test_spectral_bounds_undirected(self, rng):
        for _ in range(100):
            adj = self._random_connected_adjacency(rng)
            spec = generalized_laplacian(adj)
            assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-8)
            assert spec.eigenvalues[-1] <= 2.0 + 1e-8

    def test_fixed_point_residual(self, rng):
        from cyclesync.dynamics import single_agent_step
        for _ in range(100):
            a1 = float(rng.uniform(-0.4, -0.01))
            a2 = float(rng.uniform(0.05, 0.95))
            de = float(rng.uniform(0.05, 1.0))
            p = AgentParams(steady_state_alpha0(a1, a2, de, Q), a1, a2, de)
            x, y = single_agent_step(1.0 / de, 1.0, 1.0, p, Q)
            assert abs(x - 1.0 / de) < 1e-12
            assert abs(y - 1.0) < 1e-12

    def test_ar1_stationary_variance(self):
        rng = np.random.default_rng(101)
        path = ar1_path(0.5, 0.1, 100000, rng)
        assert np.var(path[100:]) == pytest.approx(0.01 / 0.75, rel=0.05)

    def test_cf_linearity_and_bands(self, rng):
        sm = pytest.importorskip("statsmodels.tsa.filters.cf_filter")
        for _ in range(100):
            n = int(rng.integers(12, 90))
            x = np.cumsum(rng.normal(0, 1, n))
            y = np.cumsum(rng.normal(0, 1, n))
            a, b = rng.uniform(-2, 2, 2)
            lhs = cf_bandpass(a * x + b * y, drift=False).cycle
            rhs = a * cf_bandpass(x, drift=False).cycle \
                + b * cf_bandpass(y, drift=False).cycle
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)
            ref, _ = sm.cffilter(x, low=2, high=25, drift=True)
            np.testing.assert_allclose(cf_bandpass(x).cycle, np.asarray(ref),
                                       atol=1e-10)
        t = np.arange(57)
        assert np.var(cf_bandpass(np.sin(2 * np.pi * t / 10)).cycle) >= \
            0.8 * np.var(np.sin(2 * np.pi * t / 10))
        assert np.var(cf_bandpass(np.sin(2 * np.pi * t / 50)).cycle) < \
            0.2 * np.var(np.sin(2 * np.pi * t / 50))

    def test_eigenbasis_round_trip(self, rng):
        for _ in range(100):
            adj = self._random_connected_adjacency(rng)
            spec = generalized_laplacian(adj, eps=float(rng.uniform(0.1, 1.0)))
            xi = rng.normal(0, 0.1, 2 * spec.n)
            back = from_eigenbasis(to_eigenbasis(xi, spec), spec)
            assert np.max(np.abs(back - xi)) < 1e-10


def test_io_fixture_gate(demo_io_network):
    # sanity on the synthetic fixture driving criterion 10
    assert demo_io_network.n == 18
    assert set(demo_io_network.countries) == {"AAA", "BBB", "CCC"}
    build_io_network(demo_flow_table())    # rebuilds cleanly
