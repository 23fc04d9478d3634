import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from cyclesync import empirics, phase
from cyclesync.dynamics import DEFAULT_QUARTIC, AgentParams, eval_f, single_agent_step
from cyclesync.errors import ConfigError, NumericalBlowup
from cyclesync.networks import InteractionNetwork, build_topology, uniform_coupling
from cyclesync.simulation import (
    ShockConfig,
    SimulationConfig,
    aggregate_series,
    ar1_path,
    simulate,
    simulate_batch,
    _ar1_recursion,
    _CHECK_EVERY,
    _initial_states,
    _iterate,
    _per_node_params,
    _shock_paths,
)

Q = DEFAULT_QUARTIC


def cycle_params(alpha1=-0.04, alpha2=0.4, delta=0.1):
    return AgentParams.with_steady_state(alpha1, alpha2, delta, Q)


class TestAr1Path:
    def test_zero_noise_is_all_zero(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(ar1_path(0.0, 0.0, 100, rng), np.zeros(100))

    def test_starts_at_zero(self):
        rng = np.random.default_rng(1)
        assert ar1_path(0.7, 0.3, 50, rng)[0] == 0.0

    def test_recursion_matches_definition(self):
        draws = np.random.default_rng(3).normal(0, 0.2, 99)

        class FakeRng:
            def normal(self, loc, scale, size):
                return draws

        path = ar1_path(0.6, 0.2, 100, FakeRng())
        manual = np.zeros(100)
        for t in range(99):
            manual[t + 1] = 0.6 * manual[t] + draws[t]
        np.testing.assert_allclose(path, manual, atol=1e-14)

    def test_stationary_variance(self):
        rng = np.random.default_rng(42)
        path = ar1_path(0.5, 0.1, 100000, rng)
        target = 0.01 / (1 - 0.25)
        assert np.var(path[100:]) == pytest.approx(target, rel=0.05)

    def test_lag_one_autocorrelation(self):
        rng = np.random.default_rng(43)
        path = ar1_path(0.5, 0.1, 100000, rng)[100:]
        rho = np.corrcoef(path[:-1], path[1:])[0, 1]
        assert rho == pytest.approx(0.5, abs=0.02)

    def test_rejects_bad_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            ar1_path(1.0, 0.1, 10, rng)
        with pytest.raises(ConfigError):
            ar1_path(0.5, -0.1, 10, rng)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1])
    def test_rejects_non_finite_or_negative_sd(self, sigma):
        # NaN fails no "< 0" test; it used to simulate and then blow up
        with pytest.raises(ConfigError, match="finite and non-negative"):
            ar1_path(0.5, sigma, 10, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="sigma_v must be finite and non-negative"):
            ShockConfig(sigma_v=sigma)


@pytest.fixture(scope="module")
def lfilter():
    return pytest.importorskip("scipy.signal").lfilter


def lfilter_path(lfilter, rho, innovations):
    """The zero-started AR(1) path as scipy's first-order filter gives it."""
    return np.concatenate(([0.0], lfilter([1.0], [1.0, -rho], innovations)))


class TestAr1AgainstLfilter:
    """The owned recursion reproduces ``lfilter([1], [1, -rho])`` bit for bit."""

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("steps", [2, 3, 600, 4000])
    def test_ar1_path(self, lfilter, rho, steps):
        path = ar1_path(rho, 0.2, steps, np.random.default_rng(steps))
        innovations = np.random.default_rng(steps).normal(0.0, 0.2, steps - 1)
        np.testing.assert_array_equal(path, lfilter_path(lfilter, rho, innovations))

    def test_recursion_with_rho_per_column(self, lfilter):
        rhos = np.array([0.0, 0.2, 0.5, 0.75, 0.95, 0.3])
        innovations = np.random.default_rng(5).normal(0.0, 0.1, (999, rhos.size))
        paths = np.zeros((1000, rhos.size))
        paths[1:] = innovations
        _ar1_recursion(paths, rhos)
        for k, rho in enumerate(rhos):
            np.testing.assert_array_equal(paths[:, k],
                                          lfilter_path(lfilter, rho, innovations[:, k]))

    def test_mixed_batch_shock_sum(self, lfilter):
        # silent runs sit between active ones; every (run, layer, entity)
        # path is filtered from its own stream and added layer by layer
        nets = [ROUTED] * 5
        shocks = [ALL_LAYERS, ShockConfig(), SECTOR_ONLY, ShockConfig(rho_u=0.5),
                  ShockConfig(rho_u=0.8, sigma_u=0.05, rho_z=0.1, sigma_z=0.01)]
        seeds = [3, 4, 5, 6, 7]
        steps = 700
        total = np.zeros((5, steps, ROUTED.n))
        _shock_paths(nets, shocks, steps, seeds, total)

        want = np.zeros_like(total)
        for r, (shock, seed) in enumerate(zip(shocks, seeds)):
            for layer, rho, sigma, groups in (
                    (0, shock.rho_u, shock.sigma_u, list(range(ROUTED.n))),
                    (1, shock.rho_v, shock.sigma_v, ROUTED.sectors),
                    (2, shock.rho_z, shock.sigma_z, ROUTED.countries)):
                if sigma == 0:
                    continue
                for j, group in enumerate(sorted({g for g in groups if g is not None})):
                    rng = np.random.default_rng((seed, layer, j))
                    path = lfilter_path(lfilter, rho, rng.normal(0.0, sigma, steps - 1))
                    for i in range(ROUTED.n):
                        if groups[i] == group:
                            want[r, :, i] += path
        np.testing.assert_array_equal(total, want)
        assert not total[1].any() and not total[3].any()


def single_net():
    return InteractionNetwork(weights=np.eye(1))


class TestSimulate:
    def test_cycle_period_about_36(self):
        from cyclesync.phase import measured_frequency
        cfg = SimulationConfig(steps=4000, burn_in=1000, seed=0)
        traj = simulate(single_net(), cycle_params(), Q, None, cfg)
        period = 2 * np.pi / measured_frequency(traj.y[:, 0])
        assert period == pytest.approx(36, abs=2)

    def test_uncoupled_period_spread(self):
        from cyclesync.phase import measured_frequency
        adj = build_topology("complete", 10)
        net = uniform_coupling(adj, 0.0)
        params = [cycle_params(a1) for a1 in np.linspace(-0.1, -0.02, 10)]
        cfg = SimulationConfig(steps=4000, burn_in=1000, seed=0)
        traj = simulate(net, params, Q, None, cfg)
        periods = [2 * np.pi / measured_frequency(traj.y[:, i]) for i in range(10)]
        assert min(periods) == pytest.approx(20, abs=3)
        assert max(periods) == pytest.approx(66, abs=5)

    def test_fixed_point_start_stays_constant(self):
        adj = build_topology("star", 5)
        net = uniform_coupling(adj, 0.3)
        cfg = SimulationConfig(steps=200, seed=1, initial_mode="fixed_point")
        traj = simulate(net, cycle_params(), Q, None, cfg)
        np.testing.assert_allclose(traj.y, 1.0, atol=1e-12)
        np.testing.assert_allclose(traj.x, 10.0, atol=1e-11)

    def test_determinism(self):
        adj = build_topology("complete", 4)
        net = uniform_coupling(adj, 0.2)
        shocks = ShockConfig(rho_u=0.3, sigma_u=0.05, rho_z=0.3, sigma_z=0.02)
        cfg = SimulationConfig(steps=300, seed=77)
        a = simulate(net, cycle_params(), Q, shocks, cfg)
        b = simulate(net, cycle_params(), Q, shocks, cfg)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.x, b.x)

    def test_zero_sigma_reproduces_deterministic_run(self):
        adj = build_topology("complete", 4)
        net = uniform_coupling(adj, 0.2)
        cfg = SimulationConfig(steps=300, seed=5)
        silent = simulate(net, cycle_params(), Q,
                          ShockConfig(rho_u=0.5, sigma_u=0.0), cfg)
        nothing = simulate(net, cycle_params(), Q, None, cfg)
        np.testing.assert_array_equal(silent.y, nothing.y)

    def test_enabling_one_layer_keeps_other_draws(self):
        # u-paths are keyed independently of the z layer: the shock sum with
        # both on is the u-only sum plus the z-only sum, bit for bit
        steps, seed = 200, 11

        def shock_sum(**layers):
            total = np.zeros((1, steps, ROUTED.n))
            _shock_paths([ROUTED], [ShockConfig(**layers)], steps, [seed], total)
            return total[0]

        only_u = shock_sum(rho_u=0.4, sigma_u=0.05)
        only_z = shock_sum(rho_z=0.4, sigma_z=0.05)
        both = shock_sum(rho_u=0.4, sigma_u=0.05, rho_z=0.4, sigma_z=0.05)
        assert np.any(only_u != 0) and np.any(only_z != 0)
        np.testing.assert_array_equal(both, only_u + only_z)

    def test_homogeneity_collapse(self):
        # identical params, complete uniform coupling, identical starts:
        # every node follows the same path
        n = 6
        net = InteractionNetwork(weights=np.full((n, n), 1.0 / n))
        cfg = SimulationConfig(steps=500, seed=3, initial_mode="fixed_point")
        traj = simulate(net, cycle_params(), Q,
                        ShockConfig(rho_z=0.3, sigma_z=0.05), cfg,)
        spread = np.max(np.abs(traj.y - traj.y[:, :1]))
        assert spread < 1e-10

    def test_sector_country_shock_routing(self):
        # uncoupled identical nodes from the fixed point differ only by the
        # shock path each one receives
        net = InteractionNetwork(
            weights=np.eye(4),
            labels=["a", "b", "c", "d"],
            sectors=["S1", "S1", "S2", None],
            countries=["X", "Y", "X", "X"],
        )
        cfg = SimulationConfig(steps=100, seed=9, initial_mode="fixed_point")
        sector = simulate(net, cycle_params(), Q, ShockConfig(rho_v=0.3, sigma_v=0.1), cfg).y
        # same sector shares one v path; final-demand-style node gets none
        np.testing.assert_array_equal(sector[:, 0], sector[:, 1])
        assert np.any(sector[:, 0] != sector[:, 2])
        np.testing.assert_allclose(sector[:, 3], 1.0, atol=1e-12)
        assert np.any(np.abs(sector[:, :3] - 1.0) > 1e-3)
        country = simulate(net, cycle_params(), Q, ShockConfig(rho_z=0.3, sigma_z=0.1), cfg).y
        # same country shares one z path
        np.testing.assert_array_equal(country[:, 0], country[:, 2])
        np.testing.assert_array_equal(country[:, 0], country[:, 3])
        assert np.any(country[:, 0] != country[:, 1])

    def test_measured_period_stable_across_seeds(self):
        # structure comes from the dynamics, not from the seeded start
        from cyclesync.phase import measured_frequency
        periods = []
        for seed in range(20):
            cfg = SimulationConfig(steps=2500, burn_in=500, seed=seed)
            traj = simulate(single_net(), cycle_params(), Q, None, cfg)
            periods.append(2 * np.pi / measured_frequency(traj.y[:, 0]))
        assert (max(periods) - min(periods)) / np.mean(periods) < 0.10

    def test_blowup_detected(self):
        net = single_net()
        bad = AgentParams(alpha0=5000.0, alpha1=-0.04, alpha2=0.4, delta=0.1)
        cfg = SimulationConfig(steps=100, seed=0)
        with pytest.raises(NumericalBlowup) as err:
            simulate(net, bad, Q, None, cfg)
        assert err.value.step >= 0

    def test_retained_window(self):
        cfg = SimulationConfig(steps=600, retain=228, seed=0)
        assert cfg.burn_in == 372
        traj = simulate(single_net(), cycle_params(), Q, None, cfg)
        assert traj.y.shape == (228, 1)

    def test_rejects_inconsistent_window(self):
        with pytest.raises(ConfigError):
            SimulationConfig(steps=100, burn_in=80, retain=50)
        with pytest.raises(ConfigError):
            SimulationConfig(steps=100, burn_in=20, retain=50)

    @pytest.mark.parametrize("window, message", [
        (dict(burn_in=1000), "burn_in 1000 leaves no retained steps out of 400"),
        (dict(retain=500), "retain 500 exceeds steps 400"),
        (dict(burn_in=-1), "burn_in must be non-negative, got -1"),
        (dict(retain=0), "retain must be positive, got 0"),
        (dict(burn_in=300, retain=200), "burn_in 300 + retain 200 exceeds steps 400"),
        (dict(burn_in=100, retain=200), "burn_in 100 + retain 200 must equal steps 400"),
    ])
    def test_window_error_names_the_failed_condition(self, window, message):
        with pytest.raises(ConfigError) as err:
            SimulationConfig(steps=400, **window)
        assert str(err.value) == message

    @pytest.mark.parametrize("seed", [-1, -2**40, 1.5, 2.0, True, "3", None])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError) as err:
            SimulationConfig(steps=400, seed=seed)
        assert str(err.value) == f"seed must be a non-negative integer, got {seed!r}"

    def test_batch_seed_error_names_the_run(self):
        with pytest.raises(ConfigError) as err:
            simulate_batch(single_net(), [cycle_params()] * 3, cfg=SimulationConfig(steps=10),
                           seeds=[0, 4, -1])
        assert str(err.value) == "seed of run 2 must be a non-negative integer, got -1"

    def test_large_and_numpy_integer_seeds_are_accepted(self):
        cfg = SimulationConfig(steps=50, seed=2**40)
        runs = simulate_batch(single_net(), [cycle_params()] * 2, cfg=cfg,
                              seeds=[np.int64(2**40), 2**40])
        np.testing.assert_array_equal(runs[0].y, runs[1].y)
        np.testing.assert_array_equal(runs[0].y, simulate(single_net(), cycle_params(),
                                                          Q, None, cfg).y)


class TestAggregateSeries:
    def test_stride_one_identity(self):
        data = np.arange(12.0).reshape(6, 2)
        np.testing.assert_array_equal(aggregate_series(data, 1), data)

    def test_block_means(self):
        data = np.arange(228.0)
        out = aggregate_series(data, 4)
        assert out.shape == (57,)
        assert out[0] == pytest.approx(1.5)
        assert out[-1] == pytest.approx(225.5)

    def test_constant_series_unchanged(self):
        data = np.full((40, 3), 2.5)
        np.testing.assert_allclose(aggregate_series(data, 8), 2.5)

    def test_rejects_bad_stride(self):
        with pytest.raises(ConfigError):
            aggregate_series(np.arange(10.0), 3)


class TestExport:
    def test_trajectory_csv(self, tmp_path):
        cfg = SimulationConfig(steps=50, seed=0)
        traj = simulate(single_net(), cycle_params(), Q, None, cfg)
        csv_path = tmp_path / "traj.csv"
        traj.to_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "node,step,x,y"
        assert len(lines) == 1 + 50
        node, step, x, y = lines[1].split(",")
        assert float(y) == traj.y[0, 0]


# --- batched kernel against the per-run loop it replaced ---------------------

def oracle_simulate(net, params, q=Q, shocks=None, cfg=None):
    """The per-run step loop that preceded the batched kernel, kept as reference."""
    if cfg is None:
        cfg = SimulationConfig(steps=600)
    if shocks is None:
        shocks = ShockConfig()
    n = net.n
    if isinstance(params, AgentParams):
        params = [params] * n
    a0 = np.array([p.alpha0 for p in params])
    a1 = np.array([p.alpha1 for p in params])
    a2 = np.array([p.alpha2 for p in params])
    de = np.array([p.delta for p in params])
    w = net.weights
    steps = cfg.steps

    def stream(layer, index):
        return np.random.default_rng((cfg.seed, layer, index))

    u = np.zeros((steps, n))
    v = np.zeros((steps, n))
    z = np.zeros((steps, n))
    if shocks.sigma_u > 0:
        for i in range(n):
            u[:, i] = ar1_path(shocks.rho_u, shocks.sigma_u, steps, stream(0, i))
    if shocks.sigma_v > 0:
        sector_ids = sorted({s for s in net.sectors if s is not None})
        for j, sector in enumerate(sector_ids):
            path = ar1_path(shocks.rho_v, shocks.sigma_v, steps, stream(1, j))
            for i in range(n):
                if net.sectors[i] == sector:
                    v[:, i] = path
    if shocks.sigma_z > 0:
        country_ids = sorted({c for c in net.countries if c is not None})
        for j, country in enumerate(country_ids):
            path = ar1_path(shocks.rho_z, shocks.sigma_z, steps, stream(2, j))
            for i in range(n):
                if net.countries[i] == country:
                    z[:, i] = path
    shock_sum = u + v + z

    x = np.full(n, 1.0) / de
    y = np.ones(n)
    if cfg.initial_mode == "perturbed":
        rng = stream(3, 0)
        x = x * (1.0 + rng.uniform(-0.1, 0.1, n))
        y = y * (1.0 + rng.uniform(-0.1, 0.1, n))

    keep_from = cfg.steps - cfg.retain
    xs = np.empty((cfg.retain, n))
    ys = np.empty((cfg.retain, n))
    one_minus_de = 1.0 - de
    bound = 1e3
    for t in range(steps):
        ybar = w @ y
        x, y = (one_minus_de * x + y,
                a0 + a1 * x + a2 * y + eval_f(q, ybar) + shock_sum[t])
        peak = np.max(np.abs(y))
        if not np.isfinite(peak) or peak > bound:
            raise NumericalBlowup(step=t, value=float(peak), bound=bound)
        if t >= keep_from:
            xs[t - keep_from] = x
            ys[t - keep_from] = y
    return SimpleNamespace(x=xs, y=ys, labels=list(net.labels))


def oracle_batch(nets, params_per_run, q=Q, shocks=None, cfg=None, seeds=None):
    """Serial loop of the oracle with the signature of ``simulate_batch``.

    ``nets`` and ``shocks`` are each one value shared by every run or one
    per run.
    """
    params_per_run = list(params_per_run)
    if isinstance(nets, InteractionNetwork):
        nets = [nets] * len(params_per_run)
    if shocks is None or isinstance(shocks, ShockConfig):
        shocks = [shocks] * len(params_per_run)
    if seeds is None:
        seeds = [cfg.seed] * len(params_per_run)
    return [oracle_simulate(net, p, q, shock, dataclasses.replace(cfg, seed=seed))
            for net, p, shock, seed in zip(nets, params_per_run, shocks, seeds)]


TOL = 1e-12

ROUTED = InteractionNetwork(
    weights=uniform_coupling(build_topology("complete", 5), 0.3).weights,
    sectors=["S1", "S1", "S2", "S2", None],
    countries=["X", "Y", "X", "Y", "X"],
)
ALL_LAYERS = ShockConfig(rho_u=0.3, sigma_u=0.03, rho_v=0.5, sigma_v=0.02,
                         rho_z=0.4, sigma_z=0.02)
SECTOR_ONLY = ShockConfig(rho_v=0.5, sigma_v=0.03)


def hetero_params(n, shift=0.0):
    return [cycle_params(a1 + shift) for a1 in np.linspace(-0.1, -0.02, n)]


class TestBatchParity:
    @pytest.mark.parametrize("per_run_weights", [False, True])
    @pytest.mark.parametrize("initial_mode", ["perturbed", "fixed_point"])
    # the "-True" ids name the shocks-during-burn-in setting these cases ran with
    @pytest.mark.parametrize("shocks", [ALL_LAYERS, SECTOR_ONLY],
                             ids=["shocks0-True", "shocks1-True"])
    def test_batch_matches_serial_oracle(self, per_run_weights, initial_mode, shocks):
        cfg = SimulationConfig(steps=400, burn_in=150, seed=0, initial_mode=initial_mode)
        runs = [hetero_params(5), cycle_params(), hetero_params(5, shift=0.005)]
        seeds = [3, 4, 5]
        if per_run_weights:
            nets = [dataclasses.replace(ROUTED, weights=uniform_coupling(
                        build_topology("complete", 5), eps).weights)
                    for eps in (0.0, 0.2, 0.4)]
        else:
            nets = ROUTED
        batch = simulate_batch(nets, runs, Q, shocks, cfg, seeds=seeds)
        serial = oracle_batch(nets, runs, Q, shocks, cfg, seeds=seeds)
        assert len(batch) == 3
        for got, want, seed in zip(batch, serial, seeds):
            for name in ("x", "y"):
                np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                           rtol=0, atol=TOL, err_msg=name)

    def test_single_run_simulate_is_exact(self):
        cfg = SimulationConfig(steps=500, retain=200, seed=21)
        got = simulate(ROUTED, hetero_params(5), Q, ALL_LAYERS, cfg)
        want = oracle_simulate(ROUTED, hetero_params(5), Q, ALL_LAYERS, cfg)
        for name in ("x", "y"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("initial_mode", ["perturbed", "fixed_point"])
    def test_two_word_seeds_match_serial_oracle(self, initial_mode):
        # seeds of 2**32 and above key their streams with two uint32 words;
        # 2**32 + 3 shares its low word with the seed 3 of the last run
        cfg = SimulationConfig(steps=300, retain=120, seed=0, initial_mode=initial_mode)
        runs = [hetero_params(5), cycle_params(), hetero_params(5, shift=0.005), cycle_params()]
        seeds = [2**32, 2**32 + 3, 2**64 - 1, 3]
        batch = simulate_batch(ROUTED, runs, Q, ALL_LAYERS, cfg, seeds=seeds)
        serial = oracle_batch(ROUTED, runs, Q, ALL_LAYERS, cfg, seeds=seeds)
        for got, want in zip(batch, serial):
            for name in ("x", "y"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                              err_msg=name)
        assert not np.array_equal(batch[1].y, batch[3].y)

    def test_mixed_shocks_match_separate_simulate_calls(self):
        # silent runs sit between active ones with different layers switched on
        shocks = [ShockConfig(), ALL_LAYERS, SECTOR_ONLY, ShockConfig(), ALL_LAYERS]
        runs = [hetero_params(5), cycle_params(), hetero_params(5, shift=0.005),
                cycle_params(-0.03), hetero_params(5)]
        seeds = [7, 8, 9, 10, 11]
        cfg = SimulationConfig(steps=300, retain=120, seed=0)
        batch = simulate_batch(ROUTED, runs, Q, shocks, cfg, seeds=seeds)
        for got, params, shock, seed in zip(batch, runs, shocks, seeds):
            want = simulate(ROUTED, params, Q, shock, dataclasses.replace(cfg, seed=seed))
            for name in ("x", "y"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                              err_msg=name)

    @pytest.mark.parametrize("per_run_weights", [False, True])
    @pytest.mark.parametrize("initial_mode", ["perturbed", "fixed_point"])
    def test_shared_seeds_match_separate_simulate_calls(self, per_run_weights, initial_mode):
        # the seed-3 runs share their initial stream and every stream of the
        # layers they have in common; each run scales the shared draws by its
        # own sigma, and the seed-4 runs share theirs the same way
        shocks = [ALL_LAYERS, dataclasses.replace(ALL_LAYERS, sigma_u=0.07), SECTOR_ONLY,
                  SECTOR_ONLY, ShockConfig(rho_u=0.2, sigma_u=0.05), ShockConfig(),
                  dataclasses.replace(SECTOR_ONLY, sigma_v=0.01)]
        seeds = [3, 3, 4, 3, 3, 3, 4]
        runs = [hetero_params(5), cycle_params(), hetero_params(5, shift=0.005),
                cycle_params(-0.03), hetero_params(5), cycle_params(), cycle_params(-0.05)]
        nets = ([dataclasses.replace(ROUTED, weights=uniform_coupling(
                    build_topology("complete", 5), eps).weights)
                 for eps in np.linspace(0.0, 0.4, len(runs))]
                if per_run_weights else [ROUTED] * len(runs))
        cfg = SimulationConfig(steps=300, retain=120, seed=0, initial_mode=initial_mode)
        batch = simulate_batch(nets, runs, Q, shocks, cfg, seeds=seeds)
        for got, net, params, shock, seed in zip(batch, nets, runs, shocks, seeds):
            want = simulate(net, params, Q, shock, dataclasses.replace(cfg, seed=seed))
            for name in ("x", "y"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                              err_msg=name)

    def test_rejects_wrong_number_of_shock_configs(self):
        cfg = SimulationConfig(steps=10)
        with pytest.raises(ConfigError, match="1 shocks"):
            simulate_batch(single_net(), [cycle_params()] * 2, Q, [ShockConfig()], cfg)

    def test_blowup_names_first_failing_run(self):
        bad = AgentParams(alpha0=5000.0, alpha1=-0.04, alpha2=0.4, delta=0.1)
        cfg = SimulationConfig(steps=100, seed=0)
        runs = [cycle_params(), cycle_params(), bad, bad]
        with pytest.raises(NumericalBlowup, match="in run 2 at step 0") as err:
            simulate_batch(single_net(), runs, Q, None, cfg)
        assert err.value.run == 2
        assert err.value.step == 0

    def test_rejects_mismatched_batch(self):
        cfg = SimulationConfig(steps=10)
        with pytest.raises(ConfigError):
            simulate_batch([single_net()] * 2, [cycle_params()] * 3, Q, None, cfg)
        with pytest.raises(ConfigError):
            simulate_batch(single_net(), [cycle_params()] * 2, Q, None, cfg,
                           seeds=[1])


@pytest.mark.parametrize("key", [(0,), (3, 0, 0), (3, 1, 2), (11, 2, 16), (2 ** 40, 0, 7)])
def test_normal_draws_are_scaled_standard_normals(key):
    """``Generator.normal(0.0, sigma, n)`` equals ``0.0 + sigma * standard_normal(n)`` bit for bit.

    A batch draws each shared shock stream once as standard normals and
    scales it by each run's sigma.  That every run's outputs stay byte-
    identical, alone or in any batch, rests on this identity: numpy's normal
    sampler computes loc + scale * z with no fused multiply-add.
    """
    for sigma in (1e-300, 1e-8, 0.03, 0.2, 1.0, 3.0):
        want = np.random.default_rng(key).normal(0.0, sigma, 1000)
        got = 0.0 + sigma * np.random.default_rng(key).standard_normal(1000)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64),
                                      err_msg=f"sigma {sigma}")


def oracle_iterate(w, a0, a1, a2, de, x, y, q, steps, retain, bound, shock_sum=None):
    """The allocating loop the in-place kernel replaced, stepping with
    ``single_agent_step`` and checking for blow-up after every step."""
    coeffs = SimpleNamespace(alpha0=a0, alpha1=a1, alpha2=a2, delta=de)
    keep_from = steps - retain
    ys = np.empty((y.shape[0], retain, y.shape[1]))
    x_start = None
    for t in range(steps):
        ybar = np.matmul(w, y[:, :, None])[:, :, 0]
        x, y = single_agent_step(x, y, ybar, coeffs, q)
        if shock_sum is not None:
            y += shock_sum[:, t]
        bad = ~(np.isfinite(y) & (np.abs(y) <= bound)).all(axis=1)
        if bad.any():
            run = int(np.argmax(bad))
            raise NumericalBlowup(step=t, value=float(np.max(np.abs(y[run]))), bound=bound,
                                  run=run)
        if t == keep_from:
            x_start = x
        if t >= keep_from:
            ys[:, t - keep_from] = y
    return x_start, ys


def kernel_inputs(b, n, per_run_weights):
    """Coupling, per-node coefficients and perturbed starts of ``b`` runs on ``n`` nodes."""
    eps = np.linspace(0.1, 0.5, b)
    nets = [uniform_coupling(build_topology("complete", n), e) if n > 1 else single_net()
            for e in eps]
    w = np.stack([net.weights for net in nets]) if per_run_weights else nets[0].weights
    coeffs = [np.stack(c) for c in zip(*(_per_node_params(hetero_params(n, shift), n)
                                         for shift in np.linspace(-0.005, 0.005, b)))]
    x, y = _initial_states(coeffs[3], SimulationConfig(steps=1), range(b))
    return (w, *coeffs, x, y)


class TestStepKernel:
    """The in-place kernel against the per-step loop, bit for bit."""

    @pytest.mark.parametrize("b, n, per_run_weights", [(1, 1, False), (3, 5, True),
                                                       (4, 6, False)])
    @pytest.mark.parametrize("steps, retain", [(1, 1), (63, 63), (64, 1), (129, 65),
                                               (200, 137), (300, 236)])
    def test_matches_per_step_loop(self, b, n, per_run_weights, steps, retain):
        args = kernel_inputs(b, n, per_run_weights)
        starts = [a.copy() for a in args[-2:]]
        shocks = np.random.default_rng(1).normal(0.0, 0.02, (b, steps, n))
        for shock_sum in (None, shocks):
            got = _iterate(*args, Q, steps, retain, 1e3, shock_sum)
            want = oracle_iterate(*args, Q, steps, retain, 1e3, shock_sum)
            for name, g, w in zip(("x_start", "ys"), got, want):
                np.testing.assert_array_equal(g, w, strict=True, err_msg=name)
        for start, arg in zip(starts, args[-2:]):
            np.testing.assert_array_equal(arg, start)

    @pytest.mark.parametrize("step, retain", [(0, 10), (63, 10), (64, 10), (0, 200),
                                              (63, 200), (64, 200), (199, 10), (199, 200)],
                             ids=lambda v: str(v))
    @pytest.mark.parametrize("spikes", [((2, 0), (1, 1)), ((2, 0), (0, 0))],
                             ids=["later-run-first", "same-step"])
    @pytest.mark.parametrize("size", [5e3, np.inf])
    def test_blowup_matches_per_step_loop(self, step, retain, spikes, size):
        # each (run, delay) spike lands at step + delay: the first step wins,
        # then the first run at that step; later laps blow up to inf and NaN
        assert _CHECK_EVERY == 64
        steps = 200
        args = kernel_inputs(3, 4, True)
        shocks = np.zeros((3, steps, 4))
        for run, delay in spikes:
            if step + delay < steps:
                shocks[run, step + delay, 1 + run] = size
        with pytest.raises(NumericalBlowup) as want:
            oracle_iterate(*args, Q, steps, retain, 1e3, shocks)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBlowup) as got:
                _iterate(*args, Q, steps, retain, 1e3, shocks)
        assert got.value.step == want.value.step == step
        assert got.value.run == want.value.run
        assert got.value.value == want.value.value
        assert str(got.value) == str(want.value)


class TestBatchedCallersParity:
    """Each batched caller against a serial loop of the oracle."""

    def test_sync_centrality(self, monkeypatch):
        net = uniform_coupling(build_topology("star", 4), 0.5)
        cfg = SimulationConfig(steps=1500, burn_in=400, seed=1)
        batched = phase.sync_centrality(net, cfg, n_draws=3, mode="L")
        monkeypatch.setattr(phase, "simulate_batch", oracle_batch)
        serial = phase.sync_centrality(net, cfg, n_draws=3, mode="L")
        for name in ("scores", "raw_differences", "stderr", "mean_frequencies"):
            np.testing.assert_allclose(getattr(batched, name), getattr(serial, name),
                                       rtol=0, atol=TOL, err_msg=name)
        assert batched.benchmark_frequency == pytest.approx(
            serial.benchmark_frequency, rel=0, abs=TOL)

    def test_epsilon_sweep(self, monkeypatch):
        adj = build_topology("complete", 4)
        params = [AgentParams.with_steady_state(a1, 0.4, 0.1, Q)
                  for a1 in np.linspace(-0.1, -0.02, 4)]
        kwargs = dict(eps_grid=[0.0, 0.2, 0.4],
                      cfg=SimulationConfig(steps=1500, burn_in=300, seed=2),
                      shocks=ShockConfig(rho_u=0.2, sigma_u=0.01))
        batched = phase.epsilon_sweep(adj, params, **kwargs)
        monkeypatch.setattr(phase, "simulate_batch", oracle_batch)
        serial = phase.epsilon_sweep(adj, params, **kwargs)
        for name in ("omegas", "coherence", "mean_correlation", "spread"):
            np.testing.assert_allclose(getattr(batched, name), getattr(serial, name),
                                       rtol=0, atol=TOL, err_msg=name)

    def test_scenario_run(self, monkeypatch, demo_io_network):
        # 2 x 3 x 2 cells x 3 seeds = 36 runs: more than one block, and the
        # idiosyncratic cells at sigma_u = 0 are silent runs among active ones
        spec = empirics.ScenarioSpec(dynamics=("cycle", "focus"),
                                     shock_types=("idiosyncratic", "country", "sector"),
                                     sigma_u_grid=(0.0, 0.1), n_seeds=3)
        n_runs = 2 * 3 * 2 * spec.n_seeds
        assert n_runs > empirics._RUNS_PER_BATCH
        blocks = []

        def recording_batch(*args, **kwargs):
            blocks.append(len(args[1]))
            return simulate_batch(*args, **kwargs)

        monkeypatch.setattr(empirics, "simulate_batch", recording_batch)
        batched = empirics.scenario_run(demo_io_network, spec)
        assert sum(blocks) == n_runs and len(blocks) > 1
        monkeypatch.setattr(empirics, "simulate_batch", oracle_batch)
        serial = empirics.scenario_run(demo_io_network, spec)
        assert [(r.dynamics, r.shock_type, r.sigma_u, r.group) for r in batched] == \
            [(r.dynamics, r.shock_type, r.sigma_u, r.group) for r in serial]
        for got, want in zip(batched, serial):
            assert got.mean_corr == pytest.approx(want.mean_corr, rel=0, abs=TOL)
            assert got.sd_corr == pytest.approx(want.sd_corr, rel=0, abs=TOL)

    def test_scenario_rows_summarize_their_own_cell(self, demo_io_network):
        # 12 cells x 3 seeds, seed-major: the 32-run block boundary falls in
        # seed 2, so the last 4 cells take their third seed from another block
        spec = empirics.ScenarioSpec(dynamics=("cycle", "focus"),
                                     shock_types=("idiosyncratic", "country", "sector"),
                                     sigma_u_grid=(0.0, 0.1), n_seeds=3)
        rows = empirics.scenario_run(demo_io_network, spec)
        cfg = SimulationConfig(steps=spec.steps, retain=spec.retain)
        for k in range(0, len(rows), 2):
            cell = rows[k]
            params = AgentParams.with_steady_state(*empirics.DYNAMICS_PRESETS[cell.dynamics], Q)
            shocks = ShockConfig(sigma_u=cell.sigma_u, **empirics.SHOCK_PRESETS[cell.shock_type])
            # one batch per cell, all its seeds and one shared shock config
            means = empirics._grouped_means(demo_io_network, simulate_batch(
                demo_io_network, [params] * spec.n_seeds, Q, shocks, cfg,
                seeds=range(spec.n_seeds)), spec)
            for row in rows[k:k + 2]:
                vals = [m[row.group] for m in means]
                assert row.mean_corr == np.mean(vals)
                assert row.sd_corr == np.std(vals, ddof=1)
