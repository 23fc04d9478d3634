import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cyclesync.dynamics import DEFAULT_QUARTIC, AgentParams, eval_f_prime
from cyclesync.errors import (
    ConfigError,
    ConsistencyBreach,
    DegenerateTangent,
    IllConditioned,
    NotOscillating,
)
from cyclesync.master_stability import (
    _BLOCK,
    _CHUNK,
    LyapunovEstimate,
    SynchronizedOrbit,
    from_eigenbasis,
    master_stability_function,
    mode_lyapunov,
    propagate_deviations,
    shock_response_compare,
    synchronized_orbit,
    time_resolved_volume_rate,
    to_eigenbasis,
)
from cyclesync.networks import (
    SpectralDecomposition,
    build_topology,
    generalized_laplacian,
    uniform_coupling,
)

Q = DEFAULT_QUARTIC


@pytest.fixture(scope="module")
def cycle_orbit():
    params = AgentParams.with_steady_state(-0.04, 0.4, 0.1, Q)
    return synchronized_orbit(params, Q, steps=30000, burn_in=2000)


@pytest.fixture(scope="module")
def two_clique_spec(two_clique_adj):
    return generalized_laplacian(two_clique_adj, eps=0.3)


class TestSynchronizedOrbit:
    def test_cycle_period_about_36(self, cycle_orbit):
        assert cycle_orbit.period == pytest.approx(36, abs=2)

    def test_node_scenario_not_oscillating(self):
        params = AgentParams.with_steady_state(-0.11, 0.4, 0.5, Q)
        with pytest.raises(NotOscillating):
            synchronized_orbit(params, Q, steps=4000)

    def test_orbit_mean_near_steady_state(self, cycle_orbit):
        period = int(round(cycle_orbit.period))
        assert np.mean(cycle_orbit.y[:period]) == pytest.approx(1.0, abs=0.15)

    def test_fprime_cache_consistent(self, cycle_orbit):
        np.testing.assert_allclose(cycle_orbit.fprime,
                                   eval_f_prime(Q, cycle_orbit.y), atol=1e-14)


def oracle_mode_lyapunov(orbit, coupling, burn_in=1000, window=None):
    """Per-step Gram-Schmidt QR propagation of a 2-frame (Benettin et al.).

    The scalar reference the blocked tangent pass replaced.
    """
    if coupling < 0:
        raise ConfigError(f"effective coupling must be non-negative, got {coupling}")
    p = orbit.params
    total = orbit.steps
    if window is None:
        window = total - burn_in
    if burn_in + window > total:
        raise ConfigError(
            f"orbit too short: {total} < burn_in {burn_in} + window {window}"
        )
    one_minus_de = 1.0 - p.delta
    a1, a2 = p.alpha1, p.alpha2
    fp = orbit.fprime
    k = coupling

    # tangent frame columns (v1, v2); scalar math keeps the loop light
    v1x, v1y = 1.0, 0.0
    v2x, v2y = 0.0, 1.0
    s1 = 0.0
    s2 = 0.0
    det = (1 - p.delta) * (p.alpha2 + (1 - k) * orbit.fprime) - p.alpha1
    vol = np.log(np.abs(det))[burn_in:burn_in + window]
    for t in range(burn_in + window):
        jyy = a2 + (1.0 - k) * fp[t]
        w1x = one_minus_de * v1x + v1y
        w1y = a1 * v1x + jyy * v1y
        w2x = one_minus_de * v2x + v2y
        w2y = a1 * v2x + jyy * v2y
        r11 = math.hypot(w1x, w1y)
        if r11 < 1e-300:
            raise DegenerateTangent(f"tangent norm underflowed at step {t}")
        q1x, q1y = w1x / r11, w1y / r11
        r12 = q1x * w2x + q1y * w2y
        u2x, u2y = w2x - r12 * q1x, w2y - r12 * q1y
        r22 = math.hypot(u2x, u2y)
        if r22 < 1e-300:
            raise DegenerateTangent(f"tangent frame collapsed at step {t}")
        v1x, v1y = q1x, q1y
        v2x, v2y = u2x / r22, u2y / r22
        if t >= burn_in:
            s1 += math.log(r11)
            s2 += math.log(r22)
    return LyapunovEstimate(mu1=s1 / window, mu2=s2 / window,
                            volume_rate=vol, coupling=coupling)


PARITY_GRID = (0.0, 0.35, 1.0, 1.7, 2.0)


class TestBlockedParity:
    """The blocked pass against the per-step QR oracle."""

    @pytest.mark.parametrize("burn_in", [0, 1000, 1001])
    @pytest.mark.parametrize("window", [_BLOCK - 12, 1007, 2 * _CHUNK + 500],
                             ids=["sub-block", "ragged", "multi-chunk"])
    def test_matches_oracle(self, cycle_orbit, burn_in, window):
        ref = [oracle_mode_lyapunov(cycle_orbit, k, burn_in, window) for k in PARITY_GRID]
        curve = master_stability_function(cycle_orbit, PARITY_GRID,
                                          burn_in=burn_in, window=window)
        np.testing.assert_allclose(curve.mu1, [r.mu1 for r in ref], rtol=0, atol=1e-10)
        np.testing.assert_allclose(curve.mu2, [r.mu2 for r in ref], rtol=0, atol=1e-10)
        est = mode_lyapunov(cycle_orbit, PARITY_GRID[1], burn_in=burn_in, window=window)
        assert est.mu1 == pytest.approx(ref[1].mu1, rel=0, abs=1e-10)
        assert est.mu2 == pytest.approx(ref[1].mu2, rel=0, abs=1e-10)
        np.testing.assert_array_equal(est.volume_rate, ref[1].volume_rate)

    def test_default_window_is_rest_of_orbit(self, cycle_orbit):
        est = mode_lyapunov(cycle_orbit, 0.6, burn_in=25000)
        ref = oracle_mode_lyapunov(cycle_orbit, 0.6, burn_in=25000)
        assert est.volume_rate.size == cycle_orbit.steps - 25000
        assert est.mu1 == pytest.approx(ref.mu1, rel=0, abs=1e-10)

    @pytest.mark.parametrize("k", PARITY_GRID)
    def test_exponents_sum_to_volume_rate(self, cycle_orbit, k):
        est = mode_lyapunov(cycle_orbit, k, burn_in=1001, window=9000)
        assert est.mu1 + est.mu2 == pytest.approx(est.volume_rate.mean(), rel=0, abs=1e-12)


def _nilpotent_orbit(k, steps=2000):
    # delta = 1, alpha1 = 0 and F' = -alpha2 / (1 - K) make M_t = [[0, 1], [0, 0]]
    params = SimpleNamespace(alpha0=0.0, alpha1=0.0, alpha2=0.4, delta=1.0)
    y = np.ones(steps)
    return SynchronizedOrbit(x=y, y=y, fprime=np.full(steps, -0.4 / (1 - k)),
                             params=params, q=Q, period=36.0)


class TestDegenerateTangent:
    def test_nilpotent_jacobian(self):
        orbit = _nilpotent_orbit(0.5)
        with pytest.raises(DegenerateTangent, match=r"K = 0\.5 in steps 0\.\.31"):
            mode_lyapunov(orbit, 0.5)
        with pytest.raises(DegenerateTangent, match=r"K = 0\.5 in steps 0\.\.31"):
            master_stability_function(orbit, [0.5])
        with pytest.raises(DegenerateTangent), np.errstate(divide="ignore"):
            oracle_mode_lyapunov(orbit, 0.5)

    def test_nan_slope_raises(self, cycle_orbit):
        fprime = cycle_orbit.fprime.copy()
        fprime[1500] = np.nan
        orbit = dataclasses.replace(cycle_orbit, fprime=fprime)
        # the window starts at step 1000: step 1500 lies in its block 15
        with pytest.raises(DegenerateTangent, match=r"K = 0\.3 in steps 1480\.\.1511"):
            mode_lyapunov(orbit, 0.3, burn_in=1000, window=2000)
        with pytest.raises(DegenerateTangent, match=r"steps 1480\.\.1511"):
            master_stability_function(orbit, [0.0, 0.3], burn_in=1000, window=2000)


class TestAveragingWindow:
    @pytest.mark.parametrize("burn_in, window, key", [
        (1000, 0, "window"), (1000, -3, "window"), (-5, 2000, "burn_in"),
        (25000, 6000, "orbit too short"),
    ])
    def test_rejected(self, cycle_orbit, burn_in, window, key):
        with pytest.raises(ConfigError, match=key):
            mode_lyapunov(cycle_orbit, 0.3, burn_in=burn_in, window=window)
        with pytest.raises(ConfigError, match=key):
            master_stability_function(cycle_orbit, [0.0, 0.3], burn_in=burn_in,
                                      window=window)

    def test_rest_of_orbit_empty(self, cycle_orbit):
        with pytest.raises(ConfigError, match="window"):
            mode_lyapunov(cycle_orbit, 0.3, burn_in=cycle_orbit.steps)

    def test_negative_coupling_in_grid(self, cycle_orbit):
        with pytest.raises(ConfigError, match="non-negative"):
            master_stability_function(cycle_orbit, [0.0, -0.2], window=2000)


class TestModeLyapunov:
    def test_zero_coupling_neutral_direction(self, cycle_orbit):
        est = mode_lyapunov(cycle_orbit, 0.0, burn_in=1000, window=25000)
        assert abs(est.mu1) < 1e-3

    def test_two_agent_transverse_mode_decays(self, cycle_orbit):
        # two coupled agents at eps = 0.3: transverse eigenvalue 0.6
        est = mode_lyapunov(cycle_orbit, 0.6, burn_in=1000, window=20000)
        assert est.mu1 < 0

    def test_exponent_ordering_and_volume_identity(self, cycle_orbit):
        for k in (0.0, 0.3, 0.9, 1.7):
            est = mode_lyapunov(cycle_orbit, k, burn_in=1000, window=15000)
            assert est.mu1 >= est.mu2
            assert est.mu1 + est.mu2 == pytest.approx(est.volume_rate.mean(),
                                                      abs=1e-6)

    def test_rejects_negative_coupling(self, cycle_orbit):
        with pytest.raises(ConfigError):
            mode_lyapunov(cycle_orbit, -0.1)


@pytest.fixture(scope="module")
def curve(cycle_orbit):
    grid = np.linspace(0, 2, 11)
    return master_stability_function(cycle_orbit, grid,
                                     burn_in=1000, window=15000)


class TestMasterStabilityFunction:

    def test_all_modes_decay_for_positive_coupling(self, curve):
        assert np.all(curve.mu1[1:] < 0)
        assert np.all(curve.mu2[1:] < 0)

    def test_largest_exponent_at_zero(self, curve):
        assert curve.mu1[0] == pytest.approx(0.0, abs=1e-3)
        assert curve.mu1[0] == curve.mu1.max()

    def test_small_modes_decay_slowest(self, curve):
        # effective couplings 0.09 vs 0.77 at unit coupling strength
        assert curve.interpolate(0.09) > curve.interpolate(0.77)

    def test_csv_export(self, curve, tmp_path):
        path = tmp_path / "msf.csv"
        curve.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "K,mu1,mu2"
        assert len(lines) == 1 + curve.k_grid.size


class TestVolumeRate:
    def test_zero_coupling_equals_jacobian_determinant(self, cycle_orbit):
        p = cycle_orbit.params
        series = time_resolved_volume_rate(cycle_orbit, 0.0)
        det = (1 - p.delta) * (p.alpha2 + cycle_orbit.fprime) - p.alpha1
        np.testing.assert_allclose(series, np.log(np.abs(det)), atol=1e-12)

    def test_tracks_interaction_slope(self, cycle_orbit):
        period = int(round(cycle_orbit.period))
        series = time_resolved_volume_rate(cycle_orbit, 0.6)[:period]
        slope = cycle_orbit.fprime[:period]
        corr = np.corrcoef(series, slope)[0, 1]
        assert corr > 0.9

    def test_minimum_near_output_peak(self, cycle_orbit):
        period = int(round(cycle_orbit.period))
        series = time_resolved_volume_rate(cycle_orbit, 0.6)[:period]
        t_min = int(np.argmin(series))
        t_peak = int(np.argmax(cycle_orbit.y[:period]))
        gap = min(abs(t_min - t_peak), period - abs(t_min - t_peak))
        assert gap <= 3


class TestEigenbasisTransform:
    def test_round_trip(self, two_clique_spec, rng):
        xi = rng.normal(0, 0.05, 12)
        back = from_eigenbasis(to_eigenbasis(xi, two_clique_spec), two_clique_spec)
        np.testing.assert_allclose(back, xi, atol=1e-10)

    def test_round_trip_on_series(self, two_clique_spec, rng):
        xi = rng.normal(0, 0.05, (20, 12))
        back = from_eigenbasis(to_eigenbasis(xi, two_clique_spec), two_clique_spec)
        np.testing.assert_allclose(back, xi, atol=1e-10)

    def test_reference_mode_projection(self, two_clique_spec):
        # y-shock (0.05, 0.03, 0.04, -0.03, -0.06, 0.00): slow-mode content
        # dominates because the cliques are pushed in opposite directions
        xi = np.zeros(12)
        xi[1::2] = [0.05, 0.03, 0.04, -0.03, -0.06, 0.00]
        zeta_y = to_eigenbasis(xi, two_clique_spec)[1::2]
        assert abs(zeta_y[0]) == pytest.approx(0.01, abs=0.005)
        assert abs(zeta_y[1]) == pytest.approx(0.09, abs=0.005)
        assert abs(zeta_y[2]) == pytest.approx(0.00, abs=0.005)

    def test_near_singular_modes_rejected(self):
        # columns (1, 1) and (1, 1 + 1e-10): condition number about 4e10
        modes = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
        spec = SpectralDecomposition(matrix=np.zeros((2, 2)), eigenvalues=np.zeros(2),
                                     modes=modes, modes_inv=np.linalg.inv(modes),
                                     max_imag=0.0)
        for transform in (to_eigenbasis, from_eigenbasis):
            with pytest.raises(IllConditioned, match="condition number"):
                transform(np.zeros(4), spec)

    def test_equal_shocks_have_no_transverse_content(self):
        pair = generalized_laplacian(build_topology("complete", 2), eps=0.3)
        xi = np.zeros(4)
        xi[1::2] = [0.07, 0.07]
        zeta_y = to_eigenbasis(xi, pair)[1::2]
        assert abs(zeta_y[1]) < 1e-12
        assert abs(zeta_y[0]) == pytest.approx(0.07 * np.sqrt(2), abs=1e-12)


class TestPropagateDeviations:
    def test_zero_deviation_stays_zero(self, cycle_orbit, two_clique_spec):
        xi, zeta = propagate_deviations(cycle_orbit, two_clique_spec,
                                        np.zeros(12), steps=100)
        assert np.all(xi == 0)
        assert np.all(zeta == 0)

    def test_transverse_mode_decays_parallel_persists(self, cycle_orbit):
        pair = generalized_laplacian(build_topology("complete", 2), eps=0.3)
        xi0 = np.zeros(4)
        xi0[1] = 0.1                     # shock on y of agent 1 only
        xi, zeta = propagate_deviations(cycle_orbit, pair, xi0, steps=400,
                                        start=0)
        z_y = zeta[:, 1::2]
        initial = np.abs(z_y[1])
        late = np.abs(z_y[-80:]).max(axis=0)
        assert late[1] < 0.01 * initial[1]          # transverse vanishes
        assert late[0] > 0.1 * initial[0]           # parallel persists

    def test_opposite_shocks_leave_parallel_mode_empty(self, cycle_orbit):
        pair = generalized_laplacian(build_topology("complete", 2), eps=0.3)
        xi0 = np.zeros(4)
        xi0[1], xi0[3] = 0.05, -0.05
        xi, zeta = propagate_deviations(cycle_orbit, pair, xi0, steps=300)
        assert np.max(np.abs(zeta[:, 0:2])) < 1e-12

    def test_pure_parallel_mode_keeps_nodes_identical(self, cycle_orbit,
                                                      two_clique_spec):
        zeta0 = np.zeros((6, 2))
        zeta0[0] = (0.0, 0.04)
        xi0 = from_eigenbasis(zeta0.reshape(-1), two_clique_spec)
        xi, _ = propagate_deviations(cycle_orbit, two_clique_spec, xi0, steps=200)
        y_dev = xi[:, 1::2]
        assert np.max(np.abs(y_dev - y_dev[:, :1])) < 1e-10

    def test_parallel_mode_matches_uncoupled_tangent(self, cycle_orbit,
                                                     two_clique_spec):
        # the zero-eigenvalue mode evolves exactly like the K = 0 tangent
        zeta0 = np.zeros((6, 2))
        zeta0[0] = (0.0, 0.04)
        xi0 = from_eigenbasis(zeta0.reshape(-1), two_clique_spec)
        _, zeta = propagate_deviations(cycle_orbit, two_clique_spec, xi0,
                                       steps=150)
        p = cycle_orbit.params
        vx, vy = 0.0, 0.04
        for t in range(150):
            fp = cycle_orbit.fprime[t]
            vx, vy = ((1 - p.delta) * vx + vy,
                      p.alpha1 * vx + (p.alpha2 + fp) * vy)
            assert zeta[t + 1, 0] == pytest.approx(vx, abs=1e-10)
            assert zeta[t + 1, 1] == pytest.approx(vy, abs=1e-10)

    def test_eigenvalues_off_the_matrix_breach(self, cycle_orbit, two_clique_spec):
        spec = dataclasses.replace(two_clique_spec,
                                   eigenvalues=two_clique_spec.eigenvalues + 0.01)
        xi0 = np.zeros(12)
        xi0[1::2] = [0.05, 0.03, 0.04, -0.03, -0.06, 0.00]
        with pytest.raises(ConsistencyBreach, match="disagree"):
            propagate_deviations(cycle_orbit, spec, xi0, steps=50)

    @pytest.mark.parametrize("gap, max_imag, breach", [
        (1e-7, 0.0, False), (1e-5, 0.0, True), (1e-5, 1e-6, False), (1e-3, 1e-6, True),
    ])
    def test_tolerance_follows_spectrum(self, cycle_orbit, gap, max_imag, breach):
        # one node, B = 0, eigenvalue d instead of 0: after one step from
        # xi0 = (0, y0) the eigenbasis y differs by F' d y0, a relative gap
        # of |F'| d / max(1, |alpha2 + F'|); the tolerance is 1e-6, or 1e-4
        # for a complex spectrum
        start = int(np.argmax(np.abs(cycle_orbit.fprime[:100])))
        fp = cycle_orbit.fprime[start]
        d = gap * max(1.0, abs(cycle_orbit.params.alpha2 + fp)) / abs(fp)
        spec = SpectralDecomposition(matrix=np.zeros((1, 1)), eigenvalues=np.array([d]),
                                     modes=np.eye(1), modes_inv=np.eye(1), max_imag=max_imag)
        xi0 = np.array([0.0, 0.01])
        if breach:
            with pytest.raises(ConsistencyBreach, match="at step 1"):
                propagate_deviations(cycle_orbit, spec, xi0, steps=1, start=start)
        else:
            propagate_deviations(cycle_orbit, spec, xi0, steps=1, start=start)

    def test_clique_modes_decay_faster_than_bridge_mode(self, cycle_orbit,
                                                        two_clique_spec):
        xi0 = np.zeros(12)
        xi0[1::2] = [0.05, 0.03, 0.04, -0.03, -0.06, 0.00]
        _, zeta = propagate_deviations(cycle_orbit, two_clique_spec, xi0,
                                       steps=600)
        z_y = np.abs(zeta[:, 1::2])

        def decay_time(mode):
            target = 0.1 * z_y[0, mode]
            below = np.flatnonzero(z_y[:, mode] <= target)
            below = below[below > 0]
            return int(below[0]) if below.size else zeta.shape[0]

        slow = decay_time(1)
        for mode in range(2, 6):
            assert decay_time(mode) < slow


@pytest.fixture(scope="module")
def pair_net():
    return uniform_coupling(build_topology("complete", 2), 0.3)


@pytest.fixture(scope="module")
def params():
    return AgentParams.with_steady_state(-0.04, 0.4, 0.1, Q)


class TestShockResponseCompare:

    def test_rmse_grows_with_shock_size(self, pair_net, params):
        rmses = []
        for u in (0.025, 0.05, 0.1, 0.2):
            resp = shock_response_compare(pair_net, params, Q,
                                          shock=[u, 0.0], tau=200)
            rmses.append(resp.rmse)
        assert all(a < b for a, b in zip(rmses, rmses[1:]))

    def test_phase_shift_sign_follows_shock_sign(self, pair_net, params):
        pos = shock_response_compare(pair_net, params, Q, shock=[0.2, 0.0],
                                     tau=200)
        neg = shock_response_compare(pair_net, params, Q, shock=[-0.2, 0.0],
                                     tau=200)
        assert pos.phase_shift > 0
        assert neg.phase_shift < 0

    def test_recession_shock_disturbs_more_than_peak_shock(self, pair_net,
                                                           params):
        orbit = synchronized_orbit(params, Q, steps=3000)
        period = int(round(orbit.period))
        seg = orbit.y[1000:1000 + period]
        t_peak = 1000 + int(np.argmax(seg))
        dy = np.diff(orbit.y[1000:1000 + 2 * period])
        t_recession = 1000 + int(np.argmin(dy))
        peak_resp = shock_response_compare(pair_net, params, Q,
                                           shock=[0.2, 0.0], tau=t_peak)
        rec_resp = shock_response_compare(pair_net, params, Q,
                                          shock=[0.2, 0.0], tau=t_recession)
        peak_z1 = np.abs(peak_resp.zeta[:, 1]).max()
        rec_z1 = np.abs(rec_resp.zeta[:, 1]).max()
        assert rec_z1 > peak_z1

    def test_linearization_error_vanishes_with_shock(self, pair_net, params):
        rmses = [shock_response_compare(pair_net, params, Q,
                                        shock=[u, 0.0], tau=200).rmse
                 for u in (0.1, 0.05, 0.025)]
        assert rmses[0] > rmses[1] > rmses[2]

    @pytest.mark.parametrize("options, key", [
        ({"window_periods": 0}, "window_periods"), ({"window_periods": -2}, "window_periods"),
        ({"tau": -5}, "tau"),
    ])
    def test_rejects_bad_window_or_tau(self, pair_net, params, options, key):
        with pytest.raises(ConfigError, match=key):
            shock_response_compare(pair_net, params, Q, shock=[0.1, 0.0], **options)

    def test_csv_export(self, pair_net, params, tmp_path):
        resp = shock_response_compare(pair_net, params, Q, shock=[0.1, 0.0],
                                      tau=150)
        path = tmp_path / "resp.csv"
        resp.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "basis,node_or_mode,step,value"
        assert any(line.startswith("node,0,") for line in lines[1:])
        assert any(line.startswith("mode,1,") for line in lines[1:])
