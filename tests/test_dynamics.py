import math
import re

import numpy as np
import pytest

from cyclesync.dynamics import (
    DEFAULT_QUARTIC,
    AgentParams,
    QuarticCoefficients,
    eval_f,
    eval_f_prime,
    single_agent_step,
    steady_state_alpha0,
)
from cyclesync.empirics import DYNAMICS_PRESETS
from cyclesync.errors import ConfigError
from cyclesync.networks import InteractionNetwork
from cyclesync.simulation import SimulationConfig, simulate

Q = DEFAULT_QUARTIC


def params(alpha1, alpha2, delta):
    return AgentParams.with_steady_state(alpha1, alpha2, delta, Q)


class TestQuartic:
    def test_f_at_one_is_exactly_zero(self):
        assert eval_f(Q, 1.0) == 0.0

    def test_f_at_zero_is_constant_term(self):
        assert eval_f(Q, 0.0) == -0.5

    def test_f_at_two(self):
        # -0.5 + 0.2 + 0.8 + 4.0 - 4.8
        assert eval_f(Q, 2.0) == pytest.approx(-0.3, abs=1e-12)

    def test_fprime_at_one(self):
        assert eval_f_prime(Q, 1.0) == pytest.approx(0.8, abs=1e-12)

    def test_fprime_at_zero_is_linear_coefficient(self):
        assert eval_f_prime(Q, 0.0) == 0.1

    def test_fprime_matches_finite_differences_on_grid(self):
        h = 1e-4
        for y in np.linspace(0.0, 2.0, 41):
            fd = (eval_f(Q, y + h) - eval_f(Q, y - h)) / (2 * h)
            assert eval_f_prime(Q, y) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_array_evaluation(self):
        ys = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(eval_f(Q, ys), [-0.5, 0.0, -0.3], atol=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(5))
    def test_rejects_non_finite_coefficient(self, position, value):
        betas = list(Q.as_tuple())
        betas[position] = value
        message = f"quartic coefficient b{position} must be finite, got {value}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            QuarticCoefficients(*betas)


class TestSteadyState:
    def test_reference_values(self):
        assert steady_state_alpha0(-0.04, 0.4, 0.1, Q) == pytest.approx(1.0)
        assert steady_state_alpha0(-0.1, 0.4, 0.1, Q) == pytest.approx(1.6)

    def test_shift_by_f_at_one(self):
        # any quartic with F(1) = c shifts alpha0 by -c
        q2 = QuarticCoefficients(-0.25, 0.1, 0.2, 0.5, -0.3)
        c = eval_f(q2, 1.0)
        base = steady_state_alpha0(-0.04, 0.4, 0.1, Q)
        assert steady_state_alpha0(-0.04, 0.4, 0.1, q2) == pytest.approx(base - c)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ConfigError):
            steady_state_alpha0(-0.04, 0.4, 0.0, Q)

    def test_fixed_point_residual(self):
        # iterating once from (1/delta, 1) returns there to machine precision
        for a1, a2, de in ((-0.04, 0.4, 0.1), (-0.11, 0.4, 0.5), (-0.1, 0.3, 0.2)):
            p = params(a1, a2, de)
            x, y = single_agent_step(1.0 / de, 1.0, 1.0, p, Q)
            assert abs(x - 1.0 / de) < 1e-12
            assert abs(y - 1.0) < 1e-12


# The fixed-point facts below are read off the map itself: its Jacobian at
# (1/delta, 1) for one uncoupled agent (ybar = y), taken by differences of
# single_agent_step, and its orbit from a small displacement.  With a linear F
# the map is affine, so the differences are exact up to rounding, and
# J = [[1 - delta, 1], [alpha1, alpha2 + F'(1)]].

def linear_f(slope):
    """F(y) = slope * (y - 1): F(1) = 0 and F'(1) = slope."""
    return QuarticCoefficients(-slope, slope, 0.0, 0.0, 0.0)


def params_for(a1, a2, delta, q):
    return AgentParams.with_steady_state(a1, a2, delta, q)


def map_jacobian(p, q, h=1.0):
    def step(x, y):
        return np.array(single_agent_step(x, y, y, p, q))
    x0, y0 = 1.0 / p.delta, 1.0
    return np.column_stack([(step(x0 + h, y0) - step(x0 - h, y0)) / (2 * h),
                            (step(x0, y0 + h) - step(x0, y0 - h)) / (2 * h)])


def eigenvalues(a1, a2, delta, fprime):
    q = linear_f(fprime)
    return np.linalg.eigvals(map_jacobian(params_for(a1, a2, delta, q), q))


def rotation_per_step(a1, a2, delta, fprime):
    """Argument of the Jacobian's complex eigenvalue pair, radians per step."""
    lam = eigenvalues(a1, a2, delta, fprime)
    assert lam[0].imag != 0.0
    return abs(float(np.angle(lam[0])))


def y_deviation(p, q, steps, kick=1e-3):
    """y - 1 along the orbit started at the fixed point with y displaced by kick."""
    x, y = 1.0 / p.delta, 1.0 + kick
    out = np.empty(steps)
    for t in range(steps):
        x, y = single_agent_step(x, y, y, p, q)
        out[t] = y - 1.0
    return out


def sign_changes(series):
    return int(np.count_nonzero(np.diff(np.sign(series)) != 0))


def steady_state_residual(p, q, y):
    """y[t+1] - y[t] on the steady-state line x = y / delta."""
    return single_agent_step(y / p.delta, y, y, p, q)[1] - y


class TestUniqueness:
    # The unit steady state is a transversal, unique crossing of the
    # steady-state line when 1 - alpha1/delta - alpha2 > F'(1) (strictly).
    def check_unique(self, p, q):
        h = 1e-3
        slope = (steady_state_residual(p, q, 1.0 + h)
                 - steady_state_residual(p, q, 1.0 - h)) / (2 * h)
        assert slope == pytest.approx(p.alpha1 / p.delta + p.alpha2
                                      + eval_f_prime(q, 1.0) - 1.0, abs=1e-5)
        assert slope < 0
        residuals = [steady_state_residual(p, q, y) for y in np.linspace(0.05, 3.0, 60)]
        assert sign_changes(residuals) == 1

    def test_cycle_parameters_unique(self):
        self.check_unique(params(-0.04, 0.4, 0.1), Q)   # 1.0 > 0.8

    def test_lower_adjustment_cost_unique(self):
        self.check_unique(params(-0.04, 0.3, 0.1), Q)   # 1.1 > 0.8

    def test_boundary_is_strict(self):
        # 1 - a1/delta - a2 == F'(1) exactly: every point of the steady-state
        # line is fixed, so the unit steady state is not unique
        q_flat = QuarticCoefficients(0.0, 1.0, 0.0, 0.0, 0.0)   # F'(1) = 1
        p = AgentParams.with_steady_state(-0.08, 0.8, 0.1, q_flat)
        assert 1.0 - p.alpha1 / p.delta - p.alpha2 == pytest.approx(1.0)
        for y in (0.5, 1.0, 2.0, 3.0):
            assert abs(steady_state_residual(p, q_flat, y)) < 1e-12


class TestJacobian:
    def test_cycle_scenario(self):
        lam = eigenvalues(-0.04, 0.4, 0.1, 0.8)
        assert lam.sum().real == pytest.approx(2.1)
        assert lam.prod().real == pytest.approx(1.12)
        assert lam[0].imag != 0.0
        assert abs(lam[0]) > 1
        # the default quartic has F'(1) = 0.8: its Jacobian is the same
        np.testing.assert_allclose(map_jacobian(params(-0.04, 0.4, 0.1), Q, h=1e-6),
                                   map_jacobian(params_for(-0.04, 0.4, 0.1, linear_f(0.8)),
                                                linear_f(0.8)), atol=1e-8)

    def test_node_scenario(self):
        lam = eigenvalues(-0.11, 0.4, 0.5, 0.8)
        assert lam.sum().real == pytest.approx(1.7)
        assert lam.prod().real == pytest.approx(0.71)
        assert np.all(lam.imag == 0.0)
        assert np.abs(lam).max() < 1

    def test_stable_focus_point(self):
        # zero slope of F at the steady state with mild dislike parameters
        lam = eigenvalues(-0.1, 0.4, 0.1, 0.0)
        assert lam.sum().real == pytest.approx(1.3)
        assert lam.prod().real == pytest.approx(0.46)
        assert lam[0].imag != 0.0
        assert abs(lam[0]) < 1

    def test_eigenvalue_identities(self):
        # trace T = 1 - delta + alpha2 + F'(1), det D = (1 - delta)(alpha2 + F'(1)) - alpha1
        for a1, a2, de, fp in ((-0.04, 0.4, 0.1, 0.8), (-0.11, 0.4, 0.5, 0.8),
                               (-0.1, 0.4, 0.1, 0.0), (-0.1, 0.4, 0.1, -1.0)):
            l1, l2 = eigenvalues(a1, a2, de, fp)
            assert abs((l1 + l2) - (1.0 - de + a2 + fp)) < 1e-12
            assert abs((l1 * l2) - ((1.0 - de) * (a2 + fp) - a1)) < 1e-12


class TestStabilityClass:
    def test_substitutability_gives_stable_node(self):
        lam = eigenvalues(-0.1, 0.4, 0.1, -1.0)
        assert np.all(lam.imag == 0.0)
        assert np.abs(lam).max() < 1
        q = linear_f(-1.0)
        dev = y_deviation(params_for(-0.1, 0.4, 0.1, q), q, 200)
        assert np.abs(dev[-50:]).max() < 1e-12

    def test_cycle_scenario_is_limit_cycle(self):
        lam = eigenvalues(-0.04, 0.4, 0.1, 0.8)
        assert lam[0].imag != 0.0 and abs(lam[0]) > 1
        # the full map leaves the fixed point and settles on a bounded cycle
        dev = y_deviation(params(-0.04, 0.4, 0.1), Q, 4000)
        assert 0.3 < np.ptp(dev[-1000:]) < 2.0
        assert np.all(np.isfinite(dev))

    def test_node_scenario_is_stable_node(self):
        dev = y_deviation(params(-0.11, 0.4, 0.5), Q, 1000)
        assert np.abs(dev[-50:]).max() < 1e-12
        assert sign_changes(dev) <= 1   # returns without rotating

    def test_neutral_slope_gives_stable_focus(self):
        q = linear_f(0.0)
        dev = y_deviation(params_for(-0.1, 0.4, 0.1, q), q, 200)
        assert np.abs(dev[-50:]).max() < 1e-12
        assert sign_changes(dev[:60]) >= 4   # returns while rotating

    def test_boundary_tie_is_unstable_other(self):
        # D = 0.9 * (0.4 + 0.6) + 0.1 = 1 exactly: a displacement neither
        # dies out (stable) nor grows into a cycle
        lam = eigenvalues(-0.1, 0.4, 0.1, 0.6)
        assert abs(lam[0]) == pytest.approx(1.0, abs=1e-12)
        q = linear_f(0.6)
        dev = y_deviation(params_for(-0.1, 0.4, 0.1, q), q, 2000)
        ratio = np.abs(dev[-200:]).max() / np.abs(dev[:200]).max()
        assert 0.5 < ratio < 2.0

    def test_classification_stable_under_tiny_perturbations(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            da1, da2 = rng.uniform(-1e-13, 1e-13, 2)
            lam = eigenvalues(-0.04 + da1, 0.4 + da2, 0.1, 0.8)
            assert lam[0].imag != 0.0
            assert abs(lam[0]) > 1


class TestLinearFrequency:
    def test_cycle_scenario_value(self):
        psi = rotation_per_step(-0.04, 0.4, 0.1, 0.8)
        assert psi == pytest.approx(np.arctan(np.sqrt(0.0175) / 1.05), abs=1e-12)
        assert psi == pytest.approx(0.1253, abs=5e-4)

    def test_raises_for_real_eigenvalues(self):
        # the node scenario has no rotation frequency: real eigenvalues, and
        # the orbit's displacement never changes sign
        lam = eigenvalues(-0.11, 0.4, 0.5, 0.8)
        assert np.all(lam.imag == 0.0)
        q = linear_f(0.8)
        assert sign_changes(y_deviation(params_for(-0.11, 0.4, 0.5, q), q, 300)) == 0

    def test_frequency_rises_as_alpha1_falls(self):
        psis = [rotation_per_step(a1, 0.4, 0.1, 0.8) for a1 in np.linspace(-0.1, -0.03, 8)]
        # decreasing alpha1 (stronger dislike) raises the frequency
        assert all(a > b for a, b in zip(psis, psis[1:]))

    def test_frequency_falls_as_alpha2_rises(self):
        # valid where alpha2 > 1 - delta - F'(1) = 0.1
        psis = [rotation_per_step(-0.1, a2, 0.1, 0.8) for a2 in np.linspace(0.3, 0.6, 7)]
        assert all(a > b for a, b in zip(psis, psis[1:]))

    def test_partial_derivative_signs_by_finite_differences(self):
        h = 1e-6
        for a1 in (-0.09, -0.06, -0.04):
            for a2 in (0.35, 0.4, 0.45):
                def psi(a1v, a2v):
                    return rotation_per_step(a1v, a2v, 0.1, 0.8)
                d1 = (psi(a1 + h, a2) - psi(a1 - h, a2)) / (2 * h)
                d2 = (psi(a1, a2 + h) - psi(a1, a2 - h)) / (2 * h)
                assert d1 < 0
                assert d2 < 0


class TestPresetBehaviour:
    # One uncoupled agent without shocks, observed over its last 1000 steps.
    # The unit fixed point of "cycle" (determinant 1.12) and of "focus"
    # (1.03) is unstable, and both settle on a limit cycle, of amplitude
    # about 1.06 and 0.51; "node" (0.71, real eigenvalues) settles back on it.
    @pytest.mark.parametrize("name", sorted(DYNAMICS_PRESETS))
    def test_uncoupled_amplitude(self, name):
        traj = simulate(InteractionNetwork(weights=np.eye(1)), params(*DYNAMICS_PRESETS[name]),
                        Q, None, SimulationConfig(steps=4000, retain=1000, seed=0))
        amplitude = float(np.ptp(traj.y[:, 0]))
        if name == "node":
            assert amplitude < 1e-9
        else:
            assert amplitude > 0.3


class TestAgentParams:
    def test_rejects_positive_alpha1(self):
        with pytest.raises(ConfigError):
            AgentParams(alpha0=1.0, alpha1=0.1, alpha2=0.4, delta=0.1)

    @pytest.mark.parametrize("alpha1", [-math.inf, math.inf, math.nan])
    def test_rejects_non_finite_alpha1(self, alpha1):
        with pytest.raises(ConfigError, match=f"alpha1 must be finite and negative, got {alpha1}"):
            params(alpha1, 0.4, 0.1)

    @pytest.mark.parametrize("alpha0", [-math.inf, math.inf, math.nan])
    def test_rejects_non_finite_alpha0(self, alpha0):
        with pytest.raises(ConfigError, match=f"alpha0 must be finite, got {alpha0}"):
            AgentParams(alpha0=alpha0, alpha1=-0.04, alpha2=0.4, delta=0.1)

    def test_rejects_alpha2_outside_unit_interval(self):
        with pytest.raises(ConfigError):
            AgentParams(alpha0=1.0, alpha1=-0.1, alpha2=1.2, delta=0.1)

    def test_steady_state_construction_consistency(self):
        p = params(-0.07, 0.45, 0.2)
        expected = 1.0 - p.alpha1 / p.delta - p.alpha2 - eval_f(Q, 1.0)
        assert p.alpha0 == pytest.approx(expected, abs=1e-15)
