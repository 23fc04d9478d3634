"""Single-agent map, steady-state algebra and local stability analysis.

Each agent carries an accumulation variable ``x`` (a stock, depreciating at
rate ``delta``) and a decision variable ``y`` (a flow).  The two evolve as a
two-dimensional map,

    x[t+1] = (1 - delta) * x[t] + y[t]
    y[t+1] = alpha0 + alpha1 * x[t] + alpha2 * y[t] + F(ybar[t])

where ``F`` is a quartic in the interaction-weighted decision variable
``ybar``.  The slope of ``F`` switches between positive (complementarity)
and negative (substitutability) regimes, which is what bounds the dynamics
and generates limit cycles once the fixed point loses stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, NonOscillatory

__all__ = [
    "QuarticCoefficients",
    "AgentParams",
    "JacobianSummary",
    "StabilityClass",
    "DEFAULT_QUARTIC",
    "eval_f",
    "eval_f_prime",
    "steady_state_alpha0",
    "check_uniqueness",
    "jacobian_at",
    "classify_stability",
    "linear_frequency",
    "single_agent_step",
]

# classification treats a point within this distance of a stability
# boundary as lying on it (conservative: boundary ties are "unstable other")
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class QuarticCoefficients:
    """Coefficients of the interaction response F(y) = b0 + b1 y + ... + b4 y^4."""

    b0: float
    b1: float
    b2: float
    b3: float
    b4: float

    def as_tuple(self):
        return (self.b0, self.b1, self.b2, self.b3, self.b4)


#: Default parameterization: increasing at y = 1, decreasing for large y,
#: and F(1) = 0 so that the unit steady state needs no constant correction.
DEFAULT_QUARTIC = QuarticCoefficients(-0.5, 0.1, 0.2, 0.5, -0.3)


@dataclass(frozen=True)
class AgentParams:
    """Behavioural parameters of one agent.

    ``alpha1 < 0`` encodes dislike for accumulation, ``0 < alpha2 < 1``
    sluggish adjustment of the decision variable, ``delta`` in (0, 1] the
    depreciation rate of the stock.
    """

    alpha0: float
    alpha1: float
    alpha2: float
    delta: float

    def __post_init__(self):
        if not self.alpha1 < 0:
            raise ConfigError(f"alpha1 must be negative, got {self.alpha1}")
        if not 0 < self.alpha2 < 1:
            raise ConfigError(f"alpha2 must lie in (0, 1), got {self.alpha2}")
        if not 0 < self.delta <= 1:
            raise ConfigError(f"delta must lie in (0, 1], got {self.delta}")

    @classmethod
    def with_steady_state(cls, alpha1, alpha2, delta,
                          q: QuarticCoefficients = DEFAULT_QUARTIC):
        """Build params with alpha0 chosen so that (1/delta, 1) is a fixed point."""
        return cls(steady_state_alpha0(alpha1, alpha2, delta, q),
                   alpha1, alpha2, delta)


class StabilityClass(Enum):
    STABLE_NODE = "stable_node"
    STABLE_FOCUS = "stable_focus"
    LIMIT_CYCLE = "limit_cycle"
    UNSTABLE_OTHER = "unstable_other"


@dataclass(frozen=True)
class JacobianSummary:
    """Trace/determinant summary of the 2x2 Jacobian at the fixed point.

    ``m = det - (trace/2)^2`` is positive exactly when the eigenvalues are
    complex, in which case their common modulus is sqrt(det).
    """

    trace: float
    det: float
    m: float
    eigenvalues: tuple
    modulus: float

    @property
    def complex_pair(self) -> bool:
        return self.m > 0


def eval_f(q: QuarticCoefficients, y):
    """Evaluate F at ``y`` (scalar or array) by Horner's scheme."""
    b0, b1, b2, b3, b4 = q.as_tuple()
    return b0 + y * (b1 + y * (b2 + y * (b3 + y * b4)))


def eval_f_prime(q: QuarticCoefficients, y):
    """Evaluate F' at ``y`` (scalar or array)."""
    _, b1, b2, b3, b4 = q.as_tuple()
    return b1 + y * (2.0 * b2 + y * (3.0 * b3 + y * 4.0 * b4))


def steady_state_alpha0(alpha1, alpha2, delta,
                        q: QuarticCoefficients = DEFAULT_QUARTIC):
    """The alpha0 that makes y = 1 (and x = 1/delta) an exact fixed point.

    Solves 1 = alpha0 + alpha1/delta + alpha2 + F(1).
    """
    if delta <= 0:
        raise ConfigError(f"depreciation rate must be positive, got {delta}")
    return 1.0 - alpha1 / delta - alpha2 - eval_f(q, 1.0)


def check_uniqueness(params: AgentParams, q: QuarticCoefficients = DEFAULT_QUARTIC) -> bool:
    """Whether the unit steady state is the unique intersection with F.

    Strict inequality: 1 - alpha1/delta - alpha2 > F'(1).
    """
    lhs = 1.0 - params.alpha1 / params.delta - params.alpha2
    return bool(lhs > eval_f_prime(q, 1.0))


def jacobian_at(params: AgentParams, fprime_at_ss: float) -> JacobianSummary:
    """Jacobian summary at the fixed point given F' evaluated there.

    J = [[1 - delta, 1], [alpha1, alpha2 + F'(1)]], so
    T = 1 - delta + alpha2 + F'(1) and D = (1 - delta)(alpha2 + F'(1)) - alpha1.
    """
    t = 1.0 - params.delta + params.alpha2 + fprime_at_ss
    d = (1.0 - params.delta) * (params.alpha2 + fprime_at_ss) - params.alpha1
    m = d - (t / 2.0) ** 2
    if m > 0:
        root = 1j * math.sqrt(m)
    else:
        root = math.sqrt(-m)
    lam1 = t / 2.0 + root
    lam2 = t / 2.0 - root
    modulus = math.sqrt(d) if m > 0 else max(abs(lam1), abs(lam2))
    return JacobianSummary(trace=t, det=d, m=m,
                           eigenvalues=(lam1, lam2), modulus=modulus)


def classify_stability(j: JacobianSummary) -> StabilityClass:
    """Classify the fixed point from (T, D).

    Stability requires D < 1, D > T - 1 and D > -T - 1 (all strict).  A
    complex pair with D > 1 is the oscillatory loss of stability producing
    an attracting cycle.  Points within 1e-12 of a boundary are put in the
    residual class.
    """
    t, d = j.trace, j.det
    margins = (1.0 - d, d - (t - 1.0), d - (-t - 1.0))
    if any(abs(mg) <= _BOUNDARY_TOL for mg in margins):
        return StabilityClass.UNSTABLE_OTHER
    stable = all(mg > 0 for mg in margins)
    if stable:
        return StabilityClass.STABLE_FOCUS if j.complex_pair else StabilityClass.STABLE_NODE
    if d > 1.0 and j.complex_pair:
        return StabilityClass.LIMIT_CYCLE
    return StabilityClass.UNSTABLE_OTHER


def linear_frequency(j: JacobianSummary) -> float:
    """Argument psi of the complex eigenvalue pair, in radians per step.

    The implied linear period is 2*pi/psi; the measured period of the full
    nonlinear orbit is a different (simulated) quantity.
    """
    if j.m <= 0:
        raise NonOscillatory(
            f"eigenvalues are real (m = {j.m:.3g}); no rotation frequency"
        )
    return math.atan2(math.sqrt(j.m), j.trace / 2.0)


def _map_step(x, y, ybar, a0, a1, a2, delta, q: QuarticCoefficients):
    """The map formula, elementwise on floats or arrays: (x[t+1], y[t+1]).

    Every iteration of the map goes through here, so all of them share one
    floating-point evaluation order.
    """
    return (1.0 - delta) * x + y, a0 + a1 * x + a2 * y + eval_f(q, ybar)


def single_agent_step(x, y, ybar, params: AgentParams,
                      q: QuarticCoefficients = DEFAULT_QUARTIC):
    """One step of the map for one agent given its interaction term ``ybar``."""
    return _map_step(x, y, ybar, params.alpha0, params.alpha1, params.alpha2,
                     params.delta, q)
