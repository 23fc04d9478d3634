"""Single-agent map and steady-state algebra.

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

from .errors import ConfigError

__all__ = [
    "QuarticCoefficients",
    "AgentParams",
    "DEFAULT_QUARTIC",
    "eval_f",
    "eval_f_prime",
    "steady_state_alpha0",
    "single_agent_step",
]


@dataclass(frozen=True)
class QuarticCoefficients:
    """Coefficients of the interaction response F(y) = b0 + b1 y + ... + b4 y^4."""

    b0: float
    b1: float
    b2: float
    b3: float
    b4: float

    def __post_init__(self):
        for name, value in zip(("b0", "b1", "b2", "b3", "b4"), self.as_tuple()):
            if not math.isfinite(value):
                raise ConfigError(f"quartic coefficient {name} must be finite, got {value}")

    def as_tuple(self):
        return (self.b0, self.b1, self.b2, self.b3, self.b4)


#: Default parameterization: increasing at y = 1, decreasing for large y,
#: and F(1) = 0 so that the unit steady state needs no constant correction.
DEFAULT_QUARTIC = QuarticCoefficients(-0.5, 0.1, 0.2, 0.5, -0.3)


@dataclass(frozen=True)
class AgentParams:
    """Behavioural parameters of one agent.

    Finite ``alpha1 < 0`` encodes dislike for accumulation, ``0 < alpha2 < 1``
    sluggish adjustment of the decision variable, ``delta`` in (0, 1] the
    depreciation rate of the stock; ``alpha0`` is a finite constant.
    """

    alpha0: float
    alpha1: float
    alpha2: float
    delta: float

    def __post_init__(self):
        if not -math.inf < self.alpha1 < 0:
            raise ConfigError(f"alpha1 must be finite and negative, got {self.alpha1}")
        if not 0 < self.alpha2 < 1:
            raise ConfigError(f"alpha2 must lie in (0, 1), got {self.alpha2}")
        if not 0 < self.delta <= 1:
            raise ConfigError(f"delta must lie in (0, 1], got {self.delta}")
        if not math.isfinite(self.alpha0):
            raise ConfigError(f"alpha0 must be finite, got {self.alpha0}")

    @classmethod
    def with_steady_state(cls, alpha1, alpha2, delta,
                          q: QuarticCoefficients = DEFAULT_QUARTIC):
        """Build params with alpha0 chosen so that (1/delta, 1) is a fixed point."""
        return cls(steady_state_alpha0(alpha1, alpha2, delta, q),
                   alpha1, alpha2, delta)


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


def single_agent_step(x, y, ybar, params: AgentParams,
                      q: QuarticCoefficients = DEFAULT_QUARTIC):
    """One step of the map for one agent given its interaction term ``ybar``.

    The reference formula: the coupled kernel and the synchronized orbit
    evaluate it in the same floating-point order, and tests pin both to it
    bit for bit.
    """
    return ((1.0 - params.delta) * x + y,
            params.alpha0 + params.alpha1 * x + params.alpha2 * y + eval_f(q, ybar))
