"""Exception hierarchy shared across the toolkit.

Three broad categories map onto distinct CLI exit codes: configuration
problems (2), numerical failures (3) and data/IO problems (4).
"""


class CycleSyncError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CycleSyncError):
    """Invalid configuration or parameter values."""


class NumericalError(CycleSyncError):
    """A computation failed or produced unusable numbers."""


class DataError(CycleSyncError):
    """Malformed, inconsistent or insufficient input data."""


# --- dynamics ---------------------------------------------------------------

class NonOscillatory(NumericalError):
    """Eigenvalues are real; no linear frequency is defined."""


# --- networks ---------------------------------------------------------------

class ZeroOutput(DataError):
    """A sector-country node has no outgoing flow."""


class MissingFinalDemand(DataError):
    """A country in the flow table has no final-demand records."""


class Disconnected(NumericalError):
    """The network has more than one connected component."""


class NonConvergence(NumericalError):
    """Power iteration failed to converge within the iteration cap."""


class Reducible(NumericalError):
    """The stochastic matrix is reducible (some centrality entries vanish)."""


# --- simulation -------------------------------------------------------------

class NumericalBlowup(NumericalError):
    """A decision variable exceeded the configured bound.

    ``run`` is the index, within a batch of runs, of the first run that
    failed (None when not known).
    """

    def __init__(self, step, value, bound, run=None):
        self.step = step
        self.value = value
        self.bound = bound
        self.run = run
        where = f"at step {step}" if run is None else f"in run {run} at step {step}"
        super().__init__(f"|y| = {value:.3g} exceeded bound {bound:.3g} {where}")


# --- phase analysis ---------------------------------------------------------

class TooFewPeaks(NumericalError):
    """Fewer than three peaks were found; period estimation impossible."""


class PhaseUndefined(NumericalError):
    """Phase requested before the first or after the last detected peak."""


class DegenerateSeries(DataError):
    """A series has zero variance; correlation is undefined."""


class EntrainmentFailure(NumericalError):
    """A Monte Carlo draw failed the frequency-entrainment criterion."""


# --- master stability -------------------------------------------------------

class NotOscillating(NumericalError):
    """The single-agent orbit converged to a point instead of a cycle."""


class DegenerateTangent(NumericalError):
    """A tangent vector vanished, overflowed or turned NaN in Lyapunov propagation."""


class IllConditioned(NumericalError):
    """The eigenvector matrix is too ill-conditioned to invert reliably."""


class ConsistencyBreach(NumericalError):
    """Node-basis and eigenbasis propagation disagree beyond tolerance."""


# --- empirics ---------------------------------------------------------------

class DuplicateKey(DataError):
    """Duplicate (country, sector, variable, year) key in a panel file."""


class MalformedRow(DataError):
    """A CSV row could not be parsed."""


class SeriesTooShort(DataError):
    """Series too short for the band-pass filter."""


class MissingJoinYear(DataError):
    """The joining year is absent from one of the series."""


class NonPositiveValue(DataError):
    """Logarithmic joining requires strictly positive values."""


class EmptyGroup(DataError):
    """A correlation grouping produced no pairs."""
