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


# --- networks ---------------------------------------------------------------

class ZeroOutput(DataError):
    """A sector-country node has no outgoing flow."""


class MissingFinalDemand(DataError):
    """A country in the flow table has no final-demand records."""


class Disconnected(NumericalError):
    """The network has more than one connected component."""


class Reducible(NumericalError):
    """The stochastic matrix is reducible: some node cannot reach another."""


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

    def named(self, where: str) -> NumericalError:
        """This failure as a :class:`NumericalError` naming its run as ``where``."""
        return NumericalError(f"{where}: |y| = {self.value:.3g} exceeded bound "
                              f"{self.bound:.3g} at step {self.step}")


# --- phase analysis ---------------------------------------------------------

class TooFewPeaks(NumericalError):
    """Fewer than three peaks were found; period estimation impossible."""


class DegenerateSeries(DataError):
    """A series has zero variance or a non-finite value."""


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


class EmptyGroup(DataError):
    """A correlation grouping produced no pairs."""
