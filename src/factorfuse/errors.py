"""Exception hierarchy shared by all modules."""


class FactorFuseError(Exception):
    """Base class for all errors raised by this package."""


class EmptyCluster(FactorFuseError):
    """A partition contains a cluster with no observations."""


class DegenerateData(FactorFuseError):
    """Data cannot support the requested fit (too few observations, etc.)."""


class SingularCovariance(FactorFuseError):
    """Pooled covariance is singular even after the ridge fallback."""


class NoEvents(FactorFuseError):
    """Survival data contains no uncensored events."""


class NonConvergence(FactorFuseError):
    """Newton-Raphson failed to converge within the iteration budget."""


class MonotoneLikelihood(FactorFuseError):
    """A Cox coefficient is infinite: the partial likelihood keeps rising along it."""


class WeightsNotSupported(FactorFuseError):
    """Observation weights were supplied for a family that rejects them."""


class NotNested(FactorFuseError):
    """LRT requested for two models that are not nested."""


class NumericalInconsistency(FactorFuseError):
    """A nested model pair produced a log-likelihood ordering violation."""


class RepeatedLabel(FactorFuseError):
    """Two clusters share a label, so a view keyed by label cannot hold both."""


class InvalidStrategy(FactorFuseError):
    """Unknown merging strategy name."""


class DegeneratePoints(FactorFuseError):
    """All points coincide; a 1-D projection is undefined."""


class IncompatiblePanel(FactorFuseError):
    """Requested response panel is not valid for the data's model family."""
