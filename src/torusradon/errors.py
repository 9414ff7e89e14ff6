"""Exception types raised on contract violations across the toolkit."""


class TorusRadonError(Exception):
    """Base class for all package errors."""


class ZeroVector(TorusRadonError):
    """A nonzero integer vector was required."""


class RankMismatch(TorusRadonError):
    """Supplied generators do not span a subspace of the requested dimension."""


class BandTooLarge(TorusRadonError):
    """Grid too coarse for the requested frequency band (need N >= 2K+2)."""


class DimensionMismatch(TorusRadonError):
    """Operands live on tori of different dimensions or bands."""


class QuadratureTooCoarse(TorusRadonError):
    """Midpoint rule step count below the exactness threshold."""


class WeightUndefined(TorusRadonError):
    """Weight rule has no value for a stored (frequency, subspace) pair."""


class IncompleteCover(TorusRadonError):
    """Some band frequency lacks its orthogonal subspace in the family."""


class AxisDegenerate(TorusRadonError):
    """Axis formula requested for a frequency with zero component on that axis."""


class ParamViolation(TorusRadonError):
    """Regularization parameters violate the hypotheses of the closed form."""


class BadParams(TorusRadonError):
    """Invalid phantom parameters."""


class GeometryViolation(TorusRadonError):
    """Object support does not fit inside one fundamental domain."""


class MissingAngle(TorusRadonError):
    """Euclidean sinogram lacks data for a requested torus direction."""


class ConfigInvalid(TorusRadonError):
    """Experiment configuration failed validation; message lists the fields."""


class CorruptInput(TorusRadonError):
    """A file or directory read from disk is malformed or holds non-finite values."""
