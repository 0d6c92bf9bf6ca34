"""Exception taxonomy shared across the package.

Everything raised on bad inputs derives from :class:`SobolabError` so callers
(and the CLI) can distinguish usage errors from genuine contract violations.
"""


class SobolabError(Exception):
    """Base class for all input/usage errors raised by this package."""


class TooFewPoints(SobolabError):
    """A dataset needs at least two points."""


class DuplicatePoints(SobolabError):
    """Two points of a dataset coincide exactly."""


class MismatchedLengths(SobolabError):
    """Companion arrays, dimensions or a file's columns disagree, or bump
    supports overlap or fail the packing certificate r_i <= gap_i / 2."""


class MalformedInput(SobolabError):
    """A file cell or header is malformed, or an array holds a non-finite value."""


class UnsupportedDimension(SobolabError):
    """Dimension outside the supported range (d in {1, 2, 3})."""


class UnsupportedOrder(SobolabError):
    """Derivative order beyond the implemented cap (3)."""


class NonpositiveRadius(SobolabError):
    """A bump support radius must be strictly positive."""


class QuadratureNotConverged(SobolabError):
    """Panel refinement exhausted before reaching the requested tolerance."""


class UnknownMultiIndex(SobolabError):
    """Multi-index not present in the reference-moduli table."""


class ParamsMismatch(SobolabError):
    """Objects built for different (k, p, d) triples were mixed."""


class InvalidShrink(SobolabError):
    """Shrink factor must lie in (0, 1]."""


class NotInterpolating(SobolabError):
    """Claimed interpolant misses a training label beyond tolerance."""


class OutOfDomain(SobolabError):
    """Query point lies outside the closed domain ball."""


class RejectionBudgetExceeded(SobolabError):
    """Rejection sampler acceptance rate collapsed (misdeclared bounds)."""


class UnsupportedNu(SobolabError):
    """Matern smoothness outside the implemented set {1/2, 3/2}."""


class SolveFailed(SobolabError):
    """Kernel system unsolvable even after the jitter ladder."""


class UnsupportedSpec(SobolabError):
    """Operation requires a more restrictive distribution spec."""


class InvalidRange(SobolabError):
    """A number out of range: p outside [1, inf), kp <= d, a norm sweep's
    k outside (d/p, 1.5 d/p), an index, or a norm that is not finite."""


class ConfigInvalid(SobolabError):
    """Config file failed validation; message names the offending field."""
