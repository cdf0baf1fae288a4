"""Exception types shared across the package.

Every failure the library raises deliberately derives from RobustChowError,
so callers (and the CLI) can distinguish "the algorithm declined" from a bug.
"""


class RobustChowError(Exception):
    """Base class for all library errors."""


class SizeCapExceeded(RobustChowError):
    """Dense basis would exceed the configured size cap."""


class DimensionMismatch(RobustChowError):
    """Vector/matrix dimensions disagree with the basis."""


class UnknownFamily(RobustChowError):
    """Tail-bound family tag not recognized."""


class IntegralDiverges(RobustChowError):
    """Tail bound decays too slowly: its delta integral or T_max crossing fails."""


class NotPSD(RobustChowError):
    """Supplied moment matrix is not positive semidefinite within tolerance."""


class NonMultilinearBasis(RobustChowError):
    """Hypercube moments require a basis with all exponents <= 1."""


class BudgetExceeded(RobustChowError):
    """Internal assertion: adversary touched more than floor(eps*m) entries."""


class UnknownStrategy(RobustChowError):
    """Adversary strategy tag not in the catalog."""


class InvalidHypothesis(RobustChowError):
    """Planted hypothesis parameters are malformed (non-unit vector etc.)."""


class AllPointsPruned(RobustChowError):
    """Pruning removed every sample: gross parameter mismatch."""


class NoThresholdFound(RobustChowError):
    """Filter loop found no valid tail threshold despite a large eigenvalue.

    robust_chow catches this and terminates with a degraded-quality flag;
    it only escapes from the threshold rule itself.
    """


class BasisMismatch(RobustChowError):
    """Two estimates (or an estimate and a basis) disagree on (n, d, ordering)."""


class ChowBoundViolated(RobustChowError):
    """An estimated Chow vector breaks the Cauchy-Schwarz bound of its law:
    the corrupted sample is too far off for the filter's guarantee."""


class ZeroChowVector(RobustChowError):
    """Degree-1 Chow block is exactly zero, so it names no direction."""


class AcceptanceTooLow(RobustChowError):
    """Rejection sampling accepted too small a fraction to continue."""


class CoverTooLarge(RobustChowError):
    """Requested hypothesis cover exceeds the enumeration cap; raise delta."""


class EmptyHoldout(RobustChowError):
    """Hypothesis selection got an empty holdout set."""


class ConfigError(RobustChowError):
    """Experiment/CLI configuration is invalid; message carries field detail."""
