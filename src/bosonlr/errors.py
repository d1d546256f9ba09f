"""Exception taxonomy shared by all modules."""


class BosonLRError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(BosonLRError, ValueError):
    """Caller passed an argument outside an operation's contract."""


class NotInBasisError(BosonLRError, KeyError):
    """Occupation vector violates the cap/sector constraints of a basis."""


class ResourceLimitError(BosonLRError, RuntimeError):
    """Requested computation exceeds a hard size cap (basis/dense limits)."""


class DivergingPartitionFunctionError(BosonLRError, RuntimeError):
    """Sector weights fail to decay; thermal truncation cannot be certified."""


class TruncationError(BosonLRError, RuntimeError):
    """Certified truncation tail exceeds the configured tolerance."""


class BoundaryContaminationError(BosonLRError, RuntimeError):
    """Advisory: lattice too short, boundary reflections pollute the signal."""


class ConfigError(BosonLRError, ValueError):
    """Malformed or inconsistent experiment configuration."""
