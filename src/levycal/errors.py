"""Exception hierarchy shared across the package."""


class LevycalError(Exception):
    """Base class for all package-specific failures."""


class NonFinite(LevycalError):
    """A quadrature or model evaluation returned a non-finite value."""


class ResidueTooLarge(LevycalError):
    """Imaginary residue of an inverse transform exceeded tolerance (grid too coarse)."""


class InsufficientSupport(LevycalError):
    """Scattered samples cover too little of the region where the time value lives."""


class EmptyPool(LevycalError):
    """Amplification was asked to resample from an empty sample pool."""


class ParseError(LevycalError):
    """Malformed quote CSV row; carries the offending line number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class MixedMaturities(LevycalError):
    """Quotes passed to a single slice do not share one maturity."""


class LengthMismatch(LevycalError):
    """Predicted and target arrays are not aligned."""


class DivergedLoss(LevycalError):
    """Training loss became non-finite."""
