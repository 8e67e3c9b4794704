"""Exception types shared across the package."""


class GermCalcError(Exception):
    """Base class for all package errors."""


class DimensionError(GermCalcError, ValueError):
    """Vector lengths do not match the ambient dimension."""


class LatticeCompatibilityError(GermCalcError, ValueError):
    """A map or point does not land on the target lattice."""


class BoundaryError(GermCalcError, ValueError):
    """A difference stencil exits the window."""


class DomainTooSmallError(GermCalcError, ValueError):
    """No admissible test-function placement fits the window."""


class UnderdeterminedFitError(GermCalcError, ValueError):
    """Fewer sample points than polynomial coefficients."""


class InputNotHolderError(GermCalcError, ValueError):
    """Input field violates the stated Holder bound."""


class IllPosedSourceError(GermCalcError, ValueError):
    """Fourier symbol (near-)vanishes on the discrete frequency grid."""


class ValidationError(GermCalcError, ValueError):
    """Invalid configuration or command-line input."""


class VerificationError(GermCalcError):
    """A computed result fails its own check, beyond its round-off tolerance."""
