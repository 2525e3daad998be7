"""Exception classes shared across the toolkit."""


class CircflatError(Exception):
    """Base class for all toolkit errors."""


class ParseError(CircflatError):
    """Raised when a circuit file cannot be parsed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidCircuit(CircflatError):
    """Raised when an operation is handed a circuit that fails validation."""


class InvalidParams(CircflatError):
    """Raised when schedule or generator parameters are out of range."""


class InvalidSpec(InvalidParams):
    """Raised for malformed generator specifications."""


class PreconditionViolated(CircflatError):
    """Raised when a decomposition hypothesis does not hold for the given gates."""


class NotBalanced(CircflatError):
    """Raised when depth reduction is applied to a circuit that is not balanced."""


class ExpansionTooLarge(CircflatError):
    """Raised when a sparse expansion would exceed the configured monomial budget."""


class TooManyProofTrees(CircflatError):
    """Raised when proof-tree enumeration would exceed the requested cap."""


class IncompatibleArity(CircflatError):
    """Raised when two circuits cannot be compared (different n or modulus)."""
