"""Exception types shared across the package."""


class SensConnError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SensConnError, ValueError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class ContractViolation(SensConnError, ValueError):
    """An argument broke a documented precondition."""


class PhaseError(SensConnError, RuntimeError):
    """Operation issued in the wrong phase of the update cycle."""


class QueryEndpointError(ContractViolation):
    """Connectivity query on a vertex that is not active."""


class CapacityError(ContractViolation):
    """Input above a size cap, raised before anything is allocated for it:
    an activation index whose estimated bytes exceed
    ``incremental_sensitivity.INDEX_BYTES_MAX``, or an update batch above
    the largest level of a doubling family."""
