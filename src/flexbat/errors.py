"""Exception types shared across the package.

The CLI maps these onto process exit codes: validation problems exit 2,
degenerate aggregation exits 3, I/O and parse problems exit 4.
"""


class FlexError(Exception):
    """Base class for all package errors."""


class MalformedProblem(FlexError):
    """LP data is inconsistent (dimension mismatch, NaN/inf entries)."""


class SolverFailure(FlexError):
    """The LP backend gave up (iteration limit, numerical trouble)."""


class DimensionMismatch(FlexError):
    """Operands live in different ambient dimensions."""


class BadProfile(FlexError):
    """Fleet generation profile is self-contradictory."""


class ParseError(FlexError):
    """An input file could not be parsed; message names the offending field."""


class ValidationError(FlexError):
    """Parsed data violates a model invariant (e.g. departure past horizon)."""


class TooLarge(FlexError):
    """Subset enumeration would exceed the configured budget."""


class EmptyUnit(FlexError):
    """A flexibility unit with an empty admissible set entered elimination."""


class EmptyOrDegenerate(FlexError):
    """Homothet approximation collapsed (infeasible LP or s outside guards)."""


class NotInBattery(FlexError):
    """Profile handed to dispatch is not a member of the root battery."""


class DispatchInfeasible(FlexError):
    """Dispatch produced a violation beyond clamping tolerance (a bug)."""


class TargetOutOfRange(FlexError):
    """Requested total energy lies outside the fleet's attainable interval."""


class LengthMismatch(FlexError):
    """A series has the wrong number of entries for the horizon."""


class EmptyBattery(FlexError):
    """Optimization requested over an empty battery set."""
