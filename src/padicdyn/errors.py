"""Exception hierarchy shared by all padicdyn modules.

Each class declares the CLI exit code it maps to: 1 domain error (the
default), 2 precision exhaustion or non-convergence, 3 verification failure.
"""


class PadicError(Exception):
    """Base class for every error raised by this library."""

    exit_code = 1


class DivisionByZero(PadicError):
    pass


class PrecisionExhausted(PadicError):
    """Cancellation destroyed too many significant digits to trust the result."""

    exit_code = 2


class DomainError(PadicError):
    """Input lies outside the domain of the requested operation."""


class ZeroInput(PadicError):
    pass


class NotASquare(PadicError):
    pass


class PoleError(PadicError):
    """Denominator indistinguishable from zero at working precision."""


class NoConvergence(PadicError):
    """An iteration stopped short of its fixed point at working precision."""

    exit_code = 2


class ConsistencyError(PadicError):
    """An internal algebraic identity failed beyond tolerance."""

    exit_code = 3


class NotAFixedPoint(PadicError):
    pass


class BranchError(PadicError):
    """Neither square-root branch satisfied the required postcondition."""

    exit_code = 3


class EscapeError(PadicError):
    """An orbit left the repeller domain; carries the escape step."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"orbit escaped at step {step}")


class VerificationError(PadicError):
    """A constructed object failed its forward verification."""

    exit_code = 3


class LengthMismatch(PadicError):
    pass


class ZeroPartitionFunction(PadicError):
    pass


class NoValidPlacement(PadicError):
    """No single-component placement satisfied the field equations.

    Carries the full placement diagnostics so callers can report them.
    """

    exit_code = 3

    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        super().__init__("no component placement satisfies the field equations")
