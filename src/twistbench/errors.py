"""Exception types shared across the workbench.

The CLI maps these onto exit codes: bad input / violated preconditions
exit 2, unsupported-but-well-formed requests exit 3, and computed
failures (a certification that honestly fails) exit 1.
"""


class TwistbenchError(Exception):
    """Base class for all workbench errors."""


class InputError(TwistbenchError):
    """Malformed input or violated precondition (CLI exit 2)."""


class DimensionMismatch(InputError):
    pass


class NotGenerating(InputError):
    """Columns do not generate the full integer lattice."""


class InvalidLabelling(InputError):
    pass


class DimensionTooSmall(InputError):
    pass


class Unsupported(TwistbenchError):
    """Well-formed request outside the implemented catalog (CLI exit 3)."""


class UnrecognizedPattern(Unsupported):
    """Plumbing graph does not reduce to the recognized patterns."""


class ComputedFailure(TwistbenchError):
    """An honestly evaluated computation that fails (CLI exit 1)."""


class NoStop(ComputedFailure):
    """The core table misses its accuracy or does not reach a slope target."""


class MarginLost(ComputedFailure):
    """A modification destroyed an inequality margin; shrink the width."""


class NoSolution(ComputedFailure):
    """Splice matching equations are unsolvable for the given scale."""


class Exhausted(ComputedFailure):
    """No admissible fibre scale above the configured floor."""


class NotPositive(ComputedFailure):
    """Some Ricci eigenvalue lower bound is non-positive.

    The offending report is attached so callers can inspect it.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class StageError(TwistbenchError):
    """Wraps a failure with the pipeline stage where it occurred."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
