"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: input/validation problems exit with 2,
box-size and largeness problems with 3, usage problems with 4.
"""


class HfgenusError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(HfgenusError):
    """Input data violates a documented invariant (bad descriptor, bad sign, ...)."""


class SchemaError(ValidationError):
    """A JSON document does not match the descriptor schema."""


class ParseError(SchemaError):
    """A descriptor file is not valid JSON at all."""


class ExactDivisionError(ValidationError):
    """Laurent division left a nonzero remainder; the input is malformed."""


class SymmetryError(ValidationError):
    """No unit multiple of the polynomial has the required symmetry."""


class SignResolutionError(ValidationError):
    """Neither sign of some sublink polynomial yields a valid H-function."""


class LSpaceAssertionError(ValidationError):
    """The descriptor does not assert the L-space property and force=False."""


class BoxError(HfgenusError):
    """A lattice box is too small for the requested computation."""


class StabilizationError(BoxError):
    """H failed to stabilize at the box boundary.

    `problems` holds every problem a validation sweep found; the message
    shows only the first few.
    """

    def __init__(self, message: str, problems=()):
        super().__init__(message)
        self.problems = list(problems)


class LargenessError(BoxError):
    """A surgery coefficient fails the largeness heuristic and force=False."""


class UsageError(HfgenusError):
    """Bad command-line arguments."""
