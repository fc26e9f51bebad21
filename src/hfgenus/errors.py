"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: input/validation problems exit with 2,
largeness problems with 3, usage problems with 4.
"""


class HfgenusError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(HfgenusError):
    """Input data violates a documented invariant (bad descriptor, bad sign, ...)."""


class SchemaError(ValidationError):
    """A JSON document does not match the descriptor schema."""


class ParseError(SchemaError):
    """A descriptor file is not valid JSON at all."""


class SymmetryError(ValidationError):
    """No unit multiple of the polynomial has the required symmetry."""


class SignResolutionError(ValidationError):
    """Neither sign of some sublink polynomial yields a valid H-function.

    Raised by `violations.refuse` for the `HTable` constructor: the first
    multi-component sublink, in `all_subsets` order, whose face of the box
    list holds a failing unit step or a table breaking Torres's condition,
    read off the failures of that list's one step check.
    """


class LSpaceAssertionError(ValidationError):
    """The descriptor does not assert the L-space property and force=False."""


class StabilizationError(ValidationError):
    """h fails the step law on the table's box, and no sublink's face does.

    A table breaking Torres's condition always names a sublink, as
    `SignResolutionError`, and h >= 0 follows from the laws (see
    `hfunction`), so the problems, stated on H = h + H_O, are failing steps
    and the negative values of H they leave.

    Raised by `violations.refuse` for the `HTable` constructor, the one
    raiser, which passes every problem on the table's box as `problems`,
    read off the failing steps of the box list, which only a refused table
    builds (no step is compared again), and the 1-based subsets
    whose stored sign it flipped as `flipped`; the message names the box and
    shows only the first few problems.  Stabilization itself holds by
    construction.
    """

    def __init__(self, message: str, problems, flipped):
        super().__init__(message)
        self.problems = list(problems)
        self.flipped = list(flipped)


class LargenessError(HfgenusError):
    """A surgery coefficient fails the largeness heuristic and force=False."""


class UsageError(HfgenusError):
    """Bad command-line arguments."""
