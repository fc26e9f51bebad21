"""validate: check a descriptor and its H-function, printing each problem;
exit 0 iff valid."""

from __future__ import annotations

from ..cli import _emit, _load_input
from ..errors import StabilizationError, ValidationError
from ..hfunction import HTable


def run(args) -> int:
    try:
        d = _load_input(args)
        problems, flipped = [], HTable(d, force=args.force).flipped_signs()
    except StabilizationError as exc:
        problems, flipped = exc.problems, exc.flipped
    except ValidationError as exc:
        problems, flipped = [str(exc)], []
    problems += [f"stored polynomial sign for subset {B} is inconsistent: "
                 f"only the flipped sign yields a valid H-function "
                 f"(hint: negate that polynomial)" for B in flipped]
    return _emit(args, "".join(f"invalid: {p}\n" for p in problems) or f"valid: {d.name}\n",
                 code=2 if problems else 0)
