"""d-invariants: of the lens space L(m, 1), of a circle bundle over a
surface, or of a large surgery on a link, each an exact rational."""

from __future__ import annotations

import sys
import warnings

from ..cli import _emit, _make_table, _usage
from ..errors import UsageError
from ..surgery import circle_bundle_d, large_surgery_d


def _frac(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _ints(text: str, what: str) -> tuple:
    why = f"bad {what} {text!r}; expected comma-separated integers"
    return tuple(_usage(int, chunk, why=why) for chunk in text.split(","))


def run(args) -> int:
    link = bool(args.catalog or args.link)
    if (args.lens is not None) + bool(args.circle_bundle) + link != 1 or not link and (
            args.framing or args.point or args.force):
        raise UsageError("choose one of --lens, --circle-bundle, or a link input "
                         "with --framing")
    if link:
        if not args.framing:
            raise UsageError("--framing is required with a link input")
        table = _make_table(args)
        q = _ints(args.framing, "framing")
        v = _ints(args.point, "point") if args.point else (0,) * table.n
        return _emit(args, {"name": table.link.name, "framing": q, "point": v,
                            "d": _frac(_usage(large_surgery_d, table, q, v, args.force))})
    if args.lens is None:
        m, sep, g = args.circle_bundle.partition(":")
        if not sep:
            raise UsageError("--circle-bundle expects M:G")
        m, g = (_usage(int, x, why="--circle-bundle expects integers M:G") for x in (m, g))
        flag, payload = "--circle-bundle", {"circle_bundle": [m, g]}
    else:
        m, g, flag, payload = args.lens, 0, "--lens", {"lens": args.lens}
    if m < 1:
        raise UsageError(f"{flag} expects a positive order, got {m}")
    # the lens space L(m, 1) is the circle bundle of Euler number -m over the
    # sphere; the largeness warning of a small bundle is one line of stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        payload["values"] = [[k, _frac(_usage(circle_bundle_d, m, g, k))]
                             for k in range(-(m // 2), m // 2 + 1)]
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return _emit(args, payload)
