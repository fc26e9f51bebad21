"""cable: cable a link, check the cable's region against the cable transform
of the link's, and print the cabled descriptor."""

from __future__ import annotations

from ..cable import cable_consistency_check, parse_cable_spec
from ..cli import _emit, _load_input, _usage
from ..jsonwriter import descriptor_to_dict


def run(args) -> int:
    d = _load_input(args)
    report = _usage(cable_consistency_check, d, parse_cable_spec(args.cable), args.force)
    cabled = report.pop("cabled")
    report["consistent"] = report.pop("equal")
    return _emit(args, {**report, "name": cabled.name,
                        "descriptor": descriptor_to_dict(cabled)})
