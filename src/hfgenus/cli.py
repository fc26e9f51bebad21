"""Command-line interface.

Subcommands: h-table | region | bounds | cable | d-invariants | validate |
catalog-list.  Inputs come from the built-in catalog (--catalog KEY[:params])
or a JSON descriptor file (--link FILE).  All outputs are deterministic:
identical inputs give byte-identical bytes, rationals print as num/den.

Exit codes: 0 success, 2 validation failure, 3 box/largeness failure, 4 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import linkcat
from .cable import cable_consistency_check, parse_cable_spec
from .errors import BoxError, UsageError, ValidationError
from .hfunction import HTable
from .region import maximal_lattice_points, region_from_h
from .render import ascii_h_grid, region_svg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hfgenus",
                     description="H-functions, genus regions, 4-genus bounds, "
                                 "d-invariants and cables of L-space links")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--catalog", metavar="KEY[:p1,p2,...]",
                        help="built-in link (see catalog-list)")
    common.add_argument("--link", metavar="FILE", help="JSON descriptor file")
    common.add_argument("--box", type=int, metavar="M",
                        help="lattice box radius; must be at least the computed minimum")
    common.add_argument("--format", choices=("json", "ascii", "svg"), dest="fmt")
    common.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    common.add_argument("--force", action="store_true",
                        help="proceed without the L-space assertion / largeness checks")

    sub.add_parser("h-table", parents=[common], help="print h over the box")
    sub.add_parser("region", parents=[common],
                   help="generators and maximal points of the genus region")
    sub.add_parser("bounds", parents=[common], help="4-genus lower bounds")

    cab = sub.add_parser("cable", parents=[common], help="cable the link")
    cab.add_argument("--cable", required=True, metavar="p1:q1,p2:q2,...",
                     help="coprime pair per component")

    dinv = sub.add_parser("d-invariants", parents=[common],
                          help="lens space, circle bundle, or large-surgery d-invariants")
    dinv.add_argument("--lens", type=int, metavar="M",
                      help="all d-invariants of the lens space of order M")
    dinv.add_argument("--circle-bundle", metavar="M:G",
                      help="d-invariants of the order-M circle bundle over genus G")
    dinv.add_argument("--framing", metavar="q1,q2,...",
                      help="surgery coefficients (with --catalog/--link)")
    dinv.add_argument("--point", metavar="v1,v2,...",
                      help="structure label, default all zeros")

    sub.add_parser("validate", parents=[common],
                   help="validate a descriptor and its H-function; exit 0 iff valid")
    sub.add_parser("catalog-list", parents=[common], help="list built-in links")
    return parser


def _parse_catalog(text: str) -> linkcat.LinkDescriptor:
    key, sep, raw = text.partition(":")
    params = []
    if sep:
        for chunk in raw.split(","):
            try:
                params.append(int(chunk))
            except ValueError:
                raise UsageError(f"catalog parameter {chunk!r} is not an integer")
    try:
        return linkcat.catalog(key, *params)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc))


def _load_input(args) -> linkcat.LinkDescriptor:
    if bool(args.catalog) == bool(args.link):
        raise UsageError("exactly one of --catalog or --link is required")
    if args.catalog:
        return _parse_catalog(args.catalog)
    try:
        return linkcat.load_json(args.link)
    except OSError as exc:
        raise UsageError(f"cannot read {args.link}: {exc}")


def _make_table(args) -> HTable:
    return HTable(_load_input(args), box=args.box, force=args.force)


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _ints(text: str, what: str) -> tuple:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise UsageError(f"bad {what} {text!r}; expected comma-separated integers")


def _nested(table: HTable, window: int, fn):
    def rec(prefix):
        if len(prefix) == table.n:
            return fn(prefix)
        return [rec(prefix + (s,)) for s in range(-window, window + 1)]
    return rec(())


def _cmd_h_table(args) -> int:
    table = _make_table(args)
    window = table.M
    fmt = args.fmt or ("ascii" if table.n <= 2 else "json")
    if fmt == "svg":
        raise UsageError("h-table has no svg format; use the region command")
    if fmt == "ascii":
        if table.n > 2:
            raise UsageError("ascii grids need one or two components; use --format json")
        _emit(args, ascii_h_grid(table, window) + "\n")
    else:
        _emit(args, _json({
            "name": table.link.name,
            "window": window,
            "origin": [-window] * table.n,
            "h": _nested(table, window, table.h),
            "H": _nested(table, window, table.H),
        }))
    return 0


def _region_payload(table: HTable) -> dict:
    region = region_from_h(table)
    zmax = maximal_lattice_points(table)
    return {"name": table.link.name,
            "generators": [list(g) for g in region.generators],
            "maximal_points": [list(z) for z in zmax]}


def _cmd_region(args) -> int:
    table = _make_table(args)
    fmt = args.fmt or "json"
    if fmt == "svg":
        if table.n != 2:
            raise UsageError("svg staircases need exactly two components")
        region = region_from_h(table)
        _emit(args, region_svg(region, table.M, maximal_lattice_points(table)))
        return 0
    payload = _region_payload(table)
    if fmt == "ascii":
        lines = [f"link: {payload['name']}",
                 "generators: " + " ".join(str(tuple(g)) for g in payload["generators"]),
                 "maximal points: " + " ".join(str(tuple(z)) for z in payload["maximal_points"])]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _json(payload))
    return 0


def _cmd_bounds(args) -> int:
    table = _make_table(args)
    report = bounds_mod.best_lower_bound(table)
    payload = {
        "name": table.link.name,
        "bounds": report["bounds"],
        "best": report["best"],
        "via": report["via"],
        "unlink_consistent": bounds_mod.unlink_test(table),
    }
    if (args.fmt or "json") == "ascii":
        lines = [f"link: {payload['name']}"]
        for key in bounds_mod.BOUND_NAMES:
            value = report["bounds"].get(key)
            lines.append(f"{key}: {'n/a' if value is None else value}")
        lines.append(f"best lower bound: {report['best']} (via {report['via']})")
        if payload["unlink_consistent"]:
            lines.append("h vanishes identically: a slice L-space link with this "
                         "data is the unlink")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _json(payload))
    return 0


def _cmd_cable(args) -> int:
    d = _load_input(args)
    spec = parse_cable_spec(args.cable)
    try:
        report = cable_consistency_check(d, spec, force=args.force)
    except ValueError as exc:
        raise UsageError(str(exc))
    cabled = report["cabled"]
    payload = {
        "name": cabled.name,
        "descriptor": linkcat.descriptor_to_dict(cabled),
        "direct_generators": (None if report["direct_generators"] is None
                              else [list(g) for g in report["direct_generators"]]),
        "direct_error": report["direct_error"],
        "transformed_generators": [list(g) for g in report["transformed_generators"]],
        "consistent": report["equal"],
        "warnings": report["warnings"],
    }
    _emit(args, _json(payload))
    return 0


def _cmd_d_invariants(args) -> int:
    modes = [args.lens is not None, bool(args.circle_bundle),
             bool(args.catalog or args.link)]
    if sum(modes) != 1:
        raise UsageError("choose one of --lens, --circle-bundle, or a link input "
                         "with --framing")
    if args.lens is not None:
        m = args.lens
        if m < 1:
            raise UsageError(f"--lens expects a positive order, got {m}")
        values = [[k, _frac(bounds_mod.lens_d(m, k))]
                  for k in range(-(m // 2), m // 2 + 1)]
        _emit(args, _json({"lens": m, "values": values}))
        return 0
    if args.circle_bundle:
        raw_m, sep, raw_g = args.circle_bundle.partition(":")
        if not sep:
            raise UsageError("--circle-bundle expects M:G")
        try:
            m, g = int(raw_m), int(raw_g)
        except ValueError:
            raise UsageError("--circle-bundle expects integers M:G")
        if m < 1:
            raise UsageError(f"--circle-bundle expects a positive order, got {m}")
        try:
            values = [[k, _frac(bounds_mod.circle_bundle_d(m, g, k))]
                      for k in range(-(m // 2), m // 2 + 1)]
        except ValueError as exc:
            raise UsageError(str(exc))
        _emit(args, _json({"circle_bundle": [m, g], "values": values}))
        return 0
    if not args.framing:
        raise UsageError("--framing is required with a link input")
    table = _make_table(args)
    q = _ints(args.framing, "framing")
    v = _ints(args.point, "point") if args.point else (0,) * table.n
    try:
        value = bounds_mod.large_surgery_d(table, q, v, force=args.force)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(args, _json({"name": table.link.name, "framing": list(q),
                       "point": list(v), "d": _frac(value)}))
    return 0


def _cmd_validate(args) -> int:
    problems = []
    try:
        d = _load_input(args)
    except ValidationError as exc:
        _emit(args, f"invalid: {exc}\n")
        return 2
    problems.extend(linkcat.validate_descriptor(d))
    if not problems:
        try:
            table = HTable(d, box=args.box, force=args.force)
            problems.extend(table.validation_report())
            for B in table.flipped_signs():
                problems.append(
                    f"stored polynomial sign for subset {B} is inconsistent: "
                    f"only the flipped sign yields a valid H-function "
                    f"(hint: negate that polynomial)")
        except ValidationError as exc:
            problems.append(str(exc))
    if problems:
        _emit(args, "\n".join(f"invalid: {p}" for p in problems) + "\n")
        return 2
    _emit(args, f"valid: {d.name}\n")
    return 0


def _cmd_catalog_list(args) -> int:
    lines = []
    for entry in linkcat.catalog_list():
        suffix = f":{entry.params}" if entry.params else ""
        lines.append(f"{entry.key}{suffix}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "h-table": _cmd_h_table,
    "region": _cmd_region,
    "bounds": _cmd_bounds,
    "cable": _cmd_cable,
    "d-invariants": _cmd_d_invariants,
    "validate": _cmd_validate,
    "catalog-list": _cmd_catalog_list,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 4
    except BoxError as exc:
        print(f"box/largeness error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
