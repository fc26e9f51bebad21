"""Command-line interface.

Subcommands: h-table | region | bounds | cable | d-invariants | validate |
catalog-list.  Inputs come from the built-in catalog (--catalog KEY[:params])
or a JSON descriptor file (--link FILE).  Each command takes only the flags
its handler reads; any other flag is a usage error.  All outputs are
deterministic: identical inputs give byte-identical bytes, rationals print as
num/den.

The command line is read in order against one table, _TABLE, which gives
each command its handler, its help and its flags.  `_parse` takes full or
unique-prefix flag names, `--flag value` and `--flag=value` (a value may
begin with a single `-`), the last value winning, and -h or --help; the
first token it cannot read is a usage error.  It imports nothing: the
standard library's parser, with the gettext and locale it loads and one
parser per command, cost each process 7.5 ms (median of 21 fresh processes
on a 2-CPU Xeon VM, Python 3.11).

Exit codes: 0 success, 2 validation failure, 3 largeness failure, 4 usage.
Each command imports only the layers it uses, so a job loads no other.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .errors import LargenessError, StabilizationError, UsageError, ValidationError


def _parse_catalog(text: str):
    from . import linkcat
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
    except ValueError as exc:
        raise UsageError(str(exc))


def _load_input(args):
    if bool(args.catalog) == bool(args.link):
        raise UsageError("exactly one of --catalog or --link is required")
    if args.catalog:
        return _parse_catalog(args.catalog)
    from . import linkcat
    try:
        return linkcat.load_json(args.link)
    except OSError as exc:
        raise UsageError(f"cannot read {args.link}: {exc}")


def _make_table(args):
    from .hfunction import HTable
    return HTable(_load_input(args), force=args.force)


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
    import json
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _frac(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _ints(text: str, what: str) -> tuple:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise UsageError(f"bad {what} {text!r}; expected comma-separated integers")


def _nested(table, window: int, fn):
    def rec(prefix):
        if len(prefix) == table.n:
            return fn(prefix)
        return [rec(prefix + (s,)) for s in range(-window, window + 1)]
    return rec(())


def _cmd_h_table(args) -> int:
    table = _make_table(args)
    window = table.M
    fmt = args.fmt or ("ascii" if table.n <= 2 else "json")
    if fmt == "ascii":
        if table.n > 2:
            raise UsageError("ascii grids need one or two components; use --format json")
        from .render import ascii_h_grid
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


def _cmd_region(args) -> int:
    from .region import maximal_lattice_points, region_from_h
    table = _make_table(args)
    fmt = args.fmt or "json"
    if fmt == "svg" and table.n != 2:
        raise UsageError("svg staircases need exactly two components")
    region = region_from_h(table)
    zmax = maximal_lattice_points(table)
    if fmt == "svg":
        from .render import region_svg
        _emit(args, region_svg(region, table.M, zmax))
        return 0
    payload = {"name": table.link.name,
               "generators": [list(g) for g in region.generators],
               "maximal_points": [list(z) for z in zmax]}
    if fmt == "ascii":
        lines = [f"link: {payload['name']}",
                 "generators: " + " ".join(str(tuple(g)) for g in payload["generators"]),
                 "maximal points: " + " ".join(str(tuple(z)) for z in payload["maximal_points"])]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _json(payload))
    return 0


def _cmd_bounds(args) -> int:
    from . import bounds as bounds_mod
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
    from . import linkcat
    from .cable import cable_consistency_check, parse_cable_spec
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
    from . import bounds as bounds_mod
    modes = [args.lens is not None, bool(args.circle_bundle),
             bool(args.catalog or args.link)]
    if sum(modes) != 1 or not modes[2] and (args.framing or args.point or args.force):
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
    from .hfunction import HTable
    try:
        d = _load_input(args)
    except ValidationError as exc:
        _emit(args, f"invalid: {exc}\n")
        return 2
    try:
        problems, flipped = [], HTable(d, force=args.force).flipped_signs()
    except StabilizationError as exc:
        problems, flipped = exc.problems, exc.flipped
    except ValidationError as exc:
        problems, flipped = [str(exc)], []
    problems += [f"stored polynomial sign for subset {B} is inconsistent: "
                 f"only the flipped sign yields a valid H-function "
                 f"(hint: negate that polynomial)" for B in flipped]
    if problems:
        _emit(args, "\n".join(f"invalid: {p}" for p in problems) + "\n")
        return 2
    _emit(args, f"valid: {d.name}\n")
    return 0


def _cmd_catalog_list(args) -> int:
    from . import linkcat
    lines = []
    for entry in linkcat.catalog_list():
        suffix = f":{entry.params}" if entry.params else ""
        lines.append(f"{entry.key}{suffix}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


_OUT = {"--out": ("PATH", "write output here instead of stdout")}
_LINK = {**_OUT,
         "--catalog": ("KEY[:p1,p2,...]", "built-in link (see catalog-list)"),
         "--link": ("FILE", "JSON descriptor file"),
         "--force": (bool, "proceed without the L-space assertion / largeness checks")}
_HELP = {"--help": (bool, "print this help and exit")}

# command: (handler, help, {flag: (kind, help)}), where a flag's kind is bool
# for a switch, the tuple of its choices, int, or the metavar of a string
_TABLE = {
    "h-table": (_cmd_h_table, "print h over the box",
                {**_LINK, "--format": (("json", "ascii"), "output format")}),
    "region": (_cmd_region, "generators and maximal points of the genus region",
               {**_LINK, "--format": (("json", "ascii", "svg"), "output format")}),
    "bounds": (_cmd_bounds, "4-genus lower bounds",
               {**_LINK, "--format": (("json", "ascii"), "output format")}),
    "cable": (_cmd_cable, "cable the link",
              {**_LINK, "--cable": ("p1:q1,p2:q2,...", "coprime pair per component (required)")}),
    "d-invariants": (_cmd_d_invariants,
                     "lens space, circle bundle, or large-surgery d-invariants", {
        **_LINK,
        "--lens": (int, "all d-invariants of the lens space of order INT"),
        "--circle-bundle": ("M:G", "d-invariants of the order-M circle bundle over genus G"),
        "--framing": ("q1,q2,...", "surgery coefficients (with --catalog/--link)"),
        "--point": ("v1,v2,...", "structure label, default all zeros")}),
    "validate": (_cmd_validate, "validate a descriptor and its H-function; exit 0 iff valid",
                 _LINK),
    "catalog-list": (_cmd_catalog_list, "list built-in links", _OUT),
}


def _help(command) -> str:
    """The -h text: one command's flags, or the commands."""
    text, flags = _TABLE[command][1:] if command else (
        "H-functions, genus regions, 4-genus bounds, d-invariants and cables of L-space links",
        {name: (bool, text) for name, (_, text, _) in _TABLE.items()})
    lines = [f"usage: hfgenus {command or 'COMMAND'} [FLAG ...]", "", text, ""]
    for flag, (kind, text) in {**flags, **_HELP}.items():
        if kind is not bool:
            flag += " " + ("INT" if kind is int else kind if isinstance(kind, str) else
                           "|".join(kind))
        lines.append(f"  {flag:<26}  {text}")
    return "\n".join(lines) + "\n"


def _flag(token: str, flags: dict) -> str:
    """The flag that `token`, maybe `--flag=value`, names in full or by a
    unique prefix, or --help for -h; a usage error if it names none."""
    name = "--help" if token == "-h" else token.partition("=")[0]
    found = [flag for flag in flags if len(name) > 2 and flag.startswith(name)]
    if len(found) != 1:
        raise UsageError(f"{'ambiguous' if found else 'unrecognized'} flag {token!r}")
    return found[0]


def _parse(argv: list) -> SimpleNamespace:
    """The command line `argv` read against _TABLE, in order.

    The first token that does not begin with `-` names the command.  Every
    other token is a flag, named in full or by a unique prefix, or the value
    of the flag before it: a value follows as `--flag value` or
    `--flag=value`, and the next token is the value unless it begins with
    `--` and holds no space or may name a flag, so `--point -1,0` works.
    The last value given wins.  Any other token is a usage error.  -h prints
    the help of the command before it, or the list of commands, and exits 0,
    once the whole command line has been read without error.
    """
    command, flags, values, shown = None, _HELP, {}, ""
    tokens = iter(argv)
    for token in tokens:
        if command is None and token[:1] != "-":
            if token not in _TABLE:
                raise UsageError(f"unknown command {token!r}")
            command, flags = token, {**_TABLE[token][2], **_HELP}
            continue
        flag = _flag(token, flags)
        kind = flags[flag][0]
        _, eq, value = token.partition("=")
        if kind is bool:
            if eq:
                raise UsageError(f"{flag} takes no value")
            if flag == "--help":
                shown = shown or _help(command)
            value = True
        elif not eq:
            value = next(tokens, "--")
            if value[:2] == "--" and (" " not in value or any(
                    other.startswith(value.partition("=")[0]) for other in flags)):
                raise UsageError(f"{flag} expects a value")
        if isinstance(kind, tuple) and value not in kind:
            raise UsageError(f"{flag} expects one of {', '.join(kind)}, got {value!r}")
        try:
            values[flag] = int(value) if kind is int else value
        except ValueError:
            raise UsageError(f"{flag} expects an integer, got {value!r}")
    if shown:
        sys.stdout.write(shown)
        raise SystemExit(0)
    if command is None:
        raise UsageError("no command given")
    args = SimpleNamespace(command=command, **{
        "fmt" if flag == "--format" else flag[2:].replace("-", "_"):
            values.get(flag, False if kind is bool else None)
        for flag, (kind, _) in _TABLE[command][2].items()})
    if command == "cable" and args.cable is None:
        raise UsageError("cable needs --cable")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return _TABLE[args.command][0](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 4
    except LargenessError as exc:
        print(f"largeness error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
