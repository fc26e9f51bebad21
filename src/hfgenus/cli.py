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

Each handler builds one payload and hands it to `_emit`, which writes it as
JSON, as the "label: value" lines of --format ascii, or as the text it is,
and returns the exit code: 0 success, 2 validation failure, 3 largeness
failure, 4 usage.  `_usage` turns a ValueError of a layer into a usage error.

Each command imports only the layers it uses.  A link input loads linkcat
and laurent, and the JSON format linkjson only for --link; a table loads
hfunction; and beyond these:

    h-table       render, for --format ascii
    region        region and render, for --format svg; json and ascii
                  read both fields off one HTable.staircases call
    bounds        bounds
    cable         cable, region, and linkjson to print the cabled descriptor
    d-invariants  surgery, all that --lens and --circle-bundle load
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .errors import LargenessError, StabilizationError, UsageError, ValidationError


def _usage(fn, *args, why=None):
    """fn(*args), a ValueError it raises turned into a UsageError reading
    `why`, or else the error's own message."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(why or str(exc))


def _load_input(args):
    if bool(args.catalog) == bool(args.link):
        raise UsageError("exactly one of --catalog or --link is required")
    if args.link:
        from .linkjson import load_json
        try:
            return load_json(args.link)
        except OSError as exc:
            raise UsageError(f"cannot read {args.link}: {exc}")
    from .linkcat import catalog
    key, sep, raw = args.catalog.partition(":")
    params = [_usage(int, chunk, why=f"catalog parameter {chunk!r} is not an integer")
              for chunk in raw.split(",")] if sep else []
    return _usage(catalog, key, *params)


def _make_table(args):
    from .hfunction import HTable
    return HTable(_load_input(args), force=args.force)


def _emit(args, out, rows=None, code=0) -> int:
    """Write `out` to --out or stdout and return `code`: a string as it is,
    else under --format ascii a line "label: value" for the link's name and
    each item of `rows`, else `out` as JSON."""
    if rows and args.fmt == "ascii":
        out = "".join(f"{label}: {value}\n"
                      for label, value in {"link": out["name"], **rows}.items())
    elif not isinstance(out, str):
        import json
        out = json.dumps(out, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(out)
    return code


def _frac(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _ints(text: str, what: str) -> tuple:
    why = f"bad {what} {text!r}; expected comma-separated integers"
    return tuple(_usage(int, chunk, why=why) for chunk in text.split(","))


def _nested(table, fn, prefix=()):
    """fn over [-M, M]^n as nested lists, the first coordinate outermost."""
    if len(prefix) == table.n:
        return fn(prefix)
    return [_nested(table, fn, prefix + (s,)) for s in range(-table.M, table.M + 1)]


def _cmd_h_table(args) -> int:
    table = _make_table(args)
    if (args.fmt or ("ascii" if table.n <= 2 else "json")) == "json":
        return _emit(args, {"name": table.link.name, "window": table.M,
                            "origin": [-table.M] * table.n,
                            "h": _nested(table, table.h), "H": _nested(table, table.H)})
    if table.n > 2:
        raise UsageError("ascii grids need one or two components; use --format json")
    from .render import ascii_h_grid
    return _emit(args, ascii_h_grid(table, table.M) + "\n")


def _cmd_region(args) -> int:
    table = _make_table(args)
    generators, maximal = table.staircases()
    if args.fmt == "svg":
        if table.n != 2:
            raise UsageError("svg staircases need exactly two components")
        from .region import UpwardClosedRegion
        from .render import region_svg
        return _emit(args, region_svg(UpwardClosedRegion(2, generators), table.M, maximal))
    return _emit(args, {"name": table.link.name, "generators": generators,
                        "maximal_points": maximal},
                 {"generators": " ".join(map(str, generators)),
                  "maximal points": " ".join(map(str, maximal))})


def _cmd_bounds(args) -> int:
    from .bounds import best_lower_bound, unlink_test
    table = _make_table(args)
    report = best_lower_bound(table)
    unlink = unlink_test(table)
    rows = {key: "n/a" if value is None else value for key, value in report["bounds"].items()}
    rows["best lower bound"] = f"{report['best']} (via {report['via']})"
    if unlink:
        rows["h vanishes identically"] = "a slice L-space link with this data is the unlink"
    return _emit(args, {"name": table.link.name, **report, "unlink_consistent": unlink}, rows)


def _cmd_cable(args) -> int:
    from .cable import cable_consistency_check, parse_cable_spec
    from .linkjson import descriptor_to_dict
    d = _load_input(args)
    report = _usage(cable_consistency_check, d, parse_cable_spec(args.cable), args.force)
    cabled = report.pop("cabled")
    report["consistent"] = report.pop("equal")
    return _emit(args, {**report, "name": cabled.name,
                        "descriptor": descriptor_to_dict(cabled)})


def _cmd_d_invariants(args) -> int:
    from .surgery import circle_bundle_d, large_surgery_d
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
    # the lens space L(m, 1) is the circle bundle of Euler number -m over the sphere
    payload["values"] = [[k, _frac(_usage(circle_bundle_d, m, g, k))]
                         for k in range(-(m // 2), m // 2 + 1)]
    return _emit(args, payload)


def _cmd_validate(args) -> int:
    from .hfunction import HTable
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


def _cmd_catalog_list(args) -> int:
    from .linkcat import catalog_list
    return _emit(args, "".join(f"{e.key}:{e.params}\n" if e.params else f"{e.key}\n"
                               for e in catalog_list()))


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
    out = f"usage: hfgenus {command or 'COMMAND'} [FLAG ...]\n\n{text}\n\n"
    for flag, (kind, text) in {**flags, **_HELP}.items():
        if kind is not bool:
            flag += " " + ("INT" if kind is int else kind if isinstance(kind, str) else
                           "|".join(kind))
        out += f"  {flag:<26}  {text}\n"
    return out


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
        values[flag] = _usage(int, value, why=f"{flag} expects an integer, got "
                              f"{value!r}") if kind is int else value
    if shown:
        sys.stdout.write(shown)
        raise SystemExit(0)
    if command is None:
        raise UsageError("no command given")
    if command == "cable" and "--cable" not in values:
        raise UsageError("cable needs --cable")
    return SimpleNamespace(command=command, **{
        "fmt" if flag == "--format" else flag[2:].replace("-", "_"):
            values.get(flag, False if kind is bool else None)
        for flag, (kind, _) in _TABLE[command][2].items()})


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
