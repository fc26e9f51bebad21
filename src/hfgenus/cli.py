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
first token it cannot read is a usage error.  It imports nothing but the -h
text, `hfgenus.commands.help`, and that only for -h: the standard library's
parser, with the gettext and locale it loads and one parser per command,
cost each process 7.5 ms (median of 21 fresh processes on a 2-CPU Xeon VM,
Python 3.11).

Each command's handler is `run(args)` in its own module of
`hfgenus.commands`, which _TABLE names and `main` imports once the command
line has been read, so a job compiles no other command's code.  A handler
builds one payload and hands it to `_emit`, which writes it as JSON, as the
"label: value" lines of --format ascii, or as the text it is, and returns the
exit code: 0 success, 2 validation failure, 3 largeness failure, 4 usage.
`_usage` turns a ValueError of a layer into a usage error.

Each command imports only the layers it uses.  A link input loads linkcat
and laurent, and then the JSON reader linkjson for --link, or for --catalog
the catalog_<family> module that makes the key; a table loads
hfunction; and beyond these and its handler module:

    h-table       render, for --format ascii
    region        region and render, for --format svg; json and ascii
                  read both fields off one HTable.staircases call
    bounds        bounds
    cable         cable, region, and the JSON writer jsonwriter, not
                  linkjson, to print the cabled descriptor
    d-invariants  surgery, all that --lens and --circle-bundle load
    validate      nothing more
    catalog-list  linkcat and laurent, to list the catalog, and no maker
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .errors import LargenessError, UsageError, ValidationError


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
    if rows and args.format == "ascii":
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


_OUT = {"--out": ("PATH", "write output here instead of stdout")}
_LINK = {**_OUT,
         "--catalog": ("KEY[:p1,p2,...]", "built-in link (see catalog-list)"),
         "--link": ("FILE", "JSON descriptor file"),
         "--force": (bool, "proceed without the L-space assertion / largeness checks")}
_HELP = {"--help": (bool, "print this help and exit")}

# command: (its handler's module in hfgenus.commands, help, {flag: (kind,
# help)}), where a flag's kind is bool for a switch, the tuple of its choices,
# int, or the metavar of a string
_TABLE = {
    "h-table": ("h_table", "print h over the box",
                {**_LINK, "--format": (("json", "ascii"), "output format")}),
    "region": ("region", "generators and maximal points of the genus region",
               {**_LINK, "--format": (("json", "ascii", "svg"), "output format")}),
    "bounds": ("bounds", "4-genus lower bounds",
               {**_LINK, "--format": (("json", "ascii"), "output format")}),
    "cable": ("cable", "cable the link",
              {**_LINK, "--cable": ("p1:q1,p2:q2,...", "coprime pair per component (required)")}),
    "d-invariants": ("d_invariants",
                     "lens space, circle bundle, or large-surgery d-invariants", {
        **_LINK,
        "--lens": (int, "all d-invariants of the lens space of order INT"),
        "--circle-bundle": ("M:G", "d-invariants of the order-M circle bundle over genus G"),
        "--framing": ("q1,q2,...", "surgery coefficients (with --catalog/--link)"),
        "--point": ("v1,v2,...", "structure label, default all zeros")}),
    "validate": ("validate", "validate a descriptor and its H-function; exit 0 iff valid",
                 _LINK),
    "catalog-list": ("catalog_list", "list built-in links", _OUT),
}


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
            if flag == "--help" and not shown:
                from .commands.help import help_text
                shown = help_text(command)
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
        flag[2:].replace("-", "_"): values.get(flag, False if kind is bool else None)
        for flag, (kind, _) in _TABLE[command][2].items()})


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        from importlib import import_module
        return import_module(f"{__package__}.commands.{_TABLE[args.command][0]}").run(args)
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
    # under `python -m hfgenus.cli` this module is __main__; the handlers
    # import it as hfgenus.cli, which would compile and run it once more
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    sys.exit(main())
