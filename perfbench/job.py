"""One benchmark job, run in a fresh process by run.py.

    python3 perfbench/job.py [--trace OUT.json] cli ARG...
    python3 perfbench/job.py [--trace OUT.json] lib KEY[:p,...] [p:q,...]
    python3 perfbench/job.py setup RECIPES.json

`cli` runs `hfgenus.cli.main(ARG...)`, as the `hfgenus` console script does.
`lib` prints the generators of `admissible_region(HTable(d))` for a catalog
link, cabled first when a cable spec is given.  `setup` imports hfgenus and
builds or loads every descriptor a workload uses, and nothing else.  With
`--trace`, the layer modules are wrapped before the job starts and the spans
and counts are written to OUT.json when it ends.
"""

from __future__ import annotations

import functools
import json
import sys


def _descriptor(key: str, cable_text: str = ""):
    from hfgenus import cable, linkcat
    name, _, raw = key.partition(":")
    params = [int(x) for x in raw.split(",")] if raw else []
    d = linkcat.catalog(name, *params)
    if cable_text:
        d = cable.cable_alexander(d, cable.parse_cable_spec(cable_text))
    return d


def _lib(key: str, cable_text: str = "") -> int:
    from hfgenus import bounds, hfunction
    region = bounds.admissible_region(hfunction.HTable(_descriptor(key, cable_text)))
    print(json.dumps({"link": key, "cable": cable_text or None,
                      "admissible_generators": [list(g) for g in region.generators]},
                     sort_keys=True))
    return 0


def _setup(path: str) -> int:
    from hfgenus import linkcat
    with open(path, encoding="utf-8") as fh:
        recipes = json.load(fh)
    for recipe in recipes:
        if "json" in recipe:
            linkcat.load_json(recipe["json"])
        else:
            _descriptor(recipe["catalog"], recipe.get("cable", ""))
    return 0


def main(argv: list) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    kind, args = argv[0], argv[1:]
    if kind == "setup":
        return _setup(*args)
    tracer = None
    if trace_out:
        from tracing import Tracer  # perfbench/tracing.py, beside this file
        tracer = Tracer()
        tracer.install()
    from hfgenus import cli
    try:
        if kind == "cli":
            run = functools.partial(cli.main, args)   # the wrapped main, if traced
        elif kind == "lib":
            run = functools.partial(_lib, *args)
        else:
            raise SystemExit(f"unknown job kind {kind!r}")
        if tracer is None:
            return run()
        return tracer.span("job.entry", run)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.write(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
