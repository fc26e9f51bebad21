"""What each job imports, and the lazy package namespace.

Every CLI call is a fresh process, so the modules a command imports are part
of its cost.  The checks compare module sets, not timings: each runs in a
fresh interpreter and takes the difference from that interpreter's own
sys.modules at start.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hfgenus

SRC = str(Path(hfgenus.__file__).resolve().parents[1])


def modules_added(code: str) -> set:
    """Modules that running `code` adds to a fresh interpreter's sys.modules."""
    script = ("import sys\n_base = set(sys.modules)\n" + code +
              "\nprint('ADDED', sorted(set(sys.modules) - _base))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=SRC,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("ADDED "), proc.stdout
    return set(ast.literal_eval(last[len("ADDED "):]))


def run_cli(*argv) -> set:
    return modules_added(f"from hfgenus.cli import main\nassert main({list(argv)!r}) == 0")


def compiled_nodes(*argv) -> int:
    """AST nodes over the hfgenus modules that one command loads in a fresh
    interpreter: with no cached bytecode, what the job compiles."""
    package = Path(hfgenus.__file__).parent
    total = 0
    for module in run_cli(*argv):
        if module.split(".")[0] == "hfgenus":
            path = package / f"{module.partition('.')[2] or '__init__'}.py"
            total += sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    return total


# The five dense_two_bridge jobs and the bounds and d-invariants jobs on
# cables, pinned at the nodes they compile (Python 3.11).  While the JSON
# format sat in linkcat, the cable algebra in laurent and the d-invariants in
# bounds, with bounds loading region, these read 11667, 13778, 11667, 12724,
# 13329, 15013 and 14408.
COMPILE_CEILINGS = [
    (("region", "--catalog", "two_bridge:20", "--format", "json"), 10245),
    (("bounds", "--catalog", "two_bridge:20", "--format", "ascii"), 11293),
    (("region", "--catalog", "two_bridge:25", "--format", "ascii"), 10245),
    (("h-table", "--catalog", "two_bridge:12", "--format", "ascii"), 11302),
    (("region", "--catalog", "two_bridge:12", "--format", "svg"), 11907),
    (("bounds", "--catalog", "whitehead_cable:7,22"), 12716),
    (("d-invariants", "--catalog", "whitehead_cable:5,16", "--framing", "400,400"), 12138),
]


@pytest.mark.parametrize("argv, ceiling", COMPILE_CEILINGS, ids=lambda x: (
    " ".join(x) if isinstance(x, tuple) else str(x)))
def test_a_catalog_job_compiles_at_most(argv, ceiling):
    assert compiled_nodes(*argv) <= ceiling


def test_importing_the_cli_loads_no_layer():
    added = modules_added("import hfgenus.cli")
    assert {"hfgenus", "hfgenus.cli", "hfgenus.errors"} <= added
    assert added <= {"hfgenus", "hfgenus.cli", "hfgenus.errors", "__future__"}


def test_region_loads_only_its_layers():
    # json and ascii read their fields off HTable.staircases; only svg draws
    # an UpwardClosedRegion
    for fmt in ("json", "ascii"):
        added = run_cli("region", "--catalog", "two_bridge:20", "--format", fmt)
        assert "hfgenus.hfunction" in added
        assert not added & {"hfgenus.region", "hfgenus.cable", "hfgenus.bounds",
                            "hfgenus.render", "dataclasses", "fractions"}
    assert "hfgenus.region" in run_cli("region", "--catalog", "whitehead", "--format", "svg")


@pytest.mark.parametrize("argv", [("d-invariants", "--lens", "5"),
                                  ("d-invariants", "--circle-bundle", "7:1")], ids=" ".join)
def test_closed_form_d_invariants_load_no_table(argv):
    added = run_cli(*argv)
    assert {m for m in added if m.startswith("hfgenus")} == {
        "hfgenus", "hfgenus.cli", "hfgenus.errors", "hfgenus.surgery"}


@pytest.mark.parametrize("argv", [
    ("region", "--catalog", "whitehead"),
    ("bounds", "--catalog", "whitehead"),
    ("h-table", "--catalog", "whitehead", "--format", "ascii"),
], ids=" ".join)
def test_a_catalog_input_loads_no_json_format(argv):
    assert "hfgenus.linkjson" not in run_cli(*argv)


def test_d_invariants_of_a_link_load_no_bounds_nor_json_format():
    added = run_cli("d-invariants", "--catalog", "whitehead", "--framing", "50,50")
    assert "hfgenus.surgery" in added
    assert not added & {"hfgenus.bounds", "hfgenus.linkjson"}


def test_link_files_and_cable_output_load_the_json_format(tmp_path):
    from hfgenus.linkcat import catalog
    from hfgenus.linkjson import save_json
    path = tmp_path / "whitehead.json"
    save_json(catalog("whitehead"), path)
    assert "hfgenus.linkjson" in run_cli("validate", "--link", str(path))
    assert "hfgenus.linkjson" in run_cli("cable", "--catalog", "whitehead",
                                         "--cable", "2:7,1:1")


def test_bounds_loads_no_region():
    added = run_cli("bounds", "--catalog", "two_bridge:20")
    assert "hfgenus.bounds" in added
    assert "hfgenus.region" not in added


def test_linkcat_reads_the_json_names_from_linkjson():
    added = modules_added("import hfgenus.linkcat")
    assert "hfgenus.linkcat" in added
    assert "hfgenus.linkjson" not in added
    from hfgenus import linkcat, linkjson
    for name in ("descriptor_from_dict", "descriptor_to_dict", "load_json", "save_json"):
        assert getattr(linkcat, name) is getattr(linkjson, name)
    with pytest.raises(AttributeError, match="'nope'"):
        linkcat.nope


def test_an_ascii_h_table_loads_no_region():
    added = run_cli("h-table", "--catalog", "two_bridge:12", "--format", "ascii")
    assert "hfgenus.render" in added
    assert "hfgenus.region" not in added


def test_validate_does_not_load_region():
    added = run_cli("validate", "--catalog", "whitehead")
    assert "hfgenus.hfunction" in added
    assert not added & {"hfgenus.region", "hfgenus.bounds", "hfgenus.cable",
                        "hfgenus.render"}


def test_building_a_cable_descriptor_loads_no_table():
    added = modules_added(
        "from hfgenus.cable import CableSpec, cable_alexander\n"
        "from hfgenus.linkcat import catalog\n"
        "cable_alexander(catalog('whitehead'), CableSpec(((2, 7), (1, 1))))")
    assert "hfgenus.cable" in added
    assert not added & {"hfgenus.hfunction", "hfgenus.region"}


COMMANDS = [
    ("h-table", "--catalog", "whitehead"),
    ("h-table", "--catalog", "whitehead", "--format", "json"),
    ("region", "--catalog", "whitehead", "--format", "svg"),
    ("bounds", "--catalog", "whitehead"),
    ("cable", "--catalog", "whitehead", "--cable", "2:7,1:1"),
    ("d-invariants", "--lens", "5"),
    ("d-invariants", "--circle-bundle", "7:1"),
    ("d-invariants", "--catalog", "whitehead", "--framing", "50,50"),
    ("catalog-list",),
]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_no_command_loads_dataclasses(argv):
    assert "dataclasses" not in run_cli(*argv)


def test_no_command_loads_argparse():
    # the command line is read from a table: argparse, and the gettext and
    # locale it loads, cost every fresh process several milliseconds
    added = modules_added("from hfgenus.cli import main\n" + "".join(
        f"assert main({list(argv)!r}) == 0\n" for argv in COMMANDS))
    assert not added & {"argparse", "gettext", "locale"}


def test_namespace_names_resolve_to_their_modules():
    import importlib
    for module, names in hfgenus._EXPORTS.items():
        layer = importlib.import_module(f"hfgenus.{module}")
        for name in names:
            assert getattr(hfgenus, name) is getattr(layer, name)
    assert len(set(hfgenus.__all__)) == len(hfgenus.__all__)


def test_namespace_dir_and_star_import():
    assert set(dir(hfgenus)) >= set(hfgenus.__all__)
    namespace: dict = {}
    exec("from hfgenus import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hfgenus.__all__)


def test_namespace_unknown_name_raises():
    with pytest.raises(AttributeError, match="'nope'"):
        hfgenus.nope
    assert not hasattr(hfgenus, "nope")


def test_namespace_submodule_import_still_works():
    from hfgenus import cli
    assert callable(cli.main)
