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
from oracles import WORKLOADS, tool

CODE_LINES = tool("code_lines")
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


def run_cli(*argv, code=0) -> set:
    return modules_added(f"from hfgenus.cli import main\nassert main({list(argv)!r}) == {code}")


def compiled_nodes(modules: set) -> int:
    """AST nodes over the hfgenus modules among `modules`, those one job
    loaded in a fresh interpreter: with no cached bytecode, what it compiles."""
    return sum(CODE_LINES.ast_nodes(CODE_LINES.module_path(m).read_text(encoding="utf-8"))
               for m in modules if m.split(".")[0] == "hfgenus")


# The five dense_two_bridge jobs, the bounds and d-invariants jobs on cables
# and both cable jobs, pinned at the nodes they compile (Python 3.11): with no
# cached bytecode a job compiles every module it loads, so a ceiling keeps
# code that a job does not run from growing back into those modules.
COMPILE_CEILINGS = [
    (("region", "--catalog", "two_bridge:20", "--format", "json"), 6104),
    (("bounds", "--catalog", "two_bridge:20", "--format", "ascii"), 6974),
    (("region", "--catalog", "two_bridge:25", "--format", "ascii"), 6104),
    (("h-table", "--catalog", "two_bridge:12", "--format", "ascii"), 7240),
    (("region", "--catalog", "two_bridge:12", "--format", "svg"), 7167),
    (("bounds", "--catalog", "whitehead_cable:7,22"), 8495),
    (("d-invariants", "--catalog", "whitehead_cable:5,16", "--framing", "400,400"), 8457),
    (("cable", "--catalog", "whitehead", "--cable", "7:22,1:1"), 8158),
    (("cable", "--catalog", "two_bridge:3", "--cable", "3:7,2:5"), 8158),
]


# the ids name the argv alone, so that lowering a ceiling renames no test
@pytest.mark.parametrize("argv, ceiling", COMPILE_CEILINGS,
                         ids=[" ".join(argv) for argv, _ in COMPILE_CEILINGS])
def test_a_catalog_job_compiles_at_most(argv, ceiling):
    assert compiled_nodes(run_cli(*argv)) <= ceiling


def test_a_link_file_job_compiles_at_most(tmp_path):
    # validate jobs on a saved descriptor and on the benchmark's two_bridge:15
    # with its pair sign flipped (exit 2), pinned as the catalog jobs are
    from hfgenus.linkcat import catalog
    from hfgenus.linkjson import save_json
    path = tmp_path / "two_bridge_10.json"
    save_json(catalog("two_bridge", 10), path)
    assert compiled_nodes(run_cli("validate", "--link", str(path))) <= 7232
    flipped = tmp_path / "two_bridge_15_flipped.json"
    WORKLOADS.write_input(WORKLOADS.flipped_two_bridge(15), flipped, None)
    assert compiled_nodes(run_cli("validate", "--link", str(flipped), code=2)) <= 7232


LIBRARY_JOB = ("import hfgenus.cli\n"
               "from hfgenus import bounds\n"
               "from hfgenus.hfunction import HTable\n"
               "from hfgenus.linkcat import catalog\n"
               "bounds.admissible_region(HTable(catalog('borromean')))")


def test_a_library_admissible_region_job_compiles_at_most():
    # the admissible_region workload imports the CLI, then calls the library
    added = modules_added(LIBRARY_JOB)
    assert not any(m.startswith("hfgenus.commands") for m in added)
    assert compiled_nodes(added) <= 7608


def test_importing_the_cli_loads_no_layer():
    added = modules_added("import hfgenus.cli")
    assert {"hfgenus", "hfgenus.cli", "hfgenus.errors"} <= added
    assert added <= {"hfgenus", "hfgenus.cli", "hfgenus.errors", "__future__"}


def test_region_loads_only_its_layers():
    # every format reads its fields off HTable.staircases; only svg renders
    for fmt in ("json", "ascii"):
        added = run_cli("region", "--catalog", "two_bridge:20", "--format", fmt)
        assert "hfgenus.hfunction" in added
        assert not added & {"hfgenus.region", "hfgenus.cable", "hfgenus.bounds",
                            "hfgenus.render", "dataclasses", "fractions"}
    added = run_cli("region", "--catalog", "whitehead", "--format", "svg")
    assert "hfgenus.render" in added
    assert not added & {"hfgenus.region", "hfgenus.cable", "hfgenus.bounds"}


@pytest.mark.parametrize("argv", [("d-invariants", "--lens", "5"),
                                  ("d-invariants", "--circle-bundle", "7:1")], ids=" ".join)
def test_closed_form_d_invariants_load_no_table(argv):
    added = run_cli(*argv)
    assert {m for m in added if m.startswith("hfgenus")} == {
        "hfgenus", "hfgenus.cli", "hfgenus.errors", "hfgenus.surgery",
        "hfgenus.commands", "hfgenus.commands.d_invariants"}


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
    # a link file loads the reader alone; cable output loads the writer alone
    from hfgenus.linkcat import catalog
    from hfgenus.linkjson import save_json
    path = tmp_path / "whitehead.json"
    save_json(catalog("whitehead"), path)
    added = run_cli("validate", "--link", str(path))
    assert "hfgenus.linkjson" in added
    assert "hfgenus.jsonwriter" not in added
    added = run_cli("cable", "--catalog", "whitehead", "--cable", "2:7,1:1")
    assert "hfgenus.jsonwriter" in added
    assert "hfgenus.linkjson" not in added


def makers_loaded(added: set) -> set:
    """The modules of catalog makers among `added`."""
    return {m for m in added if m.startswith("hfgenus.catalog_")}


FAMILIES = [
    (("region", "--catalog", "two_bridge:20"), {"two_bridge"}),
    (("region", "--catalog", "whitehead"), {"two_bridge"}),
    (("bounds", "--catalog", "whitehead_cable:7,22"), {"two_bridge", "cables"}),
    (("region", "--catalog", "borromean"), {"basic"}),
]


@pytest.mark.parametrize("argv, family", FAMILIES,
                         ids=[" ".join(argv) for argv, _ in FAMILIES])
def test_a_catalog_job_loads_only_its_familys_makers(argv, family):
    # a cable family builds on the two-bridge makers, and needs nothing else
    assert makers_loaded(run_cli(*argv)) == {f"hfgenus.catalog_{m}" for m in family}


def test_catalog_list_and_link_files_load_no_maker(tmp_path):
    from hfgenus.linkcat import catalog
    from hfgenus.linkjson import save_json
    path = tmp_path / "two_bridge_3.json"
    save_json(catalog("two_bridge", 3), path)
    for added in (run_cli("catalog-list"), run_cli("validate", "--link", str(path)),
                  modules_added("import hfgenus.linkcat")):
        assert not makers_loaded(added)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["region", "-h"],
                                  ["cable", "--catalog", "whitehead", "--he"]], ids=" ".join)
def test_only_a_help_command_line_loads_the_help_text(argv):
    # the other side, that no command without -h loads it, is
    # test_a_command_loads_no_other_commands_handler
    added = modules_added("from hfgenus.cli import main\ntry:\n"
                          f"    main({argv!r})\nexcept SystemExit as exc:\n"
                          "    assert exc.code == 0\nelse:\n"
                          "    raise AssertionError('no exit')")
    assert {m for m in added if m.startswith("hfgenus.commands.")} == {
        "hfgenus.commands.help"}


def test_bounds_loads_no_region():
    added = run_cli("bounds", "--catalog", "two_bridge:20")
    assert "hfgenus.bounds" in added
    assert "hfgenus.region" not in added


def test_linkcat_reads_the_json_names_from_linkjson():
    # the reader's three names from linkjson, the writer's from jsonwriter,
    # each importing its own module only
    added = modules_added("import hfgenus.linkcat")
    assert "hfgenus.linkcat" in added
    assert not added & {"hfgenus.linkjson", "hfgenus.jsonwriter"}
    from hfgenus import jsonwriter, linkcat, linkjson
    for name in ("descriptor_from_dict", "load_json", "save_json"):
        assert getattr(linkcat, name) is getattr(linkjson, name)
    assert linkcat.descriptor_to_dict is jsonwriter.descriptor_to_dict
    assert "hfgenus.jsonwriter" not in modules_added(
        "from hfgenus.linkcat import descriptor_from_dict, load_json, save_json")
    assert "hfgenus.linkjson" not in modules_added(
        "from hfgenus.linkcat import descriptor_to_dict")
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


@pytest.mark.parametrize("argv", [("h-table", "--catalog", "whitehead"),
                                  ("region", "--catalog", "whitehead"),
                                  ("bounds", "--catalog", "whitehead"),
                                  ("cable", "--catalog", "whitehead", "--cable", "2:7,1:1"),
                                  ("d-invariants", "--lens", "5"),
                                  ("validate", "--catalog", "whitehead"),
                                  ("catalog-list",)], ids=lambda argv: argv[0])
def test_a_command_loads_no_other_commands_handler(argv):
    from hfgenus.cli import _TABLE
    added = run_cli(*argv)
    assert {m for m in added if m.startswith("hfgenus.commands.")} == {
        f"hfgenus.commands.{_TABLE[argv[0]][0]}"}


def test_only_unions_load_linkops(tmp_path):
    # a projection check reads every sublink off the link's own table, so it
    # builds no sublink descriptor
    from hfgenus.linkcat import catalog
    from hfgenus.linkjson import save_json
    path = tmp_path / "whitehead.json"
    save_json(catalog("whitehead"), path)
    for argv in [("region", "--catalog", "two_bridge:3"),
                 ("region", "--catalog", "whitehead", "--format", "svg"),
                 ("validate", "--link", str(path)),
                 ("cable", "--catalog", "whitehead", "--cable", "2:7,1:1")]:
        assert "hfgenus.linkops" not in run_cli(*argv), argv
    assert "hfgenus.linkops" in run_cli("region", "--catalog", "unlink:2")
    assert "hfgenus.linkops" not in modules_added(
        "from hfgenus import catalog, projection_check, region_from_h, HTable\n"
        "t = HTable(catalog('whitehead'))\n"
        "assert projection_check(t, region_from_h(t)) == []")


def test_only_cables_and_printing_load_the_normalization_and_text_form():
    added = run_cli("bounds", "--catalog", "two_bridge:20")
    assert not added & {"hfgenus.symmetry", "hfgenus.polytext"}
    # a cable's polynomials are built centred and symmetric, so a valid
    # cable needs no normalization
    added = run_cli("cable", "--catalog", "whitehead", "--cable", "2:7,1:1")
    assert not added & {"hfgenus.symmetry", "hfgenus.polytext"}
    assert "hfgenus.polytext" in modules_added(
        "from hfgenus.linkcat import catalog\n"
        "assert str(catalog('trefoil_rh').delta((0,))) == 't - 1 + t^-1'")


def test_only_a_failing_table_loads_the_law_messages():
    assert "hfgenus.violations" not in run_cli("validate", "--catalog", "two_bridge:3")
    assert "hfgenus.violations" in modules_added(
        "from hfgenus import HTable, LinkDescriptor, Component\n"
        "from hfgenus.errors import StabilizationError\n"
        "from hfgenus.laurent import LaurentPoly\n"
        "knot = LaurentPoly.from_terms(1, [(-1, (1,)), (3, (0,)), (-1, (-1,))])\n"
        "try:\n"
        "    HTable(LinkDescriptor('bad', [Component('k')], {(0,): knot}), force=True)\n"
        "except StabilizationError as exc:\n"
        "    assert exc.problems\n"
        "else:\n"
        "    raise AssertionError('the table passed')")


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


TESTS = Path(__file__).resolve().parent


def imported_modules(path: Path) -> set:
    """The modules that a file's import statements load: a name imported
    from the `hfgenus` namespace counts as the layer it lives in."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names.add(module)
            if module == "hfgenus":
                names.update(f"hfgenus.{hfgenus._HOME.get(a.name, a.name)}" for a in node.names)
    return names


def test_no_test_module_imports_another_and_the_oracles_read_no_engine():
    # shared test code lives in tests/oracles.py, and its oracles read the
    # Alexander data, never the table, the regions or the bounds they check
    for path in sorted(TESTS.glob("test_*.py")):
        assert not {m for m in imported_modules(path) if m.startswith("test_")}, path.name
    oracles = imported_modules(TESTS / "oracles.py")
    assert "hfgenus.linkcat" in oracles
    assert not oracles & {"hfgenus.hfunction", "hfgenus.region", "hfgenus.bounds"}
