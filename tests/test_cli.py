"""Command-line surface: outputs, determinism, exit codes."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from hfgenus.cli import main
from hfgenus.linkcat import catalog, descriptor_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_h_table_ascii_whitehead(capsys):
    code, out, _ = run(capsys, "h-table", "--catalog", "whitehead")
    assert code == 0
    assert "s1" in out and "s2" in out
    row0 = next(line for line in out.splitlines() if line.startswith("   0 |"))
    assert row0.split("|")[1].split() == ["0", "0", "0", "1", "0", "0", "0"]


def test_h_table_json_unknot(capsys):
    code, out, _ = run(capsys, "h-table", "--catalog", "unknot", "--format", "json")
    assert code == 0
    data = json.loads(out)
    window = data["window"]
    assert data["H"] == [max(0, -s) for s in range(-window, window + 1)]
    assert data["h"] == [0] * (2 * window + 1)


def test_h_table_json_three_components(capsys):
    code, out, _ = run(capsys, "h-table", "--catalog", "borromean")
    assert code == 0
    data = json.loads(out)
    M = data["window"]
    assert data["h"][M][M][M] == 1  # h at the origin


def test_region_json(capsys):
    code, out, _ = run(capsys, "region", "--catalog", "two_bridge:3")
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == [[i, 3 - i] for i in range(4)]
    assert data["maximal_points"] == [[0, 2], [1, 1], [2, 0]]


def test_region_svg(capsys, tmp_path):
    out_path = tmp_path / "stairs.svg"
    code, _, _ = run(capsys, "region", "--catalog", "whitehead",
                     "--format", "svg", "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.startswith("<svg") and "polyline" in svg and svg.rstrip().endswith("</svg>")


def test_region_svg_needs_two_components(capsys):
    code, _, err = run(capsys, "region", "--catalog", "borromean", "--format", "svg")
    assert code == 4 and "two components" in err


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--catalog", "two_bridge:4")
    assert code == 0
    data = json.loads(out)
    assert data["best"] == 4 and data["via"] == "min_generator_sum"


def test_bounds_unlink(capsys):
    code, out, _ = run(capsys, "bounds", "--catalog", "unlink:3")
    data = json.loads(out)
    assert code == 0 and data["best"] == 0 and data["unlink_consistent"]


def test_cable_command(capsys):
    code, out, _ = run(capsys, "cable", "--catalog", "unknot", "--cable", "2:3")
    assert code == 0
    data = json.loads(out)
    assert data["consistent"] and data["direct_generators"] == [[1]]
    assert data["descriptor"]["components"][0]["g4"] == 1


def test_cable_command_whitehead(capsys):
    code, out, _ = run(capsys, "cable", "--catalog", "whitehead",
                       "--cable", "2:7,1:1")
    data = json.loads(out)
    assert code == 0 and data["consistent"]
    assert data["direct_generators"] == [[3, 1], [5, 0]]


def test_d_invariants_lens(capsys):
    code, out, _ = run(capsys, "d-invariants", "--lens", "5")
    data = json.loads(out)
    assert code == 0
    assert data["values"] == [[-2, "1/5"], [-1, "-1/5"], [0, "-1/1"],
                              [1, "-1/5"], [2, "1/5"]]


def test_d_invariants_circle_bundle(capsys):
    code, out, _ = run(capsys, "d-invariants", "--circle-bundle", "12:2")
    data = json.loads(out)
    assert code == 0 and len(data["values"]) == 13


def test_d_invariants_surgery(capsys):
    code, out, _ = run(capsys, "d-invariants", "--catalog", "whitehead",
                       "--framing", "50,50", "--point", "0,0")
    data = json.loads(out)
    assert code == 0 and data["d"] == "45/2"


def test_d_invariants_largeness_exit(capsys):
    code, _, err = run(capsys, "d-invariants", "--catalog", "unknot",
                       "--framing", "3")
    assert code == 3 and "largeness" in err.lower()


def test_validate_catalog_ok(capsys):
    code, out, _ = run(capsys, "validate", "--catalog", "borromean")
    assert code == 0 and out.startswith("valid:")


def test_validate_corrupt_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, out, _ = run(capsys, "validate", "--link", str(path))
    assert code == 2 and "parse error" in out


def test_validate_flipped_sign_hint(capsys, tmp_path):
    data = descriptor_to_dict(catalog("whitehead"))
    for term in data["alexander"]["1,2"]:
        term["coef"] = -term["coef"]
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", "--link", str(path))
    assert code == 2
    assert "flipped sign" in out and "(1, 2)" in out


def test_validate_flags_a_flipped_sign_in_a_table_failing_the_laws(capsys, tmp_path):
    # the whitehead sign is flipped back, then the bad knot breaks the laws:
    # every law problem is printed, then the hint for the flipped sign
    from hfgenus.linkcat import disjoint_union
    from test_hfunction import (bad_knot, flipped_whitehead, reference_law_problems,
                                reference_sign_resolution)
    d = disjoint_union(flipped_whitehead(), bad_knot())
    path = tmp_path / "flipped-and-bad.json"
    path.write_text(json.dumps(descriptor_to_dict(d)))
    code, out, _ = run(capsys, "validate", "--force", "--link", str(path))
    tables, signs = reference_sign_resolution(d)
    problems = list(reference_law_problems(tables, tuple(range(d.n)), signs))
    assert code == 2 and len(problems) == 98
    assert out.splitlines() == [f"invalid: {p}" for p in problems] + [
        "invalid: stored polynomial sign for subset (1, 2) is inconsistent: only the "
        "flipped sign yields a valid H-function (hint: negate that polynomial)"]


def test_invalid_h_exits_2_on_every_table_command(capsys, tmp_path):
    # Delta = -t + 3 - 1/t: a valid descriptor whose h(0) = -1
    data = descriptor_to_dict(catalog("trefoil_rh"))
    for term in data["alexander"]["1"]:
        term["coef"] = 3 if term["exp"] == ["0"] else -term["coef"]
    path = tmp_path / "bad-knot.json"
    path.write_text(json.dumps(data))
    for command in (["h-table"], ["region"], ["bounds"],
                    ["d-invariants", "--framing", "100"]):
        code, out, err = run(capsys, *command, "--link", str(path))
        assert code == 2 and out == "", command
        assert err.startswith("validation error:") and "H(0,) = -1" in err, command
    code, out, _ = run(capsys, "validate", "--link", str(path))
    assert code == 2 and "H(0,) = -1 is negative" in out


def test_exit_code_usage(capsys):
    code, _, err = run(capsys, "h-table", "--catalog", "nosuch")
    assert code == 4
    code, _, _ = run(capsys, "h-table", "--catalog", "whitehead",
                     "--link", "x.json")
    assert code == 4
    code, _, _ = run(capsys, "h-table", "--catalog", "two_bridge:1,2")
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["cable", "--catalog", "unlink:2", "--cable", "2:7"],
    ["cable", "--catalog", "whitehead", "--cable", "2:3"],
    ["d-invariants", "--circle-bundle", "5:-1"],
    ["d-invariants", "--circle-bundle", "0:1"],
    ["d-invariants", "--circle-bundle", "-3:1"],
    ["d-invariants", "--catalog", "whitehead", "--framing", "50,50,50"],
    ["d-invariants", "--catalog", "whitehead", "--framing", "50,50", "--point", "30,0"],
    ["d-invariants", "--catalog", "whitehead", "--framing", "0,50", "--force"],
    ["d-invariants", "--lens", "-3"],
    ["d-invariants", "--lens", "0"],
    ["d-invariants", "--lens", "5", "--framing", "9,9"],
    ["d-invariants", "--circle-bundle", "12:2", "--point", "1,1"],
    ["region", "--catalog", "whitehead", "--out", "/nonexistent/x.json"],
    ["h-table", "--catalog", "whitehead", "--box", "3"],
    ["region", "--catalog", "whitehead_cable:2"],
    ["region", "--catalog", "whitehead:3"],
    # flags a command does not read
    ["bounds", "--catalog", "whitehead", "--format", "svg"],
    ["h-table", "--catalog", "whitehead", "--format", "svg"],
    ["validate", "--catalog", "whitehead", "--format", "json"],
    ["cable", "--catalog", "whitehead", "--cable", "2:7,1:1", "--format", "ascii"],
    ["d-invariants", "--lens", "5", "--format", "json"],
    ["d-invariants", "--lens", "5", "--force"],
    ["catalog-list", "--catalog", "whitehead"],
    ["catalog-list", "--force"],
], ids=" ".join)
def test_bad_arguments_exit_with_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert "usage error:" in err


def accepted_flags():
    """(command, flag) for every option the parser accepts, help aside, with
    the choices of each --format."""
    import argparse
    from hfgenus.cli import _build_parser
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return {(name, flag): action.choices
            for name, cmd in commands.items() for action in cmd._actions
            for flag in action.option_strings if flag not in ("-h", "--help")}


LINK_INPUT_EXTRAS = {
    "h-table": [], "region": [], "bounds": [], "validate": [],
    "cable": ["--cable", "2:7,1:1"],
    "d-invariants": ["--framing", "50,50"],
}

# (command, flag): an argv without the flag and the same argv with it
FLAG_CASES = {
    **{(c, flag): pair for c, e in LINK_INPUT_EXTRAS.items() for flag, pair in {
        "--catalog": ([c, *e], [c, "--catalog", "whitehead", *e]),
        "--link": ([c, *e], [c, "--link", "{link}", *e]),
        "--force": ([c, "--link", "{unasserted}", *e],
                    [c, "--link", "{unasserted}", "--force", *e]),
        "--out": ([c, "--catalog", "whitehead", *e],
                  [c, "--catalog", "whitehead", "--out", "{out}", *e]),
    }.items()},
    ("catalog-list", "--out"): (["catalog-list"], ["catalog-list", "--out", "{out}"]),
    ("cable", "--cable"): (["cable", "--catalog", "whitehead"],
                           ["cable", "--catalog", "whitehead", "--cable", "2:7,1:1"]),
    ("d-invariants", "--lens"): (["d-invariants"], ["d-invariants", "--lens", "5"]),
    ("d-invariants", "--circle-bundle"): (["d-invariants"],
                                          ["d-invariants", "--circle-bundle", "7:1"]),
    ("d-invariants", "--framing"): (["d-invariants", "--catalog", "whitehead"],
                                    ["d-invariants", "--catalog", "whitehead",
                                     "--framing", "50,50"]),
    ("d-invariants", "--point"): (["d-invariants", "--catalog", "whitehead",
                                   "--framing", "50,50"],
                                  ["d-invariants", "--catalog", "whitehead",
                                   "--framing", "50,50", "--point", "1,0"]),
}

FORMAT_COMMANDS = ["h-table", "region", "bounds"]


def outcome(capsys, tmp_path, argv):
    """Exit code, stdout and the --out file's text (None if none) of one run,
    with {link}, {unasserted} and {out} standing for files under tmp_path."""
    data = descriptor_to_dict(catalog("whitehead"))
    (tmp_path / "link.json").write_text(json.dumps(data))
    (tmp_path / "unasserted.json").write_text(json.dumps({**data, "lspace": False}))
    out_file = tmp_path / "out.txt"
    out_file.unlink(missing_ok=True)
    code, out, _ = run(capsys, *(a.format(link=tmp_path / "link.json",
                                          unasserted=tmp_path / "unasserted.json",
                                          out=out_file) for a in argv))
    return code, out, out_file.read_text() if out_file.exists() else None


def test_every_accepted_flag_is_exercised():
    flags = accepted_flags()
    assert set(flags) == set(FLAG_CASES) | {(c, "--format") for c in FORMAT_COMMANDS}
    assert {c: flags[c, "--format"] for c in FORMAT_COMMANDS} == {
        "h-table": ("json", "ascii"), "region": ("json", "ascii", "svg"),
        "bounds": ("json", "ascii")}


@pytest.mark.parametrize("case", sorted(FLAG_CASES), ids=" ".join)
def test_every_flag_changes_the_outcome(capsys, tmp_path, case):
    without, with_flag = (outcome(capsys, tmp_path, argv) for argv in FLAG_CASES[case])
    assert without != with_flag and with_flag[0] == 0


@pytest.mark.parametrize("command", FORMAT_COMMANDS)
def test_every_format_gives_its_own_output(capsys, tmp_path, command):
    outputs = []
    for fmt in accepted_flags()[command, "--format"]:
        code, out, _ = outcome(capsys, tmp_path, [command, "--catalog", "whitehead",
                                                  "--format", fmt])
        assert code == 0, fmt
        outputs.append(out)
    assert len(set(outputs)) == len(outputs)


def test_cable_of_a_union(capsys):
    code, out, _ = run(capsys, "cable", "--catalog", "unlink:2", "--cable", "2:7,1:1")
    assert code == 0
    data = json.loads(out)
    assert data["consistent"] is True
    assert data["direct_generators"] == [[3, 0]]


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog-list")
    assert code == 0
    assert "two_bridge:k" in out.split() and "whitehead" in out.split()


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "region", "--catalog", "mirror_L7a3")
    _, out2, _ = run(capsys, "region", "--catalog", "mirror_L7a3")
    assert out1 == out2
    _, svg1, _ = run(capsys, "region", "--catalog", "whitehead", "--format", "svg")
    _, svg2, _ = run(capsys, "region", "--catalog", "whitehead", "--format", "svg")
    assert svg1 == svg2


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "region.json"
    code, out, _ = run(capsys, "region", "--catalog", "whitehead",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["generators"] == [[0, 1], [1, 0]]


def test_h_table_ascii_unknot_row(capsys):
    code, out, _ = run(capsys, "h-table", "--catalog", "unknot")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split(":")[1].split() == ["0", "0", "0", "0", "0"]
    assert lines[2].split(":")[1].split() == ["2", "1", "0", "0", "0"]


def test_region_ascii_format(capsys):
    code, out, _ = run(capsys, "region", "--catalog", "whitehead",
                       "--format", "ascii")
    assert code == 0
    assert "generators: (0, 1) (1, 0)" in out
    assert "maximal points: (0, 0)" in out


def test_h_table_ascii_rejected_for_three_components(capsys):
    code, _, err = run(capsys, "h-table", "--catalog", "borromean",
                       "--format", "ascii")
    assert code == 4 and "two components" in err


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EXPECTED = PERFBENCH / "expected"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


JOB = _load("job")              # perfbench/job.py, run in process
WORKLOADS = _load("workloads")  # its generated inputs


# The benchmark's jobs on catalog links, by the name of the file in
# perfbench/expected/ that holds their stdout: `job.py cli ARG...` ...
BENCHMARK_JOBS = {
    "region_tb20_json": ["region", "--catalog", "two_bridge:20", "--format", "json"],
    "region_tb20_ascii": ["region", "--catalog", "two_bridge:20", "--format", "ascii"],
    "bounds_tb20_json": ["bounds", "--catalog", "two_bridge:20", "--format", "json"],
    "bounds_tb20_ascii": ["bounds", "--catalog", "two_bridge:20", "--format", "ascii"],
    "region_tb25_json": ["region", "--catalog", "two_bridge:25", "--format", "json"],
    "region_tb25_ascii": ["region", "--catalog", "two_bridge:25", "--format", "ascii"],
    "h_table_tb12_ascii": ["h-table", "--catalog", "two_bridge:12", "--format", "ascii"],
    "region_tb12_svg": ["region", "--catalog", "two_bridge:12", "--format", "svg"],
    "cable_whitehead_7_22_1_1": ["cable", "--catalog", "whitehead", "--cable", "7:22,1:1"],
    "cable_whitehead_1_1_7_22": ["cable", "--catalog", "whitehead", "--cable", "1:1,7:22"],
    "bounds_whitehead_cable_7_22": ["bounds", "--catalog", "whitehead_cable:7,22"],
    "bounds_two_bridge_cable_1_1_1_7_22": ["bounds", "--catalog",
                                           "two_bridge_cable:1,1,1,7,22"],
    **{f"d_invariants_whitehead_cable_5_16_{q}": [
        "d-invariants", "--catalog", "whitehead_cable:5,16", "--framing", f"{q},{q}"]
       for q in (400, 401, 402)},
    "cable_two_bridge_3_3_7_2_5": ["cable", "--catalog", "two_bridge:3", "--cable", "3:7,2:5"],
}

# ... and `job.py lib KEY [CABLE]`, one JSON line of admissible generators.
BENCHMARK_LIB_JOBS = {
    "admissible_tb12": ["two_bridge:12"],
    "admissible_whitehead_cable_5_16": ["whitehead_cable:5,16"],
    "admissible_borromean": ["borromean"],
    "admissible_mirror_L7a3": ["mirror_L7a3"],
    "admissible_borromean_cable_2_7_2_7_1_1": ["borromean", "2:7,2:7,1:1"],
}

# ... and `job.py cli validate --link FILE` on generated descriptors, which exit 2.
BENCHMARK_VALIDATE_JOBS = {
    "validate_flipped_tb15": lambda: WORKLOADS.flipped_two_bridge(15),
    **{f"validate_corrupt_tb10_{i}": lambda exp=exp: WORKLOADS.corrupted_two_bridge(10, exp)
       for i, exp in enumerate(WORKLOADS.CORRUPT_AT)},
}


@pytest.mark.parametrize("name", sorted({**BENCHMARK_JOBS, **BENCHMARK_LIB_JOBS,
                                         **BENCHMARK_VALIDATE_JOBS}))
def test_benchmark_outputs_are_byte_identical(capsys, tmp_path, name):
    want = 0
    if name in BENCHMARK_JOBS:
        argv = ["cli", *BENCHMARK_JOBS[name]]
    elif name in BENCHMARK_LIB_JOBS:
        argv = ["lib", *BENCHMARK_LIB_JOBS[name]]
    else:
        path = str(tmp_path / "input.json")
        WORKLOADS.write_input(BENCHMARK_VALIDATE_JOBS[name](), path, None)
        argv, want = ["cli", "validate", "--link", path], 2
    code = JOB.main(argv)
    out = capsys.readouterr().out
    assert code == want
    assert out.encode("utf-8") == (EXPECTED / f"{name}.out").read_bytes()


def test_cable_computes_the_cable_once(capsys, monkeypatch):
    from hfgenus import cable
    calls = []

    def counted(d, spec):
        calls.append(spec)
        return real(d, spec)

    real = cable.cable_alexander
    monkeypatch.setattr(cable, "cable_alexander", counted)
    code, out, _ = run(capsys, "cable", "--catalog", "whitehead", "--cable", "2:7,1:1")
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["descriptor"] == descriptor_to_dict(
        real(catalog("whitehead"), calls[0]))


def test_validate_link_validates_the_descriptor_twice(capsys, monkeypatch, tmp_path):
    # once in load_json, once in HTable; the CLI adds no third check
    from hfgenus import linkcat
    calls = []
    real = linkcat.validate_descriptor
    monkeypatch.setattr(linkcat, "validate_descriptor", lambda d: calls.append(d) or real(d))
    path = tmp_path / "tb.json"
    path.write_text(json.dumps(descriptor_to_dict(catalog("two_bridge", 3))))
    code, out, _ = run(capsys, "validate", "--link", str(path))
    assert code == 0 and out == "valid: two_bridge(3)\n"
    assert len(calls) == 2
