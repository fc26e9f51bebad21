"""Command-line surface: outputs, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfgenus.cli import _TABLE, _parse, main
from hfgenus.errors import UsageError
from hfgenus.jsonwriter import descriptor_to_dict
from hfgenus.linkcat import catalog
from hfgenus.linkops import disjoint_union
from oracles import (PERFBENCH, WORKLOADS, bad_knot, flipped_whitehead, perfbench,
                     reference_report, reference_sign_resolution, torres_breaking)


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


def test_d_invariants_small_circle_bundle_warns_in_one_line(capsys):
    code, out, err = run(capsys, "d-invariants", "--circle-bundle", "3:1")
    assert code == 0
    assert json.loads(out)["values"] == [[-1, "-5/6"], [0, "1/2"], [1, "-5/6"]]
    assert err == "warning: circle_bundle_d: m=3 may not be large enough for g=1\n"
    assert run(capsys, "d-invariants", "--circle-bundle", "12:2")[2] == ""


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


def test_validate_refuses_a_triple_breaking_torres(capsys, tmp_path):
    # it passes the step law with the triple's sign flipped, and only the
    # shell law rejects it
    path = tmp_path / "torres-breaking.json"
    path.write_text(json.dumps(descriptor_to_dict(torres_breaking())))
    code, out, _ = run(capsys, "validate", "--link", str(path))
    assert (code, out) == (2, "invalid: torres-breaking: neither sign of the polynomial for "
                              "subset (1, 2, 3) yields a valid H-function; not an L-space "
                              "link with this data\n")


def test_validate_flags_a_flipped_sign_in_a_table_failing_the_laws(capsys, tmp_path):
    # the whitehead sign is flipped back, then the bad knot breaks the laws:
    # every law problem is printed, then the hint for the flipped sign
    d = disjoint_union(flipped_whitehead(), bad_knot())
    path = tmp_path / "flipped-and-bad.json"
    path.write_text(json.dumps(descriptor_to_dict(d)))
    code, out, _ = run(capsys, "validate", "--force", "--link", str(path))
    problems = reference_report(d, reference_sign_resolution(d))
    assert code == 2 and len(problems) == 98
    assert out.splitlines() == [f"invalid: {p}" for p in problems] + [
        "invalid: stored polynomial sign for subset (1, 2) is inconsistent: only the "
        "flipped sign yields a valid H-function (hint: negate that polynomial)"]


def test_a_link_file_g4_is_null_or_the_genus_of_its_knot(capsys, tmp_path):
    # a null "g4" leaves the genus to the data, so the weighted bound is
    # known; a "g4" that contradicts the knot polynomial exits 2, naming the
    # component
    data = descriptor_to_dict(catalog("whitehead"))
    for c in data["components"]:
        c["g4"] = None
    path = tmp_path / "whitehead-null-g4.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "bounds", "--link", str(path))
    assert code == 0
    assert json.loads(out)["bounds"] == {"component_weighted": 0, "max_h_excess": 0,
                                         "min_generator_sum": 1}
    data["components"][1]["g4"] = 1
    path.write_text(json.dumps(data))
    message = "whitehead: component 2 has 'g4' 1, but its knot polynomial has genus 0"
    code, out, err = run(capsys, "bounds", "--link", str(path))
    assert (code, out, err) == (2, "", f"validation error: {message}\n")
    code, out, _ = run(capsys, "validate", "--link", str(path))
    assert (code, out) == (2, f"invalid: {message}\n")


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
    """(command, flag) for every flag the table gives a command, help aside,
    with the choices of each --format (None for any other flag)."""
    return {(name, flag): kind if isinstance(kind, tuple) else None
            for name, (_, _, flags) in _TABLE.items() for flag, (kind, _) in flags.items()}


def reference_parser(exit_on_help=True):
    """The argparse parser (of Python 3.11) that read the command line
    before _TABLE did; with exit_on_help false, -h is a switch like any
    other."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = _Parser(prog="hfgenus",
                     description="H-functions, genus regions, 4-genus bounds, "
                                 "d-invariants and cables of L-space links",
                     add_help=exit_on_help)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, text, formats=(), link_input=True):
        cmd = sub.add_parser(name, help=text, add_help=exit_on_help)
        cmd.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        if link_input:
            cmd.add_argument("--catalog", metavar="KEY[:p1,p2,...]",
                             help="built-in link (see catalog-list)")
            cmd.add_argument("--link", metavar="FILE", help="JSON descriptor file")
            cmd.add_argument("--force", action="store_true",
                             help="proceed without the L-space assertion / largeness checks")
        if formats:
            cmd.add_argument("--format", choices=formats)
        return cmd

    command("h-table", "print h over the box", formats=("json", "ascii"))
    command("region", "generators and maximal points of the genus region",
            formats=("json", "ascii", "svg"))
    command("bounds", "4-genus lower bounds", formats=("json", "ascii"))

    cab = command("cable", "cable the link")
    cab.add_argument("--cable", required=True, metavar="p1:q1,p2:q2,...",
                     help="coprime pair per component")

    dinv = command("d-invariants",
                   "lens space, circle bundle, or large-surgery d-invariants")
    dinv.add_argument("--lens", type=int, metavar="M",
                      help="all d-invariants of the lens space of order M")
    dinv.add_argument("--circle-bundle", metavar="M:G",
                      help="d-invariants of the order-M circle bundle over genus G")
    dinv.add_argument("--framing", metavar="q1,q2,...",
                      help="surgery coefficients (with --catalog/--link)")
    dinv.add_argument("--point", metavar="v1,v2,...",
                      help="structure label, default all zeros")

    command("validate", "validate a descriptor and its H-function; exit 0 iff valid")
    command("catalog-list", "list built-in links", link_input=False)
    if not exit_on_help:
        for each in [parser, *sub.choices.values()]:
            each.add_argument("-h", "--help", action="store_true")
    return parser


REFERENCE, QUIET_REFERENCE = reference_parser(), reference_parser(exit_on_help=False)


def parsed(parse, argv):
    """What a parser makes of argv: the namespace as a dict, "help" for -h
    (exit 0) or "rejected" for a usage error."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(parse(argv))
    except SystemExit as exc:
        assert exc.code == 0
        return "help"
    except UsageError:
        return "rejected"


VALUE_FLAGS = ["--out", "--catalog", "--link", "--format", "--cable", "--lens",
               "--circle-bundle", "--framing", "--point"]
FLAGS = VALUE_FLAGS + ["--force", "--help"]
VALUES = ["whitehead", "two_bridge:3", "json", "ascii", "svg", "xml", "5", "-3", "x", "",
          "2:7,1:1", "7:1", "50,50", "1,0", "-1,0", "-x", "-h", "-", "--a b"]
NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")  # what argparse reads as a negative number


@st.composite
def command_lines(draw):
    """A command (or none, or not first), then flags, mostly the command's
    own, named in full or by a prefix of at least one letter, with a value
    after them or after `=`; values are choices, integers, non-integers,
    negative numbers, other values that begin with a single `-` and one that
    begins with `--` and holds a space; also stray values, unknown flags,
    repeats and -h."""
    command = draw(st.sampled_from(sorted(_TABLE)))
    own = [flag for (name, flag) in accepted_flags() if name == command]
    flag = st.builds(lambda f, n: f[:n], st.sampled_from(own) | st.sampled_from(FLAGS),
                     st.integers(3, 16))
    value = st.sampled_from(VALUES)
    item = st.one_of(st.tuples(st.sampled_from(own), value), st.tuples(flag, value),
                     st.tuples(flag), st.builds("{}={}".format, flag, value).map(lambda t: (t,)),
                     st.tuples(value), st.sampled_from([("-h",), ("--nope",), ("--nope=1",)]))
    argv = [token for tokens in draw(st.lists(item, max_size=4)) for token in tokens]
    if draw(st.integers(0, 5)):
        argv.insert(draw(st.integers(0, len(argv))) if draw(st.integers(0, 3)) == 0 else 0,
                    command)
    return argv


def single_dash_value(argv):
    """Whether a token that begins with a single `-`, is not a negative
    number and holds no space follows one that may name a flag taking a
    value: argparse read it as a flag, so the flag missed its value, and the
    table parser reads it as the value."""
    return any(len(prev) > 2 and "=" not in prev and any(f.startswith(prev) for f in VALUE_FLAGS)
               and token[:1] == "-" and token[1:2] not in ("", "-") and " " not in token
               and not NEGATIVE.match(token) for prev, token in zip(argv, argv[1:]))


@settings(max_examples=500, deadline=None)
@given(command_lines())
@example(["region", "--cat", "whitehead", "--form", "ascii"])
@example(["region", "--catalog=whitehead", "--format=json", "--format", "ascii"])
@example(["d-invariants", "--lens", "-3"])
@example(["d-invariants", "--framing", "--lens", "5"])
@example(["d-invariants", "--lens", "five"])
@example(["region", "--c", "whitehead"])
@example(["region", "--force=1", "--catalog", "whitehead"])
@example(["region", "--catalog", "whitehead", "--nope", "--help"])
@example(["region", "--help", "--f"])
@example(["region", "--help", "--", "--f"])
@example(["region", "--", "--help"])
@example(["--nope", "--help", "region"])
@example(["region", "-h", "--catalog", "whitehead", "--format", "xml"])
@example(["-h", "region", "--nope"])
@example(["-x", "-h"])
@example(["catalog-list", "--out", "--a b"])
@example(["catalog-list", "--out", "--o=--a b"])
@example(["catalog-list", "--out", "-"])
@example(["cable", "--catalog", "whitehead"])
@example(["cable", "--help"])
@example([])
def test_the_table_parser_agrees_with_argparse(argv):
    table, reference = parsed(_parse, argv), parsed(REFERENCE.parse_args, argv)
    if (table, reference) == ("rejected", "help"):
        # argparse printed help at the -h, before a later error and in spite
        # of an earlier unknown token; the table parser prints it only once
        # the whole argv has been read without error
        reference = parsed(QUIET_REFERENCE.parse_args, argv)
    assert table == reference or single_dash_value(argv), (table, reference)


def test_a_value_may_begin_with_a_single_dash(capsys):
    argv = ["d-invariants", "--catalog", "whitehead", "--framing", "50,50"]
    code, out, _ = run(capsys, *argv, "--point", "-1,0")
    assert code == 0 and json.loads(out)["d"] == "588/25"
    assert run(capsys, *argv, "--point=-1,0") == (code, out, "")


@pytest.mark.parametrize("command", [None, *_TABLE])
def test_help_lists_the_commands_or_the_flags(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "-h"] if command else ["--he"])
    out = capsys.readouterr().out
    assert exit_.value.code == 0
    names = _TABLE[command][2] if command else _TABLE
    assert [line.split()[0] for line in out.splitlines() if line[:2] == "  "] == [
        *names, "--help"]


def test_help_texts_are_pinned(capsys):
    # the sha256 of every -h text, the command list's first and then each
    # command's in _TABLE order: the flag table's help must not drift
    texts = []
    for command in [None, *_TABLE]:
        with pytest.raises(SystemExit):
            main([command, "-h"] if command else ["-h"])
        texts.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == \
        "c1c412e94565d44881ab6fccf6e53ede316f1ad6f854e519f7f4ed1951cbd9e3"


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


EXPECTED = PERFBENCH / "expected"
JOB = perfbench("job")  # perfbench/job.py, run in process


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


@pytest.mark.parametrize("fmt", ["json", "ascii", "svg"])
def test_region_computes_the_staircases_once(capsys, monkeypatch, fmt):
    from hfgenus.hfunction import HTable
    calls = []
    real = HTable.staircases
    monkeypatch.setattr(HTable, "staircases", lambda self: calls.append(self) or real(self))
    code, _, _ = run(capsys, "region", "--catalog", "two_bridge:20", "--format", fmt)
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("argv, checks", [
    (("validate", "--link", "{link}"), 1),
    (("cable", "--catalog", "whitehead", "--cable", "7:22,1:1"), 2),
    (("region", "--catalog", "two_bridge:20"), 1),
], ids=lambda x: " ".join(x) if isinstance(x, tuple) else str(x))
def test_a_job_checks_each_descriptor_once(capsys, monkeypatch, tmp_path, argv, checks):
    # a descriptor is checked where it is built, and nowhere else: the
    # validated file, or the link and its cable
    from hfgenus import linkcat
    path = tmp_path / "tb.json"
    path.write_text(json.dumps(descriptor_to_dict(catalog("two_bridge", 3))))
    calls = []
    real = linkcat._problems
    monkeypatch.setattr(linkcat, "_problems", lambda *a: calls.append(a) or real(*a))
    code, out, _ = run(capsys, *(str(path) if x == "{link}" else x for x in argv))
    assert code == 0 and len(calls) == checks
    if argv[0] == "validate":
        assert out == "valid: two_bridge(3)\n"


# (what is refused, argv with {dir} for a temporary directory, stderr)
REFUSALS = [
    ("unreadable link file", ["validate", "--link", "{dir}/none.json"],
     "usage error: cannot read {dir}/none.json: [Errno 2] No such file or directory: "
     "'{dir}/none.json'\n"),
    ("circle bundle without a genus", ["d-invariants", "--circle-bundle", "7"],
     "usage error: --circle-bundle expects M:G\n"),
]


@pytest.mark.parametrize("what, argv, err", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refusals(capsys, tmp_path, what, argv, err):
    code, out, got = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert (code, out, got) == (4, "", err.format(dir=tmp_path))
