"""The tools under tools/ do what their docstrings say."""

import ast
import json

from oracles import tool

code_lines = tool("code_lines")
bench_pairs = tool("bench_pairs")
mutants = tool("mutants")

SOURCE = '''"""Module docstring,
two lines."""

# a comment
def f(x):  # code with a trailing comment
    """Docstring."""
    "a string statement anywhere is a docstring"
    text = """data,
not a docstring"""
    return (x +
            1)
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    assert code_lines.code_lines(SOURCE) == 5


def test_code_lines_prints_every_module_and_the_sum(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")  # nodes: Module Assign Name Store Constant
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "code", "nodes", "total"], ["a.py", "5", "20", "11"],
                    ["b.py", "1", "5", "2"], ["sum", "6", "25", "13"]]


def test_code_lines_command_prints_the_modules_a_command_loads(capsys):
    assert code_lines.main(["--command", "d-invariants", "--lens", "5"]) == 0
    header, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "nodes", "unused"]
    assert [m for m, _, _ in rows] == ["hfgenus", "hfgenus.cli", "hfgenus.commands",
                                       "hfgenus.commands.d_invariants", "hfgenus.errors",
                                       "hfgenus.surgery"]
    for module, nodes, unused in rows:
        source = code_lines.module_path(module).read_text(encoding="utf-8")
        assert int(nodes) == code_lines.ast_nodes(source)
        assert 0 <= int(unused) <= int(nodes)
    assert total == ["sum", str(sum(int(n) for _, n, _ in rows)),
                     str(sum(int(u) for _, _, u in rows))]
    # --lens reads circle_bundle_d, which calls lens_d: of surgery's three
    # functions only large_surgery_d never runs
    unused = {module: int(u) for module, _, u in rows}
    tree = ast.parse(code_lines.module_path("hfgenus.surgery").read_text(encoding="utf-8"))
    sizes = {fn.name: code_lines.ast_nodes(fn) for _, fn in code_lines.definitions(tree)}
    assert set(sizes) == {"lens_d", "circle_bundle_d", "large_surgery_d"}
    assert unused["hfgenus.surgery"] == sizes["large_surgery_d"]
    assert unused["hfgenus.commands.d_invariants"] < sizes["large_surgery_d"]


def test_code_lines_unused_nodes_are_the_definitions_never_called():
    tree = ast.parse("class A:\n"
                     "    @property\n"
                     "    def x(self):\n"
                     "        return 1\n"
                     "\n"
                     "    def y(self):\n"
                     "        def inner():\n"
                     "            pass\n"
                     "\n"
                     "\n"
                     "def f():\n"
                     "    pass\n")
    defs = list(code_lines.definitions(tree))
    assert [(line, fn.name) for line, fn in defs] == [(2, "x"), (6, "y"), (11, "f")]
    size = {fn.name: code_lines.ast_nodes(fn) for _, fn in defs}
    assert code_lines.unused_nodes(tree, {(2, "x")}) == size["y"] + size["f"]
    assert code_lines.unused_nodes(tree, {(2, "x"), (6, "y"), (11, "f")}) == 0
    assert code_lines.unused_nodes(tree, {(3, "x")}) == sum(size.values())


def test_code_lines_command_returns_the_commands_exit_code(capsys):
    # a usage error: the command's message is discarded, its modules still listed
    assert code_lines.main(["--command", "region", "--catalog", "nope:1"]) == 4
    out = capsys.readouterr().out
    assert "hfgenus.linkcat" in out and "usage error" not in out


# Ten paired runs: the parent's quartiles are 0.38 and 0.40 (spread 0.02).
PARENT = [0.38, 0.39, 0.40, 0.38, 0.39, 0.40, 0.38, 0.39, 0.40, 0.39]


def test_bench_pairs_claims_a_gain_won_in_nine_pairs_beyond_the_spread():
    change = [x - 0.03 for x in PARENT[:9]] + [0.40]  # the last pair is lost
    c = bench_pairs.compare(PARENT, change, "lower")
    assert [round(q, 9) for q in c["parent"]] == [0.38, 0.39, 0.40]
    assert c["won"] == 9 and c["pairs"] == 10
    assert round(c["gain"], 9) == 0.03 and round(c["spread"], 9) == 0.02
    assert c["claimed"]


def test_bench_pairs_refuses_eight_pairs_or_a_gain_within_the_spread():
    eight = [x - 0.03 for x in PARENT[:8]] + [0.40, 0.39]  # a tie counts for neither
    c = bench_pairs.compare(PARENT, eight, "lower")
    assert c["won"] == 8 and not c["claimed"]
    small = [x - 0.01 for x in PARENT]  # every pair won, but by less than the spread
    c = bench_pairs.compare(PARENT, small, "lower")
    assert c["won"] == 10 and c["gain"] < c["spread"] and not c["claimed"]


def test_bench_pairs_refuses_a_clean_sweep_of_fewer_than_ten_pairs():
    six = [x - 0.03 for x in PARENT[:6]]  # every pair won, far beyond the spread
    c = bench_pairs.compare(PARENT[:6], six, "lower")
    assert c["won"] == 6 and c["pairs"] == 6 and c["gain"] > c["spread"]
    assert not c["claimed"]


def test_bench_pairs_reads_the_better_direction():
    higher = [x + 0.03 for x in PARENT]
    assert bench_pairs.compare(PARENT, higher, "higher")["claimed"]
    assert not bench_pairs.compare(PARENT, higher, "lower")["claimed"]
    assert bench_pairs.compare(PARENT, higher, "lower")["won"] == 0


def test_bench_pairs_reports_each_declared_metric():
    def run(wall, rss):
        return {"metrics": {"w.wall_s": {"value": wall}, "w.peak_rss_mb": {"value": rss},
                            "w.undeclared": {"value": 0}}}
    runs = {"parent": [run(x, 18.0) for x in PARENT],
            "change": [run(x - 0.03, 18.0) for x in PARENT]}
    lines = bench_pairs.report(runs, {"wall_s": "lower", "peak_rss_mb": "lower"})
    assert len(lines) == 4
    assert lines[0].startswith("w.peak_rss_mb (lower is better): parent median 18 ")
    assert lines[0].endswith("change won 0 of 10 pairs; median gain 0 vs parent "
                             "quartile spread 0: no gain claimed")
    assert lines[1] == "w.peak_rss_mb pairs: " + json.dumps([[18.0, 18.0]] * 10)
    assert lines[2].startswith("w.wall_s (lower is better): parent median 0.39 "
                               "[0.38, 0.4], change median 0.36 [0.35, 0.37]; "
                               "change won 10 of 10 pairs;")
    assert lines[2].endswith(": gain")
    assert lines[3].startswith("w.wall_s pairs: [[0.38, 0.35")


def test_bench_pairs_prints_the_pairs_so_runs_can_be_pooled():
    # two runs of five pairs: neither is judged alone, their ten pairs are
    def run(wall):
        return {"metrics": {"w.wall_s": {"value": wall}}}
    pooled = []
    for half in (PARENT[:5], PARENT[5:]):
        runs = {"parent": [run(x) for x in half], "change": [run(x - 0.03) for x in half]}
        line = bench_pairs.report(runs, {"wall_s": "lower"})[1]
        prefix = "w.wall_s pairs: "
        assert line.startswith(prefix)
        pooled += json.loads(line[len(prefix):])
    assert [a for a, _ in pooled] == PARENT
    c = bench_pairs.compare(*zip(*pooled), "lower")
    assert c["won"] == 10 and c["claimed"]


def test_every_mutation_anchor_occurs_exactly_once_in_its_module():
    # the full mutation run is a tool; this keeps its list from rotting
    for name, (module, anchor, _) in mutants.MUTATIONS.items():
        source = (mutants.ROOT / "src" / "hfgenus" / module).read_text(encoding="utf-8")
        assert source.count(anchor) == 1, name


def test_mutants_name_the_first_failing_test():
    # a parametrized id may hold spaces
    output = ("F\n=== short test summary info ===\n"
              "FAILED tests/test_bounds.py::test_f[T(2,5), knot] - assert 0 == 1\n"
              "!!! stopping after 1 failures !!!\n1 failed, 3 passed in 0.5s\n")
    assert mutants.first_failure(output) == "tests/test_bounds.py::test_f[T(2,5), knot]"
    assert mutants.first_failure("4 passed in 0.5s\n") == ""
