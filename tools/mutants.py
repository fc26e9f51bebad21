"""Run a fixed list of mutations of src/hfgenus against the oracle tests.

    python tools/mutants.py

Each mutation is one exact text replacement in one module of src/hfgenus.
For each mutation in the list the tool copies the repository, without .git
and caches, to a new temporary directory, applies the replacement there,
and runs the tier-1 subset TESTS in that copy with
`python -m pytest -x -q -p no:cacheprovider`, one test process at a time,
with bytecode writing off and pytest's temporary files under the copy, so
nothing is written outside the temporary directory, which is removed
afterwards.  It prints each mutant as killed, naming the first failing test,
or as survived, and exits 1 if any survived.  A survivor means an oracle is
missing or the mutant is equivalent to the code.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TESTS = ["tests/test_hfunction.py", "tests/test_bounds.py", "tests/test_region.py",
         "tests/test_cable.py", "tests/test_acceptance.py", "tests/test_linkcat.py",
         "tests/test_records.py", "tests/test_laurent.py"]

_RESOLVE = "                    self._signs[B] = -1\n"

# name: (module under src/hfgenus, anchor, replacement); each anchor occurs
# exactly once in its module
MUTATIONS = {
    "sign rule reads B's exponent, not one below it": (
        "hfunction.py", "s[j] = x - 1", "s[j] = x"),
    "no rebuild after a flipped sign": (
        "hfunction.py", _RESOLVE + "                    self._build(classes)\n",
        _RESOLVE),
    "sign rule steps along B's last axis": (
        "hfunction.py", "s[B[0]] += 1", "s[B[-1]] += 1"),
    "sign rule reads the step toward 0": (
        "hfunction.py", "if step - self.h(s) not in (0, 1):",
        "if step - self.h(s) not in (-1, 0):"),
    "corners read the list of s >= 0 only": (
        "hfunction.py", "list(map(max, zip(*self._grids)))", "self._grids[0]"),
    "corners allow a level step": (
        "hfunction.py", "map(lt, rows[w + 1], rows[w])",
        "map(lambda x, y: x <= y, rows[w + 1], rows[w])"),
    "no Torres check when the steps hold": (
        "hfunction.py", "if steps or breakers:", "if steps:"),
    "Torres read on one axis only": (
        "hfunction.py", "for i in range(len(u)):", "for i in range(1):"),
    "step law turns one row late": (
        "hfunction.py", "if a < b else", "if a <= b else"),
    "h reads the list of s >= 0 in every orthant": (
        "hfunction.py", "self._grids[self._orthants[pattern]]", "self._grids[0]"),
    "a pattern's complement reads the list of s >= 0": (
        "hfunction.py", "if p[j] != p[C[0]])", "if p[j] and not p[C[0]])"),
    "the placement keeps u = 0": (
        "hfunction.py", "else (0).__lt__", "else (-1).__lt__"),
    "no Torres sums when there are two classes": (
        "hfunction.py", "if len(self._grids) > 1 and", "if False and"),
    "f_cap rounds down": (
        "bounds.py", "(g - abs(v) + 1) // 2", "(g - abs(v)) // 2"),
    "walk caps one short": (
        "bounds.py", "x + 2 * k - 1 for x, (_, k)", "x + 2 * k - 2 for x, (_, k)"),
    "corners report shell coordinates as M_i": (
        "hfunction.py", "self.M if x == m else x", "x"),
    "provenance names the last bound attaining the best": (
        "bounds.py", "for k, v in values.items() if v == best",
        "for k, v in reversed(list(values.items())) if v == best"),
    "JSON reader accepts a 4-genus of -1": (
        "linkjson.py", "g4 < 0", "g4 < -1"),
    "circle bundle warns one order late": (
        "surgery.py", "m <= 2 * g + 2", "m < 2 * g + 2"),
    "genus off by one": (
        "linkcat.py", "max(delta.terms)[0] // 2", "max(delta.terms)[0] // 2 + 1"),
    "reader accepts a contradicting g4": (
        "linkjson.py", "g4 is not None and g4 != genus", "g4 is not None and g4 != g4"),
    "the report lists a negative point's failing steps too": (
        "violations.py", '[f"H{s} = {v} is negative"] if v < 0 else found.get(s, [])',
        '([f"H{s} = {v} is negative"] if v < 0 else []) + found.get(s, [])'),
    "the report files a step under the lower point of its pair": (
        "violations.py", "s = rows[i][a + 1][p]", "s = rows[i][a][p]"),
    "the report's H jump off by one below the middle": (
        "violations.py", "else 1 - d}", "else -d}"),
    "the culprit ignores the failing step's axis": (
        "violations.py", "map(ne, s, box)", "map(ne, s[:i] + (box[i],) + s[i + 1:], box)"),
    "a record's field can be deleted": (
        "laurent.py", 'raise AttributeError(f"cannot delete field {name!r}")', "pass"),
}


def first_failure(output: str) -> str:
    """The first test that pytest's short summary names as failed, if any,
    with its whole parametrized id: the id ends at the "]" closing its
    parameters, which may hold " - ", and the message follows " - "."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            test = line.partition(" ")[2]
            name, bracket, params = test.partition("[")
            if bracket and " " not in name:
                return f"{name}[{params.partition('] - ')[0].removesuffix(']')}]"
            return test.partition(" - ")[0]
    return ""


def run(name: str) -> str:
    """One mutant's outcome: "killed by TEST" or "survived"."""
    module, anchor, replacement = MUTATIONS[name]
    with tempfile.TemporaryDirectory(prefix="hfgenus-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work"))
        path = copy / "src" / "hfgenus" / module
        text = path.read_text(encoding="utf-8")
        assert text.count(anchor) == 1, f"{name}: anchor not found exactly once"
        path.write_text(text.replace(anchor, replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             f"--basetemp={Path(tmp) / 'pytest'}", *TESTS],
            cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "survived"
    return f"killed by {first_failure(proc.stdout) or f'pytest exit {proc.returncode}'}"


def main() -> int:
    survived = 0
    for name in MUTATIONS:
        outcome = run(name)
        survived += outcome == "survived"
        print(f"{name}: {outcome}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
