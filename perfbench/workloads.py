"""Workloads of the hfgenus benchmark: jobs, their equal-cost variants, the
inputs generated from the seed, and closed-form checks of every answer.

A job is one fresh `job.py` process.  Each job lists variants of equal cost;
the workload seed picks one variant per job and the order of the jobs, and
shuffles the term order of generated descriptor files.  Parameters that change
the cost (the twist count k of `two_bridge:k`, which cabled component of a
3-component cable) are fixed, because the seed must not move the measured time.
The program under test receives only catalog keys or generated files.

Every variant has an expected stdout in `expected/<variant id>.out`, recorded
by `record.py` after it passed the closed-form check below; each run compares
the bytes and repeats the closed-form check.
"""

from __future__ import annotations

import ast
import copy
import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")


# -- closed forms ---------------------------------------------------------------


def two_bridge_generators(k: int) -> list:
    """Generators of the genus region of two_bridge:k: (i, k - i)."""
    return [[i, k - i] for i in range(k + 1)]


def two_bridge_maximal(k: int) -> list:
    """Maximal lattice points outside it: (i, k - 1 - i)."""
    return [[i, k - 1 - i] for i in range(k)]


WHITEHEAD = two_bridge_generators(1)
BORROMEAN = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
MIRROR_L7A3 = [[0, 2], [1, 1]]   # trefoil on coordinate 2 (source paper)


def t_image(generators: list, pairs: list) -> list:
    """Cable transform of a region: s_i -> p_i s_i + (p_i - 1)(q_i - 1)/2,
    then the minimal elements of the image."""
    image = {tuple(p * s + (p - 1) * (q - 1) // 2 for s, (p, q) in zip(g, pairs))
             for g in generators}
    minimal = [g for g in image
               if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in image)]
    return [list(g) for g in sorted(minimal)]


# -- output checks ------------------------------------------------------------------
# Each check takes (exit code, stdout text) and returns a list of problems.


def _expect_exit(want: int, rc: int) -> list:
    return [] if rc == want else [f"exit code {rc}, expected {want}"]


def check_region(k: int, fmt: str):
    def check(rc, out):
        problems = _expect_exit(0, rc)
        if fmt == "json":
            data = json.loads(out)
            gens, zmax = data["generators"], data["maximal_points"]
        else:
            lines = dict(line.split(": ", 1) for line in out.splitlines())
            parse = lambda text: [list(ast.literal_eval(t)) for t in  # noqa: E731
                                  re.findall(r"\([^)]*\)", text)]
            gens, zmax = parse(lines["generators"]), parse(lines["maximal points"])
        if gens != two_bridge_generators(k):
            problems.append(f"generators {gens} are not (i, {k} - i)")
        if zmax != two_bridge_maximal(k):
            problems.append(f"maximal points {zmax} are not (i, {k - 1} - i)")
        return problems
    return check


def check_bounds(min_generator_sum: int, fmt: str):
    def check(rc, out):
        problems = _expect_exit(0, rc)
        if fmt == "json":
            data = json.loads(out)
            got = data["bounds"]["min_generator_sum"]
            unlink = data["unlink_consistent"]
        else:
            lines = dict(line.split(": ", 1) for line in out.splitlines()
                         if ": " in line)
            got = int(lines["min_generator_sum"])
            unlink = "h vanishes identically" in out
        if got != min_generator_sum:
            problems.append(f"min_generator_sum {got}, expected {min_generator_sum}")
        if unlink:
            problems.append("reported consistent with the unlink")
        return problems
    return check


def check_h_grid(k: int):
    """h on the nonnegative quadrant vanishes iff s1 + s2 >= k, and h(-s) = h(s)."""
    def check(rc, out):
        problems = _expect_exit(0, rc)
        rows = {}
        for line in out.splitlines():
            m = re.match(r"\s*(-?\d+) \|(.*)$", line)
            if m:
                rows[int(m.group(1))] = [int(x) for x in m.group(2).split()]
        window = max(rows)
        h = {(s1, s2): rows[s2][s1 + window]
             for s2 in rows for s1 in range(-window, window + 1)}
        for (s1, s2), v in h.items():
            if s1 >= 0 and s2 >= 0 and (v == 0) != (s1 + s2 >= k):
                problems.append(f"h{(s1, s2)} = {v} contradicts the region s1 + s2 >= {k}")
            if h[(-s1, -s2)] != v:
                problems.append(f"h{(s1, s2)} != h{(-s1, -s2)}")
        return problems[:5]
    return check


def check_svg(k: int):
    """Filled dots mark the generators, hollow dots the maximal points."""
    def check(rc, out):
        problems = _expect_exit(0, rc)
        size = int(re.search(r'width="(\d+)"', out).group(1))
        cell = 28

        def lattice(kind):
            pts = re.findall(r'<circle cx="(\d+)" cy="(\d+)" r="5" ' + kind, out)
            return sorted([int(x) // cell - 1, (size - int(y)) // cell - 1] for x, y in pts)
        if lattice('fill="black"') != two_bridge_generators(k):
            problems.append("svg generator dots are not (i, k - i)")
        if lattice('fill="none"') != two_bridge_maximal(k):
            problems.append("svg maximal-point dots are not (i, k - 1 - i)")
        return problems
    return check


def check_cable(base: list, pairs: list, direct_valid: bool):
    """Both routes equal the T-image of the base region, or the direct route
    is rejected by sign resolution (small q/p)."""
    def check(rc, out):
        problems = _expect_exit(0, rc)
        data = json.loads(out)
        want = t_image(base, pairs)
        if data["transformed_generators"] != want:
            problems.append(f"transformed generators {data['transformed_generators']} != {want}")
        if direct_valid:
            if data["direct_generators"] != want or not data["consistent"]:
                problems.append("direct route disagrees with the T-image")
        elif data["direct_generators"] is not None or data["consistent"] \
                or "neither sign" not in (data["direct_error"] or ""):
            problems.append("direct route was not rejected by sign resolution")
        small = [i for i, (p, q) in enumerate(pairs) if p > 1 and q < 3 * p]
        if len(data["warnings"]) != len(small):
            problems.append(f"{len(data['warnings'])} largeness warnings, expected {len(small)}")
        return problems
    return check


def check_d_invariant(q: int, n: int):
    """d = sum (2v - q)^2 / 4q - n/4 - 2H(0) at v = 0, with H(0) a natural number."""
    def check(rc, out):
        problems = _expect_exit(0, rc)
        data = json.loads(out)
        num, den = data["d"].split("/")
        shift = n * Fraction(q * q, 4 * q) - Fraction(n, 4)
        H0 = (shift - Fraction(int(num), int(den))) / 2
        if H0.denominator != 1 or H0 < 0:
            problems.append(f"d = {data['d']} gives H(0) = {H0}, not a natural number")
        return problems
    return check


def check_verdict(prefix: str):
    """`validate` rejects the input with exit 2 and exactly one verdict line."""
    def check(rc, out):
        problems = _expect_exit(2, rc)
        lines = out.splitlines()
        if len(lines) != 1 or not lines[0].startswith(prefix):
            problems.append(f"verdict {out!r} does not start with {prefix!r}")
        return problems
    return check


def check_admissible(want: list):
    def check(rc, out):
        problems = _expect_exit(0, rc)
        got = json.loads(out)["admissible_generators"]
        if got != want:
            problems.append(f"admissible generators {got}, expected {want}")
        return problems
    return check


# -- generated inputs ---------------------------------------------------------------


def _catalog_dict(key: str, k: int) -> dict:
    from hfgenus import catalog
    from hfgenus.linkcat import descriptor_to_dict
    return descriptor_to_dict(catalog(key, k))


def flipped_two_bridge(k: int) -> dict:
    """two_bridge:k with the stored sign of its 2-variable polynomial negated."""
    data = _catalog_dict("two_bridge", k)
    for term in data["alexander"]["1,2"]:
        term["coef"] = -term["coef"]
    data["name"] = f"two_bridge({k})_flipped"
    return data


def corrupted_two_bridge(k: int, exp: tuple) -> dict:
    """two_bridge:k with the coefficients at exp and -exp both pushed 2 away
    from zero: still symmetric and centred, so only the H laws reject it."""
    data = _catalog_dict("two_bridge", k)
    mirror = [s[1:] if s.startswith("-") else "-" + s for s in exp]
    hit = 0
    for term in data["alexander"]["1,2"]:
        if term["exp"] in (list(exp), mirror):
            term["coef"] += 2 if term["coef"] > 0 else -2
            hit += 1
    if hit != 2:
        raise ValueError(f"no symmetric term pair at {exp}")
    data["name"] = f"two_bridge({k})_corrupt"
    return data


def write_input(data: dict, path: str, rng: Optional[random.Random]) -> None:
    """Write a descriptor; the seed shuffles the order of terms and keys."""
    data = copy.deepcopy(data)
    if rng is not None:
        alex = list(data["alexander"].items())
        for _, terms in alex:
            rng.shuffle(terms)
        rng.shuffle(alex)
        data["alexander"] = dict(alex)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)


# -- jobs ------------------------------------------------------------------------------


@dataclass(frozen=True)
class Variant:
    id: str                     # expected/<id>.out
    kind: str                   # "cli" or "lib"
    args: tuple                 # after the kind; "{input}" names the generated file
    check: Callable
    recipe: dict                # what setup builds: {"catalog", "cable"} or {"json"}
    make_input: Optional[Callable] = None

    def argv(self, input_path: str = "") -> list:
        return [self.kind] + [a.replace("{input}", input_path) for a in self.args]


@dataclass(frozen=True)
class Job:
    name: str
    why: str
    variants: tuple


def _cli(vid, args, check, catalog=None, cable="", make_input=None):
    recipe = {"json": "{input}"} if make_input else {"catalog": catalog, "cable": cable}
    return Variant(vid, "cli", tuple(args), check, recipe, make_input)


def _formats(vid, command, k, check_for):
    return tuple(
        _cli(f"{vid}_{fmt}", [command, "--catalog", f"two_bridge:{k}", "--format", fmt],
             check_for(fmt), catalog=f"two_bridge:{k}")
        for fmt in ("json", "ascii"))


def _dense_two_bridge() -> tuple:
    return (
        Job("region_tb20",
            "dense support (about 2k^2 terms), small box: H evaluation, fill and "
            "validation dominate; json or ascii output costs the same",
            _formats("region_tb20", "region", 20, lambda f: check_region(20, f))),
        Job("bounds_tb20",
            "same table as region_tb20 plus the bound suite, which costs about 1%",
            _formats("bounds_tb20", "bounds", 20, lambda f: check_bounds(20, f))),
        Job("region_tb25",
            "the largest dense input: the suffix-sum engine's main target",
            _formats("region_tb25", "region", 25, lambda f: check_region(25, f))),
        Job("h_table_tb12",
            "full h grid through render.ascii_h_grid",
            (_cli("h_table_tb12_ascii",
                  ["h-table", "--catalog", "two_bridge:12", "--format", "ascii"],
                  check_h_grid(12), catalog="two_bridge:12"),)),
        Job("region_svg_tb12",
            "staircase through render.region_svg",
            (_cli("region_tb12_svg",
                  ["region", "--catalog", "two_bridge:12", "--format", "svg"],
                  check_svg(12), catalog="two_bridge:12"),)),
    )


CORRUPT_AT = (("1/2", "1/2"), ("1/2", "-1/2"), ("3/2", "1/2"))


def _cable_and_reject() -> tuple:
    wh_cable = [(7, 22), (1, 1)]
    return (
        Job("cable_whitehead_7_22",
            "sparse support, big box (M = 72): laurent cable arithmetic, then both "
            "routes to the cable's region; the cabled component is either one",
            tuple(_cli(f"cable_whitehead_{tag}",
                       ["cable", "--catalog", "whitehead", "--cable", spec],
                       check_cable(WHITEHEAD, pairs, True),
                       catalog="whitehead", cable=spec)
                  for tag, spec, pairs in (("7_22_1_1", "7:22,1:1", wh_cable),
                                           ("1_1_7_22", "1:1,7:22", wh_cable[::-1])))),
        Job("bounds_whitehead_cable_7_22",
            "the bound suite grows the box from 72 to 135 and revalidates; "
            "whitehead_cable:7,22 and two_bridge_cable:1,1,1,7,22 are mirror images",
            (_cli("bounds_whitehead_cable_7_22", ["bounds", "--catalog", "whitehead_cable:7,22"],
                  check_bounds(64, "json"), catalog="whitehead_cable:7,22"),
             _cli("bounds_two_bridge_cable_1_1_1_7_22",
                  ["bounds", "--catalog", "two_bridge_cable:1,1,1,7,22"],
                  check_bounds(64, "json"), catalog="two_bridge_cable:1,1,1,7,22"))),
        Job("d_invariants_whitehead_cable_5_16",
            "large-surgery d-invariant: one H value on a sparse cable table; any "
            "framing above the largeness threshold costs the same",
            tuple(_cli(f"d_invariants_whitehead_cable_5_16_{q}",
                       ["d-invariants", "--catalog", "whitehead_cable:5,16",
                        "--framing", f"{q},{q}"],
                       check_d_invariant(q, 2), catalog="whitehead_cable:5,16")
                  for q in (400, 401, 402))),
        Job("cable_reject_two_bridge_3",
            "small q/p: the direct route fails sign resolution (both signs swept), "
            "the T-route still answers",
            (_cli("cable_two_bridge_3_3_7_2_5",
                  ["cable", "--catalog", "two_bridge:3", "--cable", "3:7,2:5"],
                  check_cable(two_bridge_generators(3), [(3, 7), (2, 5)], False),
                  catalog="two_bridge:3", cable="3:7,2:5"),)),
        Job("validate_flipped_tb15",
            "stored sign is wrong: the +1 sweep fails, the -1 retry passes, "
            "validate reports the flip and exits 2",
            (_cli("validate_flipped_tb15", ["validate", "--link", "{input}"],
                  check_verdict("invalid: stored polynomial sign for subset (1, 2) "
                                "is inconsistent"),
                  make_input=lambda: flipped_two_bridge(15)),)),
        Job("validate_corrupt_tb10",
            "no sign is valid: rejected at the first problem of each sweep, exit 2; "
            "the corrupted coefficient pair is picked by the seed",
            tuple(_cli(f"validate_corrupt_tb10_{i}", ["validate", "--link", "{input}"],
                       check_verdict("invalid: two_bridge(10)_corrupt: neither sign"),
                       make_input=lambda exp=exp: corrupted_two_bridge(10, exp))
                  for i, exp in enumerate(CORRUPT_AT))),
    )


def _lib(vid, key, cable, want):
    return Variant(vid, "lib", (key, cable) if cable else (key,),
                   check_admissible(want), {"catalog": key, "cable": cable})


def _admissible_region() -> tuple:
    # Which component stays uncabled changes the sweep order of
    # admissible_region and so its cost (about 5 s vs 7.5 s), so it is fixed.
    return (
        Job("admissible_tb12", "dense support, 2 components: many positive points",
            (_lib("admissible_tb12", "two_bridge:12", "", two_bridge_generators(12)),)),
        Job("admissible_whitehead_cable_5_16", "sparse cable, wide box",
            (_lib("admissible_whitehead_cable_5_16", "whitehead_cable:5,16", "",
                  t_image(WHITEHEAD, [(5, 16), (1, 1)])),)),
        Job("admissible_borromean", "3 components, tiny support",
            (_lib("admissible_borromean", "borromean", "", BORROMEAN),)),
        Job("admissible_mirror_L7a3", "knot component with nontrivial genus",
            (_lib("admissible_mirror_L7a3", "mirror_L7a3", "", MIRROR_L7A3),)),
        Job("admissible_borromean_cable",
            "3 components, 2439 positive points re-checked per candidate: "
            "the staircase rewrite's main target",
            (_lib("admissible_borromean_cable_2_7_2_7_1_1", "borromean", "2:7,2:7,1:1",
                  t_image(BORROMEAN, [(2, 7), (2, 7), (1, 1)])),)),
    )


WORKLOADS = {
    "dense_two_bridge": _dense_two_bridge(),
    "cable_and_reject": _cable_and_reject(),
    "admissible_region": _admissible_region(),
}


def plan(workload: str, seed: int) -> list:
    """The seed's job order and variant choice: a list of (job, variant)."""
    rng = random.Random(f"{workload}:{seed}")
    picked = [(job, rng.choice(job.variants)) for job in WORKLOADS[workload]]
    rng.shuffle(picked)
    return picked


def expected_path(variant: Variant) -> str:
    return os.path.join(EXPECTED_DIR, f"{variant.id}.out")
