"""hfgenus benchmark: runs the jobs of a workload and reports its metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every job is a fresh process
(`job.py`), started one at a time with no `--jobs` above 1: `table_for` is a
process-wide cache and the largeness threshold of `large_surgery_d` reads the
mutable `table.M`, so jobs sharing a process would make both answers and
timings depend on job order.

--trace 0 repeats the workload's jobs in passes until S seconds have gone
(at least two passes) and reports wall_s (sum over jobs of the median job
wall time), setup_s (median of several fresh set-up processes) and
peak_rss_mb (largest ru_maxrss of any job).  All times are rescaled to a
reference CPU speed; see `probe`.  --trace 1 runs one untraced pass
and two traced passes, reports the per-layer metrics of NOTES.md, and checks
that every count repeats exactly.  Every job's exit code and stdout are
checked against the stored expected output and the closed forms in
workloads.py.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
JOB_PY = os.path.join(HERE, "job.py")
JOB_TIMEOUT_S = 60
PROBE_INTERVAL_S = 0.01
PROBE_REF_S = 0.0003   # reported seconds are seconds at this probe time
SETUP_REPEATS = 7
MIN_PASSES = 2
TRACED_PASSES = 2

LAYERS = ("laurent", "linkcat", "hfunction", "region", "bounds", "cable",
          "render", "cli")

# Per-layer time metrics: the time spent inside the named spans, including
# what they call.  Layer shares come from the "<layer>.self_s" metrics.
SPAN_METRICS = {
    "hfunction.init_s": ("hfunction.HTable.__init__",),
    "hfunction.fill_s": ("hfunction.HTable.fill",),
    "hfunction.validate_s": ("hfunction.HTable.validation_report",
                             "hfunction.HTable.require_valid", "hfunction.validate_H"),
    "hfunction.h_positive_s": ("hfunction.HTable.h_positive",),
    "bounds.admissible_region_s": ("bounds.admissible_region",),
    "bounds.best_lower_bound_s": ("bounds.best_lower_bound",),
    "bounds.unlink_test_s": ("bounds.unlink_test",),
    "bounds.large_surgery_d_s": ("bounds.large_surgery_d",),
    "region.region_from_h_s": ("region.region_from_h",),
    "region.maximal_points_s": ("region.maximal_lattice_points",),
    "cable.cable_alexander_s": ("cable.cable_alexander",),
    "cable.consistency_check_s": ("cable.cable_consistency_check",),
    "cable.region_via_T_s": ("cable.region_via_T",),
    "laurent.mul_s": ("laurent.LaurentPoly.__mul__",),
    "laurent.exact_div_s": ("laurent.exact_div",),
    "laurent.substitute_powers_s": ("laurent.substitute_powers",),
    "laurent.normalize_symmetric_s": ("laurent.normalize_symmetric",),
    "linkcat.catalog_s": ("linkcat.catalog",),
    "linkcat.load_json_s": ("linkcat.load_json",),
    "linkcat.require_valid_s": ("linkcat.require_valid",),
    "render.ascii_h_grid_s": ("render.ascii_h_grid",),
    "render.region_svg_s": ("render.region_svg",),
    "cli.main_s": ("cli.main",),
}

# Per-layer count metrics read from "lookup site:qualified name" call counts.
CALL_METRICS = {
    "hfunction.H_calls": "hfunction:HTable.H",
    "bounds.f_cap_calls": "bounds:f_cap",
    "bounds.dominates_calls": "bounds:dominates",
    "region.dominates_calls": "region:dominates",
    "laurent.mul_calls": "laurent:LaurentPoly.__mul__",
    "laurent.knot_ray_sum_calls": "laurent:KnotChiSeries.ray_sum",
}

DERIVED_COUNTS = ("hfunction.H_distinct", "hfunction.box_points",
                  "hfunction.box_growths", "hfunction.h_positive_points",
                  "hfunction.sign_flips", "hfunction.sign_rejections",
                  "region.generators", "region.maximal_points")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- provenance -----------------------------------------------------------------


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "loadavg_at_start": list(os.getloadavg()),
            "git_commit": _git_commit(root)}


# -- running jobs -------------------------------------------------------------------

# On a shared machine the speed of one CPU drifts by up to 1.7x within a
# minute, with neighbours that this container cannot see (measured with
# this probe: no steal time is reported, and job CPU time tracks wall time).
# Every reported time is therefore rescaled by a probe of the same kind of
# work (dict scans with tuple compares, as in hfunction._ray_sum) timed on
# the job's CPU while the job runs.
_PROBE_TERMS = {(i, j): (7 * i + j) % 5 - 2 for i in range(-10, 11) for j in range(-10, 11)}


def probe() -> float:
    """Seconds taken by a fixed pure-Python kernel, about 0.3 ms."""
    start = time.perf_counter()
    total = 0
    for v0 in (-2, -1, 0, 1):
        for v1 in (-2, -1, 0, 1):
            total += sum(c for e, c in _PROBE_TERMS.items() if e[0] >= v0 and e[1] >= v1)
    return time.perf_counter() - start


class Runner:
    """Starts job processes one at a time inside the checkout.

    The runner and its jobs share one CPU.  While a job runs, the runner
    wakes every PROBE_INTERVAL_S and times `probe()` on that CPU, so each job
    carries an estimate of how fast the CPU was while it ran.
    """

    def __init__(self, root: str, work: str):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._n = 0

    def run(self, argv: list, trace_path: str = "") -> dict:
        """Run one job: its exit code, stdout, peak RSS and times.

        "raw_wall" is the wall time of the process.  "wall" is that time
        minus the probes taken while it ran, rescaled to the reference probe
        speed: "wall" = (raw_wall - probe time) * PROBE_REF_S / mean probe.
        """
        self._n += 1
        out_path = os.path.join(self.work, f"job{self._n}.out")
        err_path = os.path.join(self.work, f"job{self._n}.err")
        cmd = [sys.executable, JOB_PY] + (["--trace", trace_path] if trace_path else []) + argv
        probes = [probe()]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.root, env=self.env)
            during = 0.0
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > JOB_TIMEOUT_S:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(PROBE_INTERVAL_S)
                probes.append(probe())
                during += probes[-1]
            raw_wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        speed = PROBE_REF_S / statistics.mean(probes)
        return {"wall": (raw_wall - during) * speed, "raw_wall": raw_wall, "speed": speed,
                "rc": proc.returncode, "stdout": stdout, "stderr": stderr,
                "rss_kb": usage.ru_maxrss, "timed_out": raw_wall > JOB_TIMEOUT_S}


def check_job(variant, result) -> list:
    """Problems with one job's answer (empty when correct)."""
    if result["timed_out"]:
        return [f"timed out after {JOB_TIMEOUT_S} s"]
    problems = []
    try:
        with open(workloads.expected_path(variant), "rb") as fh:
            if fh.read() != result["stdout"]:
                problems.append(f"stdout differs from expected/{variant.id}.out")
    except OSError as exc:
        problems.append(f"no expected output: {exc}")
    try:
        problems += variant.check(result["rc"], result["stdout"].decode("utf-8"))
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        problems.append(f"output does not parse: {exc!r}")
    return problems


class Workload:
    """One workload at one seed: its jobs, inputs and measurements."""

    def __init__(self, name: str, seed: int, runner: Runner):
        self.name = name
        self.runner = runner
        self.plan = workloads.plan(name, seed)
        rng = random.Random(f"{name}:{seed}:inputs")
        self.inputs = {}
        for _, variant in self.plan:
            if variant.make_input is not None:
                path = os.path.join(runner.work, f"{variant.id}.json")
                workloads.write_input(variant.make_input(), path, rng)
                self.inputs[variant.id] = path
        self.attempted = 0
        self.failures: list = []

    def argv(self, variant) -> list:
        return variant.argv(self.inputs.get(variant.id, ""))

    def run_pass(self, trace_dir: str = "") -> list:
        """Run every job once, in plan order; returns the raw results."""
        results = []
        for i, (job, variant) in enumerate(self.plan):
            trace_path = os.path.join(trace_dir, f"{i}.json") if trace_dir else ""
            result = self.runner.run(self.argv(variant), trace_path)
            self.attempted += 1
            problems = check_job(variant, result)
            if problems:
                self.failures.append((job.name, variant.id, problems,
                                      result["stderr"].decode("utf-8", "replace")[-300:]))
            result["trace"] = trace_path
            results.append(result)
        return results

    def setup_s(self) -> float:
        recipes = []
        for _, variant in self.plan:
            recipe = {k: (self.inputs[variant.id] if v == "{input}" else v)
                      for k, v in variant.recipe.items()}
            if recipe not in recipes:
                recipes.append(recipe)
        path = os.path.join(self.runner.work, "setup.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(recipes, fh)
        times = []
        for i in range(SETUP_REPEATS + 1):   # the first run warms the bytecode cache
            result = self.runner.run(["setup", path])
            if result["rc"] != 0:
                self.failures.append(("setup", "setup", [f"exit code {result['rc']}"],
                                      result["stderr"].decode("utf-8", "replace")[-300:]))
            if i:
                times.append(result["wall"])
        return statistics.median(times)


# -- metrics -----------------------------------------------------------------------------


def end_to_end(wl: Workload, seconds: float) -> dict:
    setup = wl.setup_s()
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(wl.run_pass())
    per_job = [statistics.median(p[i]["wall"] for p in passes) for i in range(len(wl.plan))]
    raw = [statistics.median(p[i]["raw_wall"] for p in passes) for i in range(len(wl.plan))]
    speed = statistics.median(r["speed"] for p in passes for r in p)
    print(f"  {len(passes)} passes; unscaled wall time {sum(raw):.4g} s; "
          f"median CPU speed {speed:.3g} x reference")
    return {
        "wall_s": {"value": sum(per_job), "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": max(r["rss_kb"] for p in passes for r in p) / 1024,
                        "unit": "MB"},
    }


def _pass_layers(results: list) -> tuple:
    """Per-layer times and counts of one traced pass."""
    times, counts, calls = Counter(), Counter(), Counter()
    span_metric = {span: metric for metric, spans in SPAN_METRICS.items() for span in spans}
    for result in results:
        if not os.path.exists(result["trace"]):
            continue   # the job died before writing it; counted as failed
        with open(result["trace"], encoding="utf-8") as fh:
            trace = json.load(fh)
        names, spans = trace["names"], trace["spans"]
        # rescaled like the job's wall time, which also drops the probes
        # that interrupted the job
        scale = result["wall"] / result["raw_wall"]
        child = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        open_metrics = [frozenset()] * len(spans)   # metrics of a span's ancestors
        entry = 0.0
        for i, (nid, start, end, parent) in enumerate(spans):
            name = names[nid]
            outer = open_metrics[parent] if parent >= 0 else frozenset()
            metric = span_metric.get(name)
            if metric and metric not in outer:
                times[metric] += (end - start) * scale
            open_metrics[i] = outer | {metric} if metric else outer
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                times[f"{layer}.self_s"] += (end - start - child[i]) * scale
            if name == "job.entry":
                entry += (end - start) * scale
        times["cli.startup_s"] += result["wall"] - entry
        calls.update(trace["calls"])
        counts.update(trace["counts"])
    return times, counts, calls


def per_layer(wl: Workload) -> tuple:
    """Per-layer metrics, and the count differences between the traced passes."""
    untraced = sum(r["wall"] for r in wl.run_pass())
    passes = []
    for k in range(TRACED_PASSES):
        trace_dir = os.path.join(wl.runner.work, f"trace{k}")
        os.makedirs(trace_dir)
        results = wl.run_pass(trace_dir)
        passes.append((sum(r["wall"] for r in results),) + _pass_layers(results))
    mismatches = []
    for k in range(1, TRACED_PASSES):
        for label, idx in (("count", 2), ("call", 3)):
            first, other = passes[0][idx], passes[k][idx]
            for key in sorted(set(first) | set(other)):
                if first[key] != other[key]:
                    mismatches.append(f"{label} {key}: {first[key]} vs {other[key]}")
    metrics = {}
    time_keys = (list(SPAN_METRICS) + [f"{layer}.self_s" for layer in LAYERS]
                 + ["cli.startup_s"])
    for key in time_keys:
        metrics[key] = {"value": statistics.mean(p[1][key] for p in passes), "unit": "s"}
    counts, calls = passes[0][2], passes[0][3]
    for key, call in CALL_METRICS.items():
        metrics[key] = {"value": calls[call], "unit": "count"}
    for key in DERIVED_COUNTS:
        metrics[key] = {"value": counts[key], "unit": "count"}
    h_calls = calls[CALL_METRICS["hfunction.H_calls"]]
    metrics["hfunction.memo_hit_ratio"] = {
        "value": (h_calls - counts["hfunction.H_distinct"]) / h_calls if h_calls else 0.0,
        "unit": "ratio"}
    traced_wall = statistics.mean(p[0] for p in passes)
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced, "unit": "s"}
    stages = sorted(SPAN_METRICS, key=lambda k: -metrics[k]["value"])[:4]
    layers = sorted(LAYERS, key=lambda k: -metrics[f"{k}.self_s"]["value"])
    self_total = sum(metrics[f"{k}.self_s"]["value"] for k in LAYERS) or 1.0
    print(f"  {wl.name}: share of traced job time: " + ", ".join(
        f"{k} {metrics[k]['value'] / traced_wall:.1%}" for k in stages))
    print(f"  {wl.name}: layer shares of traced self time: " + ", ".join(
        f"{k} {metrics[f'{k}.self_s']['value'] / self_total:.1%}" for k in layers))
    return metrics, mismatches


# -- entry point -----------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, runner: Runner) -> dict:
    wl = Workload(name, seed, runner)
    print(f"{name}: seed {seed}, jobs in order: "
          + ", ".join(v.id for _, v in wl.plan))
    mismatches = []
    if trace:
        metrics, mismatches = per_layer(wl)
    else:
        metrics = end_to_end(wl, seconds)
    for job, vid, problems, stderr in wl.failures:
        print(f"  FAILED {job} ({vid}): {'; '.join(problems)}"
              + (f"\n    stderr: {stderr.strip()}" if stderr.strip() else ""))
    for m in mismatches:
        print(f"  COUNT NOT DETERMINISTIC: {m}")
    failed = len(wl.failures)
    for key, m in metrics.items():
        print(f"  {name}.{key} = {m['value']:.6g} {m['unit']}")
    print(f"  {name}.jobs_failed_ratio = {failed / wl.attempted:.6g} "
          f"({failed} of {wl.attempted} job runs)")
    return {"correct": failed == 0 and not mismatches, "attempted": wl.attempted,
            "failed": failed, "metrics": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hfgenus", "__init__.py")):
        fail(f"no hfgenus sources under {root}/src; run from the root of a checkout")
    sys.path.insert(0, os.path.join(root, "src"))

    print("provenance: " + json.dumps(provenance(root), sort_keys=True))
    work = os.path.join(HERE, "_work", f"{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(root, work)
        names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), runner)
                   for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.workload != "all":
        print(json.dumps(results[args.workload], sort_keys=True))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": m for name, r in results.items()
                    for key, m in r["metrics"].items()},
    }, sort_keys=True))


if __name__ == "__main__":
    main()
