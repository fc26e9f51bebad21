"""Record the expected stdout of every job variant into perfbench/expected/.

    python3 perfbench/record.py

Run from the root of a source checkout whose answers are trusted.  Each
output is written only after it passed the variant's closed-form check in
workloads.py; the script exits 1, writing nothing more, at the first that
fails.
"""

from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads
    from run import Runner

    work = os.path.join(HERE, "_work", f"record-{os.getpid()}")
    os.makedirs(work)
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    try:
        runner = Runner(os.getcwd(), work)
        for name, jobs in workloads.WORKLOADS.items():
            for job in jobs:
                for variant in job.variants:
                    path = ""
                    if variant.make_input is not None:
                        path = os.path.join(work, f"{variant.id}.json")
                        workloads.write_input(variant.make_input(), path, None)
                    result = runner.run(variant.argv(path))
                    problems = variant.check(result["rc"], result["stdout"].decode("utf-8"))
                    if problems:
                        print(f"{name}/{variant.id}: {'; '.join(problems)}", file=sys.stderr)
                        return 1
                    with open(workloads.expected_path(variant), "wb") as fh:
                        fh.write(result["stdout"])
                    print(f"{name}/{variant.id}: {result['wall']:.2f} s, "
                          f"{len(result['stdout'])} bytes")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
