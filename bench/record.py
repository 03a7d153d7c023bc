"""Record the benchmark's inputs and references from the current sources.

    python3 bench/record.py --label COMMIT

Writes bench/tables/<group>.json (each table computed by `chartab table
--save`) and bench/reference.json (exit code and stdout sha256 of every job
of every workload, labelled with COMMIT).  A job that does not finish within
its limit is recorded with no hash and the verdicts workloads.py states for
it; the benchmark then checks it by exit code and verdicts only.  Run it
only on a commit whose outputs are the reference, and check the result
against the anchors in bench/test_bench.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import time

from run import BENCH, RUN_BUDGET_S, Runner, WORK_ROOT
from workloads import SOURCES, SPEC_FILES, WORKLOADS, Job


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="commit the references come from")
    args = parser.parse_args()
    work = WORK_ROOT / "record"
    runner = Runner(work, {}, time.perf_counter() + 100 * RUN_BUDGET_S)
    shutil.rmtree(work, ignore_errors=True)
    (work / "specs").mkdir(parents=True)
    for name in SPEC_FILES:
        shutil.copyfile(BENCH / "specs" / f"{name}.json", work / "specs" / f"{name}.json")
    groups = sorted({g for w in WORKLOADS.values() for g in w.tables})
    for group in groups:
        out = BENCH / "tables" / f"{group}.json"
        runner.must_succeed(Job(("table", *SOURCES[group], "--save", str(out))))

    jobs = {}
    for workload in WORKLOADS.values():
        runner.set_up(workload)
        for job in workload.jobs:
            proc = runner.run(job)
            if proc.timed_out:
                if job.expect_verdicts is None:
                    raise SystemExit(f"job `{job.id}` did not finish and has no expected verdicts")
                jobs[job.id] = {
                    "exit": 0, "sha256": None, "verdicts": dict(job.expect_verdicts),
                    "note": "did not finish on this commit; verdicts from workloads.py",
                }
            else:
                jobs[job.id] = {
                    "exit": proc.exit,
                    "sha256": hashlib.sha256(proc.stdout).hexdigest(),
                    "verdicts": json.loads(proc.stdout)["verdicts"],
                }
            print(f"{proc.wall_s:8.3f} s  {job.id}: {jobs[job.id]}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    with open(BENCH / "reference.json", "w") as fh:
        json.dump({"recorded_on": args.label, "jobs": jobs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
