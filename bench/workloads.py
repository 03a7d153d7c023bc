"""The benchmark's workloads: which `chartab` jobs each one runs.

A job is one `python -m chartab ...` process.  Paths in a job's arguments are
relative to the run's work directory, where the set-up step writes the spec
files (`specs/`) and the table files the jobs load (`tables/`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_LIMIT_S = 30.0

# Group name -> how a job names it.  Spec-file groups are the bench groups
# of the ROADMAP; their specs live in bench/specs/ and are copied into the
# work directory during set-up.
SOURCES = {
    "S3": ("--group", "S3"),
    "D12": ("--group", "D12"),
    "C5": ("--group", "C5"),
    "A5": ("--group", "A5"),
    "S5": ("--group", "S5"),
    "S6": ("--spec-file", "specs/S6.json"),
    "A6": ("--spec-file", "specs/A6.json"),
    "GL32": ("--spec-file", "specs/GL32.json"),
}
SPEC_FILES = ("S6", "A6", "GL32")
BENCH_GROUPS = ("S5", "S6", "A6", "GL32")

# The program stops here for the seed commit: building GF(13^4) by repeated
# multiplication does not finish (killed after 30 s, and over 60 s in the
# ROADMAP's build_reduction timing).  The job stays in its workload so the
# defect shows as a failure; its short limit keeps a hang from dominating
# the run.  A closed-form residue field needs a few milliseconds.
HANG_LIMIT_S = 5.0


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    limit_s: float = DEFAULT_LIMIT_S
    # Verdicts expected of a job whose output could not be recorded.
    expect_verdicts: tuple[tuple[str, bool], ...] | None = None

    @property
    def id(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is stated in BENCHMARK.json."""

    name: str
    jobs: tuple[Job, ...]
    tables: tuple[str, ...] = ()   # groups whose table files set-up saves


def _job(command, group, *extra, table=False, limit_s=DEFAULT_LIMIT_S, expect_verdicts=None):
    argv = [command, *extra, *SOURCES[group]]
    if table:
        argv += ["--table-file", f"tables/{group}.json"]
    return Job(tuple(argv), limit_s, expect_verdicts)


def _multiplicity_jobs():
    jobs = []
    for g in BENCH_GROUPS:
        jobs += [
            _job("recover", g, table=True),
            _job("recover", g, "--real", table=True),
            _job("gamma", g, "-n", "4", table=True),
            _job("defect", g, "-p", "3", "-n", "3", table=True),
        ]
    return tuple(jobs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table-compute",
            tuple(_job("table", g) for g in BENCH_GROUPS),
        ),
        Workload(
            "multiplicity",
            _multiplicity_jobs(),
            tables=BENCH_GROUPS,
        ),
        Workload(
            "congruence",
            (
                _job("blocks", "S6", "-p", "3", table=True),
                _job("blocks", "A6", "-p", "2", table=True),
                _job("pelements", "GL32", "-p", "7", table=True),
                _job("counterexample", "S3", "-p", "3", table=True),
                _job("counterexample", "D12", "-p", "3", "--alt-normalizer", table=True),
                _job("counterexample", "S5", "-p", "5", table=True),
                _job("pelements", "S5", "-p", "7", table=True),
                _job("blocks", "A5", "-p", "7", table=True),
                _job("blocks", "C5", "-p", "7", table=True),
                # 13 does not divide |S5| = 120, so every character has
                # defect zero and the principal block is the trivial one alone.
                _job("blocks", "S5", "-p", "13", table=True, limit_s=HANG_LIMIT_S,
                     expect_verdicts=(("all_characters_in_block", False),)),
            ),
            tables=("S6", "A6", "GL32", "S3", "D12", "S5", "A5", "C5"),
        ),
        Workload(
            "catalog-verify",
            (Job(("verify",)),),
        ),
    )
}

# Untimed job that every set-up runs once: it imports every module, so the
# timed jobs start with compiled bytecode and warm file caches.
WARM_UP = Job(("classes", "--group", "S3"))


def job_order(workload: Workload, seed: int) -> list[Job]:
    """The workload's jobs in the order the seed picks; the seed changes nothing else."""
    jobs = list(workload.jobs)
    random.Random(seed).shuffle(jobs)
    return jobs
