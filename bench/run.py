"""chartab benchmark: `python -m chartab` jobs timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a chartab checkout; the program is imported from its
`src/` directory.  One client runs the workload's jobs one at a time, each a
fresh process, in the order the seed picks (closed loop).  Passes over the
job list repeat until S seconds have gone, at least one pass.  Every job's
exit code, report verdicts and stdout sha256 are checked against
bench/reference.json.

--trace 0 reports the end-to-end metrics (medians over the passes):
  wall_s       wall time of one pass: the sum of its jobs' wall times
  cpu_s        user+sys CPU time of that pass's processes
  job_s.p50    median wall time of the pass's jobs that finished
  job_s.max    slowest wall time of the pass's jobs that finished
  setup_s      median set-up time: spec files, the tables the jobs load
               (each loaded and saved by chartab), one warm-up job; set-up
               runs at least three times and for at least two seconds
  peak_rss_mb  largest max-RSS of any job
Times are at the reference speed of bench/speed.py: the run pins itself,
its jobs and a speed sampler to one CPU, and scales each job's and each
set-up's times by the sampler's speed while it ran; the sampler's CPU time
is taken out of wall times.  A killed job keeps its unscaled times, which its
time limit sets.  The table above the result line also shows the unscaled
wall time of a pass, sampler share included.
The result's `attempted` and `failed` count the jobs of all passes; a job
fails on a time-out, a wrong exit code, verdicts other than the recorded
ones, or a wrong stdout hash.

--trace 1 runs each job of one pass twice, untraced and then under
bench/tracer.py, and reports the per-layer metrics of bench/layers.py from
the traced runs.  The full layer table is printed above the result line.

The last line of stdout is the result as one JSON object.  `--workload all`
prints one row per workload instead, then a JSON object of all results.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import speed
from workloads import SOURCES, SPEC_FILES, WARM_UP, WORKLOADS, Job, Workload, job_order

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 3        # at least this many set-ups,
SETUP_SECONDS = 2.0      # and more until they have taken this long
RUN_BUDGET_S = 140.0     # no job starts after this: with a 30 s job limit the run ends within 180 s

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("job_s.p50", "s"),
    ("job_s.max", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def metric(name: str, value: float, unit: str) -> dict:
    if not _NAME.fullmatch(name):
        raise ValueError(f"metric name {name!r} is not 1-64 of [A-Za-z0-9_.-]")
    return {name: {"value": value, "unit": unit}}


# -- processes ---------------------------------------------------------------


@dataclass
class Proc:
    exit: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_kb: int
    timed_out: bool
    spawn_ns: int


def run_process(cmd, cwd, env, limit_s: float, stderr_path) -> Proc:
    """Run cmd to completion or kill it at limit_s; reap it with its rusage."""
    fired = threading.Event()
    with open(stderr_path, "wb") as err:
        spawn_ns = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)

        def kill():
            fired.set()
            proc.kill()

        timer = threading.Timer(limit_s, kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall_s = (time.perf_counter_ns() - spawn_ns) / 1e9
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Proc(
        exit=code,
        stdout=out,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
        timed_out=fired.is_set(),
        spawn_ns=spawn_ns,
    )


# -- checking ------------------------------------------------------------------


def check(proc: Proc, ref: dict) -> str | None:
    """Why the job failed, or None.

    The report's verdicts must equal the recorded ones.  Most verdicts are
    self-checks and are recorded true; blocks' `all_characters_in_block` and
    counterexample's `all_divisible` are the computed answers and are false
    for some groups.  A job with no recorded hash is checked by exit code and
    verdicts alone.
    """
    if proc.timed_out:
        return "time-out"
    if proc.exit != ref["exit"]:
        return f"exit code {proc.exit}, expected {ref['exit']}"
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        return "stdout is not one JSON report"
    verdicts = report.get("verdicts") if isinstance(report, dict) else None
    if verdicts != ref["verdicts"]:
        return f"verdicts {verdicts}, expected {ref['verdicts']}"
    if ref["sha256"] is not None and hashlib.sha256(proc.stdout).hexdigest() != ref["sha256"]:
        return "stdout sha256 differs from the reference"
    return None


@dataclass
class Outcome:
    proc: Proc | None        # None when the run budget left no time to start it
    failure: str | None
    window: speed.Window | None = None   # the sampler's work while the job ran

    @property
    def finished(self) -> bool:
        return self.proc is not None and not self.proc.timed_out

    @property
    def wall_ref_s(self) -> float:
        """Wall time at the reference speed, without the sampler's share."""
        if not self.finished or self.window is None:
            return self.proc.wall_s
        return (self.proc.wall_s - self.window.cpu_s) * self.window.scale

    @property
    def cpu_ref_s(self) -> float:
        if not self.finished or self.window is None:
            return self.proc.cpu_s
        return self.proc.cpu_s * self.window.scale

    @property
    def wrong_output(self) -> bool:
        """Failed by what it printed or returned, not by running out of time."""
        return self.failure is not None and self.proc is not None and not self.proc.timed_out


def tally(outcomes) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over job outcomes."""
    failed = sum(o.failure is not None for o in outcomes)
    correct = not any(o.wrong_output for o in outcomes)
    return len(outcomes), failed, correct


def finished_walls(outcomes) -> list[float]:
    """Reference-speed wall times of the jobs that ran to the end."""
    return [o.wall_ref_s for o in outcomes if o.finished] or [0.0]


def result(outcomes, values: dict, units) -> dict:
    """The result line: job counts and the named metrics, in the given order."""
    attempted, failed, correct = tally(outcomes)
    metrics = {}
    for name, unit in units:
        metrics.update(metric(name, values[name], unit))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- set-up and passes --------------------------------------------------------------


class Runner:
    """Runs jobs of one workload in its work directory, plain or traced."""

    def __init__(self, work: Path, references: dict, deadline: float):
        self.work = work
        self.references = references
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.trace_dir = None        # set for traced runs
        self.sampler = None          # a started speed.Sampler for scaled runs
        self.traces = []             # (spans file, Proc) of traced jobs
        self.spans_files = itertools.count()

    def command(self, job: Job):
        if self.trace_dir is None:
            return [sys.executable, "-m", "chartab", *job.argv], None
        spans = self.trace_dir / f"job-{next(self.spans_files)}.json"
        return [
            sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans),
            "--tables", str(self.trace_dir / "tables"), "--", *job.argv,
        ], spans

    def run(self, job: Job) -> Proc:
        cmd, spans = self.command(job)
        proc = run_process(cmd, self.work, self.env, job.limit_s, self.work / "stderr.txt")
        if spans is not None:
            self.traces.append((spans, proc))
        return proc

    def must_succeed(self, job: Job) -> None:
        proc = self.run(job)
        if proc.timed_out or proc.exit != 0:
            stderr = (self.work / "stderr.txt").read_text(errors="replace")[-2000:]
            raise BenchError(f"set-up job `chartab {job.id}` failed:\n{stderr}")

    def set_up(self, workload: Workload) -> float:
        """Fresh work directory with the inputs the workload's jobs read."""
        start = time.perf_counter()
        if self.work.exists():
            shutil.rmtree(self.work)
        for sub in ("specs", "seed", "tables"):
            (self.work / sub).mkdir(parents=True)
        for name in SPEC_FILES:
            shutil.copyfile(BENCH / "specs" / f"{name}.json", self.work / "specs" / f"{name}.json")
        for group in workload.tables:
            shutil.copyfile(BENCH / "tables" / f"{group}.json", self.work / "seed" / f"{group}.json")
            self.must_succeed(Job((
                "table", *SOURCES[group],
                "--table-file", f"seed/{group}.json", "--save", f"tables/{group}.json",
            )))
        self.must_succeed(WARM_UP)
        return time.perf_counter() - start

    def run_checked(self, job: Job) -> Outcome:
        if time.perf_counter() > self.deadline:
            return Outcome(None, "not started: run budget spent")
        start = self.sampler and self.sampler.read()
        proc = self.run(job)
        window = self.sampler and speed.Window(start, self.sampler.read())
        failure = check(proc, self.references[job.id])
        if failure:
            print(f"job failed: chartab {job.id}: {failure}", file=sys.stderr)
        return Outcome(proc, failure, window)

    def scaled_set_up(self, workload: Workload) -> float:
        """Set-up wall time at the reference speed, without the sampler's share."""
        start = self.sampler.read()
        took = self.set_up(workload)
        window = speed.Window(start, self.sampler.read())
        return (took - window.cpu_s) * window.scale

    def run_pass(self, jobs) -> "Pass":
        return Pass([self.run_checked(job) for job in jobs])


@dataclass
class Pass:
    outcomes: list

    @property
    def wall_s(self):
        return sum(o.wall_ref_s for o in self.outcomes if o.proc is not None)

    @property
    def raw_wall_s(self):
        return sum(o.proc.wall_s for o in self.outcomes if o.proc is not None)

    @property
    def cpu_s(self):
        return sum(o.cpu_ref_s for o in self.outcomes if o.proc is not None)


def load_references() -> dict:
    with open(BENCH / "reference.json") as fh:
        return json.load(fh)["jobs"]


def _work_dir(name: str) -> Path:
    return WORK_ROOT / f"{name}-{os.getpid()}"


def measure(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of passes repeated for `seconds`."""
    runner = Runner(_work_dir(workload.name), load_references(), time.perf_counter() + RUN_BUDGET_S)
    runner.sampler = speed.Sampler(WORK_ROOT / f"{workload.name}-{os.getpid()}-speed")
    try:
        WORK_ROOT.mkdir(exist_ok=True)
        runner.sampler.start()
        setups, start = [], time.perf_counter()
        while len(setups) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
            setups.append(runner.scaled_set_up(workload))
        jobs = job_order(workload, seed)
        start = time.perf_counter()
        passes = [runner.run_pass(jobs)]
        while time.perf_counter() - start < seconds and time.perf_counter() < runner.deadline:
            passes.append(runner.run_pass(jobs))
    finally:
        runner.sampler.stop()
        runner.sampler.path.unlink(missing_ok=True)
        shutil.rmtree(runner.work, ignore_errors=True)
    outcomes = [o for p in passes for o in p.outcomes]
    rss = max((o.proc.rss_kb for o in outcomes if o.proc is not None), default=0)
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "job_s.p50": statistics.median(statistics.median(finished_walls(p.outcomes)) for p in passes),
        "job_s.max": statistics.median(max(finished_walls(p.outcomes)) for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss / 1024,
    }
    summary = {
        "jobs": len(jobs),
        "passes": len(passes),
        "raw_wall_s": statistics.median(p.raw_wall_s for p in passes),
    }
    return result(outcomes, values, END_TO_END), summary


def measure_traced(workload: Workload, seed: int) -> dict:
    """Per-layer metrics.  Each job runs untraced and then traced, back to
    back, and the tracing overhead compares their times at the reference
    speed.  Span times are the traced processes' own, sampler share included."""
    import layers

    runner = Runner(_work_dir(workload.name), load_references(), time.perf_counter() + RUN_BUDGET_S)
    trace_dir = WORK_ROOT / f"{workload.name}-{os.getpid()}-trace"
    sampler = speed.Sampler(WORK_ROOT / f"{workload.name}-{os.getpid()}-speed")
    try:
        runner.set_up(workload)
        shutil.rmtree(trace_dir, ignore_errors=True)
        (trace_dir / "tables").mkdir(parents=True)
        runner.trace_dir = trace_dir
        runner.set_up(workload)
        setup_traces, runner.traces = _read_traces(runner.traces), []
        plain, traced = [], []
        runner.sampler = sampler
        sampler.start()
        for job in job_order(workload, seed):
            runner.trace_dir = None
            plain.append(runner.run_checked(job))
            runner.trace_dir = trace_dir
            traced.append(runner.run_checked(job))
        sampler.stop()
        runner.sampler = None
        pass_traces = _read_traces(runner.traces)
        probe = run_process(
            [sys.executable, str(BENCH / "tracer.py"), "--probe", str(trace_dir / "tables")],
            runner.work, runner.env, 60.0, runner.work / "stderr.txt",
        )
        if probe.exit != 0:
            raise BenchError("cyclotomic probe failed")
    finally:
        sampler.stop()
        sampler.path.unlink(missing_ok=True)
        shutil.rmtree(runner.work, ignore_errors=True)
        shutil.rmtree(trace_dir, ignore_errors=True)
    plain_s = sum(o.wall_ref_s for o in plain if o.proc is not None)
    traced_s = sum(o.wall_ref_s for o in traced if o.proc is not None)
    values = layers.layer_values(pass_traces, setup_traces, json.loads(probe.stdout), plain_s, traced_s)
    _print_layers(workload.name, values, layers.layer_self_times(pass_traces), plain_s, traced_s)
    out = result(plain + traced, values, [(n, layers.UNITS[n]) for n in layers.REPORTED])
    print(f"  failed_frac {out['failed'] / out['attempted']:.4f}")
    return out


def _read_traces(traces):
    """JobTraces of the traced jobs that finished; a killed job leaves no spans."""
    from layers import JobTrace

    out = []
    for path, proc in traces:
        if path.exists():
            with open(path) as fh:
                out.append(JobTrace(json.load(fh), proc.spawn_ns, proc.wall_s))
    return out


def _print_layers(name, values, self_times, plain_s, traced_s):
    import layers

    print(f"per-layer metrics, workload {name} (times are totals over one traced pass)")
    print(f"  {'metric':28s} {'value':>12s} {'unit':5s}  moves -> on")
    for m in layers.METRICS:
        print(f"  {m.name:28s} {values[m.name]:12.6g} {m.unit:5s}  {m.moves} -> {m.on}")
    print("  layer self time (s): " + ", ".join(f"{k} {v:.4g}" for k, v in self_times.items()))
    print(
        f"  tracing overhead: untraced jobs {plain_s:.3f} s, traced jobs {traced_s:.3f} s "
        f"({100 * (traced_s / plain_s - 1):+.1f}%)"
    )


def _print_table(rows):
    names = [name for name, _ in END_TO_END]
    units = dict(END_TO_END)
    head = ["workload", "jobs", "passes"] + [f"{n} [{units[n]}]" for n in names]
    head += ["failed_frac", "raw wall_s [s]"]
    print("  ".join(f"{h:>16s}" for h in head))
    for workload, (res, summary) in rows.items():
        cells = [workload, str(summary["jobs"]), str(summary["passes"])]
        cells += [f"{res['metrics'][n]['value']:.4f}" for n in names]
        cells.append(f"{res['failed'] / res['attempted']:.4f}")
        cells.append(f"{summary['raw_wall_s']:.4f}")
        print("  ".join(f"{c:>16s}" for c in cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chartab" / "__init__.py").is_file():
        print(f"error: no chartab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through the finally blocks that stop the job and the
    # speed sampler.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    speed.pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        if args.trace:
            for name in names:
                results[name] = measure_traced(WORKLOADS[name], args.seed)
        else:
            rows = {name: measure(WORKLOADS[name], args.seed, args.seconds) for name in names}
            _print_table(rows)
            results = {name: res for name, (res, _) in rows.items()}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0

if __name__ == "__main__":
    sys.exit(main())
