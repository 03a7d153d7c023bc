"""Tests of the benchmark harness itself (not of chartab).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if str(ROOT / "src") not in sys.path:
    sys.path.append(str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from run import Outcome, Proc  # noqa: E402

GOOD = json.dumps({"command": "x", "verdicts": {"ok": True}}).encode()
REF = {"exit": 0, "sha256": hashlib.sha256(GOOD).hexdigest(), "verdicts": {"ok": True}}
# Verdicts that are the computed answer rather than a self-check.
ANSWER_VERDICTS = {"all_characters_in_block", "all_divisible"}


def _proc(stdout=GOOD, exit=0, timed_out=False):
    return Proc(exit=exit, stdout=stdout, wall_s=0.1, cpu_s=0.1, rss_kb=1024,
                timed_out=timed_out, spawn_ns=0)


def test_matching_job_passes():
    assert run.check(_proc(), REF) is None
    assert run.tally([Outcome(_proc(), None)]) == (1, 0, True)


@pytest.mark.parametrize(
    "proc, reason",
    [
        (_proc(stdout=GOOD + b"\n"), "sha256"),
        (_proc(exit=1), "exit code"),
        (_proc(stdout=json.dumps({"verdicts": {"ok": False}}).encode()), "verdicts"),
        (_proc(stdout=b"not json"), "JSON"),
    ],
    ids=["wrong-hash", "non-zero-exit", "false-verdict", "garbage"],
)
def test_each_wrong_output_counts_as_failed(proc, reason):
    failure = run.check(proc, REF)
    assert reason in failure
    outcomes = [Outcome(_proc(), None), Outcome(proc, failure)]
    attempted, failed, correct = run.tally(outcomes)
    assert (attempted, failed, correct) == (2, 1, False)
    assert failed / attempted == 0.5


def test_time_out_counts_as_failed(tmp_path):
    proc = run.run_process(
        [sys.executable, "-c", "import time; time.sleep(30)"],
        tmp_path, None, 0.3, tmp_path / "stderr.txt",
    )
    assert proc.timed_out and proc.wall_s < 10
    failure = run.check(proc, REF)
    assert failure == "time-out"
    # A time-out is a failure but not a wrong output.
    assert run.tally([Outcome(proc, failure)]) == (1, 1, True)


def test_times_are_scaled_to_the_reference_speed():
    # The sampler ran at half the reference speed while the job ran.
    window = speed.Window(speed.Reading(10, 1.0), speed.Reading(14, 1.0 + 8 * speed.REFERENCE_UNIT_S))
    assert window.scale == pytest.approx(0.5)
    proc = Proc(exit=0, stdout=GOOD, wall_s=3.0, cpu_s=2.0, rss_kb=1, timed_out=False, spawn_ns=0)
    done = Outcome(proc, None, window)
    assert done.cpu_ref_s == pytest.approx(1.0)
    assert done.wall_ref_s == pytest.approx((3.0 - window.cpu_s) * 0.5)
    assert run.finished_walls([done]) == [done.wall_ref_s]
    # A killed job keeps the times its limit set, and has no job time.
    killed = Outcome(_proc(timed_out=True), "time-out", window)
    assert (killed.wall_ref_s, killed.cpu_ref_s) == (0.1, 0.1)
    assert run.finished_walls([done, killed]) == [done.wall_ref_s]
    with pytest.raises(RuntimeError):
        speed.Window(speed.Reading(3, 1.0), speed.Reading(3, 1.5)).scale


def test_sampler_counts_units_and_stops(tmp_path):
    sampler = speed.Sampler(tmp_path / "speed")
    try:
        sampler.start()
        first = sampler.read()
        speed.time.sleep(0.3)
        later = sampler.read()
        assert later.units > first.units >= 1 and later.cpu_s > first.cpu_s
    finally:
        proc = sampler.proc
        sampler.stop()
    assert proc.returncode is not None and sampler.proc is None


def test_job_left_unstarted_counts_as_failed():
    outcome = Outcome(None, "not started: run budget spent")
    assert run.tally([outcome]) == (1, 1, True)


@pytest.mark.parametrize("name", ["wall s", "lat/ms", "", "_x", ".x", "naïve", "x" * 65])
def test_bad_metric_name_is_rejected(name):
    with pytest.raises(ValueError):
        run.metric(name, 1.0, "s")


def test_benchmark_json_matches_the_harness():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: layers.UNITS[name] for name in layers.REPORTED
    }
    for name in [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]:
        run.metric(name, 1.0, "s")
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_references_cover_every_job_and_match_the_roadmap_anchors():
    refs = run.load_references()
    assert refs["table --group S5"]["sha256"].startswith("55c5fe8ee4be9bad")
    assert refs["verify"]["sha256"].startswith("978b3ea7b7b16501")
    for workload in workloads.WORKLOADS.values():
        for job in workload.jobs:
            ref = refs[job.id]
            assert ref["exit"] == 0
            for name, value in ref["verdicts"].items():
                assert value is True or name in ANSWER_VERDICTS, (job.id, name)
            if ref["sha256"] is None:
                assert job.limit_s == workloads.HANG_LIMIT_S


@pytest.mark.parametrize("name, order, classes", [("S6", 720, 11), ("A6", 360, 7), ("GL32", 168, 6)])
def test_bench_group_specs(name, order, classes):
    from chartab.groups import conjugacy_data, enumerate_group, load_group_spec

    group = enumerate_group(load_group_spec(BENCH / "specs" / f"{name}.json"))
    assert group.order == order
    assert conjugacy_data(group).k == classes


def test_seed_only_permutes_job_order():
    w = workloads.WORKLOADS["multiplicity"]
    a, b = workloads.job_order(w, 1), workloads.job_order(w, 1)
    assert a == b and sorted(map(str, a)) == sorted(map(str, w.jobs))
    assert workloads.job_order(w, 2) != a


def test_self_and_inclusive_times():
    # root [0, 100] with child [10, 40], which has child [20, 30]; then a
    # second root [200, 250] with the same name as the first child.
    spans = [["a.f", 0, 100, -1], ["b.g", 10, 40, 0], ["b.g", 20, 30, 1], ["b.g", 200, 250, -1]]
    data = {"spans": spans, "counts": {}, "t_imported_ns": 5}
    job = layers.JobTrace(data, spawn_ns=0, wall_s=1.0)
    assert job.self_s(names=("a.f",)) == pytest.approx(70e-9)
    assert job.self_s(prefix="b.") == pytest.approx((20 + 10 + 50) * 1e-9)
    assert job.inclusive_s(("b.g",)) == pytest.approx((30 + 50) * 1e-9)
    assert job.top_level_s() == pytest.approx(150e-9)
    assert job.startup_s == pytest.approx(5e-9)


def test_traced_job_prints_what_the_untraced_one_prints(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["table", "--group", "S3"]
    plain = run.run_process([sys.executable, "-m", "chartab", *argv],
                            tmp_path, env, 60, tmp_path / "err")
    spans = tmp_path / "spans.json"
    traced = run.run_process(
        [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans), "--", *argv],
        tmp_path, env, 60, tmp_path / "err",
    )
    assert plain.exit == traced.exit == 0
    assert plain.stdout == traced.stdout
    with open(spans) as fh:
        job = layers.JobTrace(json.load(fh), traced.spawn_ns, traced.wall_s)
    assert job.inclusive_s(("tables.compute_table",)) > 0
    assert job.counts["groups.elements"] == 6
    assert 0 < job.top_level_s() < job.wall_s
