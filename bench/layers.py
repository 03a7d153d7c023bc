"""Per-layer metrics from the spans the traced runner writes.

A span is [name, start_ns, end_ns, parent_index], one list per job.  A span's
self time is its duration minus the durations of its direct children.  All
time metrics here are totals over the traced runs of one pass over the
workload's job list, so they compare with that pass's wall time;
`tables.save_s` comes from the traced set-up, the only place tables are saved.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracer import LAYERS


class JobTrace:
    """The spans, counts and timestamps of one traced job."""

    def __init__(self, data: dict, spawn_ns: int, wall_s: float):
        self.spans = data["spans"]
        self.counts = data["counts"]
        self.startup_s = (data["t_imported_ns"] - spawn_ns) / 1e9
        self.wall_s = wall_s
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_ns = [end - start - c for (_, start, end, _), c in zip(self.spans, child)]

    def inclusive_s(self, names) -> float:
        """Time inside spans with these names, counting nested ones once."""
        total = 0
        for name, start, end, parent in self.spans:
            if name in names and not self._has_ancestor(parent, names):
                total += end - start
        return total / 1e9

    def _has_ancestor(self, parent, names) -> bool:
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def self_s(self, names=None, prefix=None) -> float:
        total = 0
        for span, own in zip(self.spans, self.self_ns):
            if (names and span[0] in names) or (prefix and span[0].startswith(prefix)):
                total += own
        return total / 1e9

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0) / 1e9


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    moves: str       # the end-to-end metrics a change here should move
    on: str          # on which workloads


def _inclusive(*names):
    return lambda jobs: sum(j.inclusive_s(names) for j in jobs)


def _self(*names):
    return lambda jobs: sum(j.self_s(names=names) for j in jobs)


def _layer_self(layer):
    return lambda jobs: sum(j.self_s(prefix=layer + ".") for j in jobs)


def _sum_count(name):
    return lambda jobs: sum(j.counts.get(name, 0) for j in jobs)


def _max_count(name):
    return lambda jobs: max((j.counts.get(name, 0) for j in jobs), default=0)


WALL = "wall_s"
ALL = "all four"

# name, unit, value over the pass's job traces, moves, on.  The table of the
# benchmark's design: which end-to-end metric each layer metric should move.
_SPAN_METRICS = (
    ("groups.enumerate_s", "s", _inclusive("groups.enumerate_group"), WALL,
     "table-compute, catalog-verify"),
    ("groups.conjugacy_s", "s", _inclusive("groups.conjugacy_data"), WALL,
     "table-compute, catalog-verify"),
    ("groups.class_matrix_s", "s",
     _inclusive("groups.class_matrix", "groups.class_mult_coefficients"), WALL,
     "table-compute, catalog-verify"),
    ("groups.commutator_s", "s", _inclusive("groups.count_commutator_solutions"), WALL,
     "table-compute, catalog-verify"),
    ("groups.elements", "count", _sum_count("groups.elements"), WALL,
     "table-compute, catalog-verify"),
    ("tables.compute_self_s", "s", _self("tables.compute_table"), "wall_s, job_s.max",
     "table-compute, catalog-verify"),
    ("tables.dixon_prime", "count", _max_count("tables.dixon_prime"), "wall_s, job_s.max",
     "table-compute, catalog-verify"),
    ("tables.validate_s", "s", _inclusive("tables.validate_table"), WALL, ALL),
    ("tables.orthogonality_s", "s", _inclusive("tables.verify_orthogonality"), WALL, ALL),
    ("tables.load_self_s", "s", _self("tables.load_table", "tables.table_from_dict"),
     "setup_s, wall_s", "multiplicity, congruence"),
    ("classfuncs.gamma_s", "s", _inclusive("classfuncs.gamma"), WALL,
     "multiplicity, catalog-verify"),
    ("classfuncs.delta_s", "s", _inclusive("classfuncs.delta"), WALL,
     "multiplicity, catalog-verify"),
    ("classfuncs.power_s", "s", _inclusive("classfuncs.power"), WALL,
     "multiplicity, catalog-verify"),
    ("classfuncs.inner_s", "s", _inclusive("classfuncs.inner"), WALL,
     "multiplicity, catalog-verify"),
    ("classfuncs.gamma_calls", "count", _sum_count("classfuncs.gamma_calls"), WALL,
     "multiplicity, catalog-verify"),
    ("duality.sequence_self_s", "s",
     _self("duality.gamma_sequence", "duality.delta_sequence"), WALL, "multiplicity"),
    ("duality.solve_s", "s",
     _inclusive("duality.recover_class_sizes", "duality.recover_real_class_sizes"), WALL,
     "multiplicity"),
    ("duality.defect_s", "s",
     _inclusive("duality.defect_zero_by_characters", "duality.defect_zero_direct"), WALL,
     "multiplicity"),
    ("duality.sequence_terms", "count", _sum_count("duality.sequence_terms"), WALL,
     "multiplicity"),
    ("reduction.build_s", "s", _inclusive("reduction.build_reduction"),
     "wall_s, job_s.max, failed_frac", "congruence, catalog-verify"),
    ("reduction.candidate_roots_s", "s", _inclusive("reduction.candidate_roots"),
     "wall_s, job_s.max, failed_frac", "congruence, catalog-verify"),
    ("reduction.field_size", "count", _max_count("reduction.field_size"),
     "wall_s, job_s.max, failed_frac", "congruence, catalog-verify"),
    ("reduction.reduce_s", "s", _inclusive("reduction.reduce_mod_M"), WALL, "congruence"),
    ("reduction.reduce_calls", "count", _sum_count("reduction.reduce_calls"), WALL,
     "congruence"),
    ("finite_field.self_s", "s", _layer_self("finite_field"), WALL,
     "congruence, catalog-verify"),
    ("blocks.p_element_s", "s", _inclusive("blocks.is_p_element"), WALL, "congruence"),
    ("blocks.principal_self_s", "s", _self("blocks.principal_block_members"), WALL,
     "congruence"),
    ("blocks.counterexample_s", "s",
     _inclusive("blocks.strunkov_analog_gamma", "blocks.alt_normalizer_report"), WALL,
     "congruence"),
    ("verify.self_s", "s", _layer_self("verify"), WALL, "catalog-verify"),
    ("cli.startup_s", "s", lambda jobs: sum(j.startup_s for j in jobs), "job_s.p50",
     "multiplicity, congruence"),
    ("cli.overhead_s", "s", lambda jobs: sum(j.wall_s - j.top_level_s() for j in jobs),
     "job_s.p50", "multiplicity, congruence"),
)

METRICS = tuple(LayerMetric(n, u, m, o) for n, u, _, m, o in _SPAN_METRICS) + (
    LayerMetric("tables.save_s", "s", "setup_s, wall_s", "multiplicity, congruence"),
    LayerMetric("cyclo.mul_us", "us", WALL, "multiplicity, table-compute"),
    LayerMetric("cyclo.add_us", "us", WALL, "multiplicity, table-compute"),
    LayerMetric("trace.overhead_s", "s", "-", "traced minus untraced wall time of the jobs"),
)
UNITS = {m.name: m.unit for m in METRICS}

# The metrics the benchmark's result line carries with --trace 1: every
# count, and every time that no workload leaves at zero.  The traced run
# prints the full table above that line.
REPORTED = (
    "groups.enumerate_s", "groups.conjugacy_s", "groups.elements",
    "tables.validate_s", "tables.orthogonality_s", "tables.dixon_prime",
    "classfuncs.gamma_calls", "duality.sequence_terms",
    "reduction.field_size", "reduction.reduce_calls",
    "cyclo.mul_us", "cyclo.add_us",
    "cli.startup_s", "cli.overhead_s", "trace.overhead_s",
)


def layer_values(pass_jobs, setup_jobs, probe, untraced_s, traced_s) -> dict:
    """Every per-layer metric, by name."""
    values = {name: fn(pass_jobs) for name, _, fn, _, _ in _SPAN_METRICS}
    values["tables.save_s"] = _inclusive("tables.save_table")(setup_jobs)
    values["cyclo.mul_us"] = probe["cyclo.mul_us"]
    values["cyclo.add_us"] = probe["cyclo.add_us"]
    values["trace.overhead_s"] = traced_s - untraced_s
    return values


def layer_self_times(pass_jobs) -> dict:
    """Self time of each traced layer over the pass, seconds."""
    return {layer: _layer_self(layer)(pass_jobs) for layer in LAYERS if layer != "cli"}
