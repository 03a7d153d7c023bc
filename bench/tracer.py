"""Run one chartab command with a span around every call into a layer.

    python3 bench/tracer.py --spans FILE [--tables DIR] -- CHARTAB-ARGS...

The runner imports chartab, replaces every public function of a layer module
by a wrapper -- both where the function is defined and wherever another
chartab module imported it -- and then calls `chartab.cli.main(argv)`.  Each
wrapper call records a span (name, start, end, parent).  Spans, counts and
the process's start-up timestamps stay in memory and are written to FILE
when the command ends.  The command's stdout and exit code are untouched, so
a traced job is checked like an untraced one.

With --tables DIR, every table that compute_table or load_table returned is
written to DIR after the command ends, for the cyclotomic probe:

    python3 bench/tracer.py --probe DIR

times Cyclotomic multiply and add on the values of those tables and prints
the per-operation times as JSON.

The Cyclotomic and finite-field element classes are not wrapped: their
methods run millions of times per job, and a wrapper there would cost more
than the work it measures.  The probe measures that layer instead.
"""

import time

T_START_NS = time.perf_counter_ns()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

LAYERS = (
    "groups", "tables", "finite_field", "reduction", "classfuncs",
    "duality", "blocks", "verify", "cli",
)


class Recorder:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent_index]
        self.stack = []
        self.counts = {}
        self.tables = []
        self.enabled = True

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0), value)

    def wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return traced


def _keep_table(rec, table):
    rec.tables.append(table)


HOOKS = {
    "groups.enumerate_group": lambda rec, group: rec.add("groups.elements", group.order),
    "tables.dixon_prime": lambda rec, q: rec.maximum("tables.dixon_prime", q),
    "tables.compute_table": _keep_table,
    "tables.load_table": _keep_table,
    "classfuncs.gamma": lambda rec, _: rec.add("classfuncs.gamma_calls"),
    "duality.gamma_sequence": lambda rec, seq: rec.add("duality.sequence_terms", len(seq)),
    "duality.delta_sequence": lambda rec, seq: rec.add("duality.sequence_terms", len(seq)),
    "reduction.build_reduction": lambda rec, rmap: rec.maximum(
        "reduction.field_size", rmap.p ** rmap.f
    ),
    "reduction.reduce_mod_M": lambda rec, _: rec.add("reduction.reduce_calls"),
}


def _layer_of(fn):
    module = getattr(fn, "__module__", "") or ""
    if not module.startswith("chartab."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


def install(rec, modules):
    """Wrap every public layer function in every module namespace that holds it."""
    wrappers = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            layer = _layer_of(obj)
            if layer is None or layer == "cli":
                continue
            if id(obj) not in wrappers:
                name = f"{layer}.{obj.__name__}"
                wrappers[id(obj)] = rec.wrap(name, obj, HOOKS.get(name))
            setattr(module, attr, wrappers[id(obj)])


def _run(spans_path, tables_dir, argv):
    import importlib

    import chartab.cli

    modules = [importlib.import_module(f"chartab.{name}") for name in LAYERS]
    t_imported = time.perf_counter_ns()
    rec = Recorder()
    install(rec, modules)
    t_main = time.perf_counter_ns()
    code = 1
    try:
        code = chartab.cli.main(argv)
    finally:
        t_end = time.perf_counter_ns()
        rec.enabled = False
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(
                {
                    "t_start_ns": T_START_NS,
                    "t_imported_ns": t_imported,
                    "t_main_ns": t_main,
                    "t_end_ns": t_end,
                    "exit": code,
                    "spans": rec.spans,
                    "counts": rec.counts,
                },
                fh,
            )
        if tables_dir:
            from chartab.tables import table_to_dict

            for i, table in enumerate(rec.tables):
                path = os.path.join(tables_dir, f"{os.getpid()}-{i}.json")
                with open(path, "w") as fh:
                    json.dump(table_to_dict(table), fh)
    return code


def probe(tables_dir, rounds=5, pairs_per_table=300):
    """Median per-operation time of Cyclotomic * and + on the given tables' values."""
    from chartab.tables import table_from_dict

    pairs = []
    seen = set()
    for name in sorted(os.listdir(tables_dir)):
        with open(os.path.join(tables_dir, name)) as fh:
            data = json.load(fh)
        key = (data["group"], data["order"])
        if key in seen:
            continue
        seen.add(key)
        values = [v for row in table_from_dict(data).rows for v in row.values]
        n = len(values)
        pairs += [(values[i % n], values[(7 * i + 3) % n]) for i in range(pairs_per_table)]
    if not pairs:
        raise SystemExit("probe: no tables to measure")

    def per_op_us(op):
        samples = []
        for _ in range(rounds):
            t = time.perf_counter_ns()
            for a, b in pairs:
                op(a, b)
            samples.append((time.perf_counter_ns() - t) / len(pairs) / 1000)
        return statistics.median(samples)

    return {
        "cyclo.mul_us": per_op_us(lambda a, b: a * b),
        "cyclo.add_us": per_op_us(lambda a, b: a + b),
        "pairs": len(pairs),
    }


def main(argv):
    if argv[:1] == ["--probe"]:
        print(json.dumps(probe(argv[1])))
        return 0
    spans_path = tables_dir = None
    while argv and argv[0] != "--":
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--spans":
            spans_path = value
        elif flag == "--tables":
            tables_dir = value
        else:
            raise SystemExit(f"tracer: unknown option {flag}")
    if spans_path is None or not argv:
        raise SystemExit(__doc__)
    return _run(spans_path, tables_dir, argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
