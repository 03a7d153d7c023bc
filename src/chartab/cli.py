"""Command-line interface.

Every subcommand prints one JSON report (or a plain-text rendering with
--human) that names the group, its order, and where the character table came
from.  Reports are deterministic for fixed inputs.

Each `python -m chartab` run is one short process whose mathematics often
takes less time than starting the interpreter and importing the package.
So only the modules every command needs (arith, errors, groups and tables)
are imported here; each handler imports the rest of what it runs, and a
`recover` job never loads the residue fields, blocks or the verify suite.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import divisors, is_prime, p_part
from .errors import (
    CapExceededError,
    EigensplitError,
    FormatError,
    InconsistentSequenceError,
    NonIntegralValueError,
    TableIntegrityError,
    UnknownGroupError,
)
from .groups import (
    DEFAULT_ELEMENT_CAP,
    conjugacy_data,
    cycle_string,
    enumerate_group,
    load_catalog,
    load_group_spec,
)
from .tables import compute_table, load_table, save_table, table_to_dict

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_UNKNOWN_GROUP = 3
EXIT_FORMAT = 4
EXIT_BAD_PARAMETER = 5
EXIT_CAP_EXCEEDED = 6
EXIT_INTEGRITY = 7
EXIT_INCONSISTENT = 8


def _add_group_args(sub, table_source=True):
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--group", help="name of a catalog group")
    src.add_argument("--spec-file", help="path to a group spec JSON file")
    sub.add_argument(
        "--cap", type=int, default=DEFAULT_ELEMENT_CAP,
        help="element cap for group enumeration",
    )
    if table_source:
        sub.add_argument(
            "--table-file",
            help="load the character table from this file instead of computing it",
        )


def _resolve_group(args):
    if args.group is not None:
        specs = load_catalog()
        if args.group not in specs:
            raise UnknownGroupError(args.group)
        spec = specs[args.group]
    else:
        spec = load_group_spec(args.spec_file)
    group = enumerate_group(spec, cap=args.cap)
    return group, conjugacy_data(group)


def _resolve_table(args, group, cd):
    path = getattr(args, "table_file", None)
    if path is None:
        return compute_table(group, cd)
    table = load_table(path)
    if table.data != cd.data:
        raise FormatError(
            f"table file {path!r} does not match the class data of group {group.name!r}"
        )
    return table


def _report(command, group, provenance, inputs, results, verdicts=None):
    return {
        "command": command,
        "group": group.name,
        "order": group.order,
        "table_provenance": provenance,
        "inputs": inputs,
        "results": results,
        "verdicts": verdicts or {},
    }


def _emit(report, human: bool) -> None:
    if human:
        _emit_human(report)
    else:
        print(json.dumps(report, indent=2))


def _emit_human(report, indent=0) -> None:
    pad = "  " * indent
    if isinstance(report, dict):
        for key, value in report.items():
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                print(f"{pad}{key}:")
                _emit_human(value, indent + 1)
            else:
                print(f"{pad}{key}: {_flat(value)}")
    elif isinstance(report, list):
        for item in report:
            if isinstance(item, (dict, list)):
                _emit_human(item, indent)
                print()
            else:
                print(f"{pad}- {_flat(item)}")


def _is_flat(value) -> bool:
    if isinstance(value, list):
        return all(not isinstance(x, (dict, list)) for x in value)
    return False


def _flat(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(str(x) for x in value) + "]"
    if isinstance(value, dict) and not value:
        return "{}"
    return str(value)


# -- subcommand handlers ---------------------------------------------------


def _cmd_classes(args):
    group, cd = _resolve_group(args)
    data = cd.data
    results = {
        "class_count": cd.k,
        "sizes": list(data.sizes),
        "centralizer_orders": list(data.centralizer_orders),
        "representatives": [cycle_string(group.elements[r]) for r in cd.representatives],
        "representative_orders": list(data.rep_orders),
        "inverse_class": list(data.inverse_class),
        "real_flags": list(data.real_flags),
        "exponent": data.exponent,
    }
    report = _report("classes", group, None, {}, results)
    _emit(report, args.human)
    return EXIT_OK


def _cmd_table(args):
    group, cd = _resolve_group(args)
    table = _resolve_table(args, group, cd)
    if args.save:
        save_table(table, args.save)
    results = table_to_dict(table)
    results["degrees"] = list(table.degrees)
    if args.human:
        print(f"group: {group.name}  order: {group.order}  source: {table.provenance}")
        print(f"class sizes:  {' '.join(str(s) for s in table.data.sizes)}")
        print(f"rep orders:   {' '.join(str(o) for o in table.data.rep_orders)}")
        width = max(
            len(str(v)) for row in table.rows for v in row.values
        )
        for i, row in enumerate(table.rows):
            cells = " ".join(str(v).rjust(width) for v in row.values)
            print(f"X{i}: {cells}")
        if args.save:
            print(f"saved to {args.save}")
        return EXIT_OK
    report = _report(
        "table", group, table.provenance,
        {"saved_to": args.save}, results,
    )
    _emit(report, False)
    return EXIT_OK


def _cmd_gamma(args):
    from .classfuncs import check_power, delta, gamma

    group, cd = _resolve_group(args)
    check_power(args.n)
    table = _resolve_table(args, group, cd)
    gammas = [gamma(args.n, row) for row in table.rows]
    deltas = [delta(args.n, row) for row in table.rows]
    results = {
        "n": args.n,
        "degrees": list(table.degrees),
        "gamma": gammas,
        "delta": deltas,
    }
    report = _report("gamma", group, table.provenance, {"n": args.n}, results)
    _emit(report, args.human)
    return EXIT_OK


def _cmd_recover(args):
    from .duality import (
        SizeSpectrum,
        delta_sequence,
        gamma_sequence,
        recover_class_sizes,
        recover_real_class_sizes,
    )

    group, cd = _resolve_group(args)
    table = _resolve_table(args, group, cd)
    d = len(divisors(group.order))
    length = d + args.extra_terms
    data = cd.data
    if args.real:
        seq = delta_sequence(table, length)
        spectrum = recover_real_class_sizes(seq, group.order)
        actual = SizeSpectrum.from_sizes(
            group.order, [s for s, r in zip(data.sizes, data.real_flags) if r]
        )
    else:
        seq = gamma_sequence(table, length)
        spectrum = recover_class_sizes(seq, group.order)
        actual = SizeSpectrum.from_sizes(group.order, data.sizes)
    results = {
        "real": args.real,
        "sequence": seq,
        "recovered_spectrum": [list(pair) for pair in spectrum.counts],
        "actual_spectrum": [list(pair) for pair in actual.counts],
    }
    verdicts = {"matches_group": spectrum == actual}
    report = _report("recover", group, table.provenance, {"real": args.real}, results, verdicts)
    _emit(report, args.human)
    return EXIT_OK


def _require_prime(p):
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _cmd_defect(args):
    from .duality import defect_zero_by_characters

    group, cd = _resolve_group(args)
    _require_prime(args.p)
    table = _resolve_table(args, group, cd)
    results = defect_zero_by_characters(table, args.p, args.n, args.real).as_dict()
    verdicts = results.pop("verdicts")
    report = _report(
        "defect", group, table.provenance,
        {"p": args.p, "n": args.n, "real": args.real},
        {"group": group.name, **results}, verdicts,
    )
    _emit(report, args.human)
    return EXIT_OK


def _cmd_pelements(args):
    from .blocks import is_p_element
    from .reduction import build_reduction

    group, cd = _resolve_group(args)
    _require_prime(args.p)
    table = _resolve_table(args, group, cd)
    rmap = build_reduction(group.exponent, args.p)
    congruence = [is_p_element(i, args.p, table, rmap) for i in range(cd.k)]
    direct = [p_part(order, args.p) == order for order in cd.data.rep_orders]
    results = {
        "p": args.p,
        "residue_field": {"p": rmap.p, "degree": rmap.f, "order_of_root": rmap.m},
        "congruence_test": congruence,
        "direct_order_test": direct,
        "p_element_classes": [i for i, f in enumerate(congruence) if f],
    }
    verdicts = {"tests_agree": congruence == direct}
    report = _report(
        "pelements", group, table.provenance, {"p": args.p}, results, verdicts
    )
    _emit(report, args.human)
    return EXIT_OK


def _cmd_blocks(args):
    from .blocks import principal_block_members

    group, cd = _resolve_group(args)
    _require_prime(args.p)
    table = _resolve_table(args, group, cd)
    rep = principal_block_members(table, args.p)
    results = {"group": group.name, **rep.as_dict(), "degrees": list(table.degrees)}
    report = _report(
        "blocks", group, table.provenance, {"p": args.p}, results,
        {"all_characters_in_block": len(rep.members) == table.data.k},
    )
    _emit(report, args.human)
    return EXIT_OK


def _cmd_counterexample(args):
    from .blocks import alt_normalizer_report, principal_block_members, strunkov_analog_gamma

    group, cd = _resolve_group(args)
    _require_prime(args.p)
    table = _resolve_table(args, group, cd)
    if args.alt_normalizer:
        results = {"group": group.name, **alt_normalizer_report(table, args.p).as_dict()}
        report = _report(
            "counterexample", group, table.provenance,
            {"p": args.p, "alt_normalizer": True}, results,
        )
        _emit(report, args.human)
        return EXIT_OK
    block = principal_block_members(table, args.p).members
    values = [strunkov_analog_gamma(table, args.p, row, block=block) for row in table.rows]
    bound = args.p * p_part(group.order, args.p)
    results = {
        "p": args.p,
        "principal_block": list(block),
        "gamma_psi": values,
        "modulus": bound,
        "residues": [v % bound for v in values],
    }
    verdicts = {"all_divisible": all(v % bound == 0 for v in values)}
    report = _report(
        "counterexample", group, table.provenance, {"p": args.p}, results, verdicts
    )
    _emit(report, args.human)
    return EXIT_OK


def _cmd_verify(args):
    from .verify import verify_catalog

    names = None
    if args.group is not None:
        if args.group not in load_catalog():
            raise UnknownGroupError(args.group)
        names = [args.group]
    results = verify_catalog(names)
    ok = all(r.ok for r in results)
    if args.human:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            line = f"{status} {r.group:8s} {r.check}"
            if r.detail:
                line += f"  ({r.detail})"
            print(line)
        print(f"{'all checks passed' if ok else 'FAILURES PRESENT'}")
    else:
        report = {
            "command": "verify",
            "groups": names or list(load_catalog()),
            "checks": [r.as_dict() for r in results],
            "verdicts": {"all_passed": ok},
        }
        print(json.dumps(report, indent=2))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chartab",
        description="Exact character tables of small permutation groups, "
        "with class-size recovery and congruence verifiers.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--human", action="store_true", help="plain text instead of JSON")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser(
        "classes", parents=[common],
        help="conjugacy class sizes, centralizers, real flags",
    )
    _add_group_args(sub, table_source=False)
    sub.set_defaults(handler=_cmd_classes)

    sub = subs.add_parser(
        "table", parents=[common], help="compute, load, or save the character table"
    )
    _add_group_args(sub)
    sub.add_argument("--save", help="write the table to this JSON file")
    sub.set_defaults(handler=_cmd_table)

    sub = subs.add_parser(
        "gamma", parents=[common],
        help="multiplicity values for every irreducible character",
    )
    _add_group_args(sub)
    sub.add_argument("-n", type=int, required=True, help="power of the class function")
    sub.set_defaults(handler=_cmd_gamma)

    sub = subs.add_parser(
        "recover", parents=[common],
        help="recover class sizes from the multiplicity sequence",
    )
    _add_group_args(sub)
    sub.add_argument("--real", action="store_true", help="recover real class sizes instead")
    sub.add_argument(
        "--extra-terms", type=int, default=3,
        help="surplus sequence terms to verify beyond the divisor count",
    )
    sub.set_defaults(handler=_cmd_recover)

    sub = subs.add_parser(
        "defect", parents=[common], help="defect-0 detection: residues vs direct test"
    )
    _add_group_args(sub)
    sub.add_argument("-p", type=int, required=True, help="the prime")
    sub.add_argument("-n", type=int, default=2, help="power (at least 2)")
    sub.add_argument("--real", action="store_true", help="restrict to real classes")
    sub.set_defaults(handler=_cmd_defect)

    sub = subs.add_parser(
        "pelements", parents=[common],
        help="p-element congruence test vs element orders",
    )
    _add_group_args(sub)
    sub.add_argument("-p", type=int, required=True, help="the prime")
    sub.set_defaults(handler=_cmd_pelements)

    sub = subs.add_parser(
        "blocks", parents=[common],
        help="principal block membership mod a maximal ideal",
    )
    _add_group_args(sub)
    sub.add_argument("-p", type=int, required=True, help="the prime")
    sub.set_defaults(handler=_cmd_blocks)

    sub = subs.add_parser(
        "counterexample", parents=[common],
        help="block-weighted commutator-analog multiplicities and their divisibility",
    )
    _add_group_args(sub)
    sub.add_argument("-p", type=int, required=True, help="the prime")
    sub.add_argument(
        "--alt-normalizer", action="store_true",
        help="report divisibility by the block degree sum and its p-part too",
    )
    sub.set_defaults(handler=_cmd_counterexample)

    sub = subs.add_parser(
        "verify", parents=[common], help="run the full invariant suite over the catalog"
    )
    sub.add_argument("--group", help="restrict to one catalog group")
    sub.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UnknownGroupError as exc:
        print(f"error: unknown group {exc.args[0]!r}", file=sys.stderr)
        return EXIT_UNKNOWN_GROUP
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except InconsistentSequenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (TableIntegrityError, EigensplitError, NonIntegralValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
