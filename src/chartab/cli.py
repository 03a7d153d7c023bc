"""Command-line interface.

Every subcommand prints one JSON report (or a plain-text rendering with
--human) that names the group, its order, and where the character table came
from.  Reports are deterministic for fixed inputs.

Each `python -m chartab` run is one short process whose mathematics often
takes less time than starting the interpreter and importing the package.
So only the modules every command needs (errors and groups) are imported
here; each handler imports the rest of what it runs.  `classes`, `-h` and a
usage error load no table code, and a `recover` job never loads the
reduction mod p, blocks or the verify suite.  `tables` loads a
`--table-file`; only when a table is computed does `tables.compute_table`
import the Dixon-Schneider split from `dixon`.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .errors import (
    CapExceededError,
    FormatError,
    InconsistentSequenceError,
    NonIntegralValueError,
    TableIntegrityError,
    UnknownGroupError,
)
from .groups import (
    DEFAULT_ELEMENT_CAP,
    catalog_group,
    check_cap,
    conjugacy_data,
    cycle_string,
    enumerate_group,
    load_group_spec,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_UNKNOWN_GROUP = 3
EXIT_FORMAT = 4
EXIT_BAD_PARAMETER = 5
EXIT_CAP_EXCEEDED = 6
EXIT_INTEGRITY = 7
EXIT_INCONSISTENT = 8
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer

# (error types, exit code), first match first: FormatError,
# InconsistentSequenceError and NonIntegralValueError are also ValueErrors
ERRORS = (
    (UnknownGroupError, EXIT_UNKNOWN_GROUP),
    (FormatError, EXIT_FORMAT),
    (CapExceededError, EXIT_CAP_EXCEEDED),
    (InconsistentSequenceError, EXIT_INCONSISTENT),
    ((TableIntegrityError, NonIntegralValueError), EXIT_INTEGRITY),
    ((ValueError, OSError), EXIT_BAD_PARAMETER),
)


def _resolve_group(args):
    if args.group is not None:
        group = catalog_group(args.group, cap=args.cap)
    else:
        group = enumerate_group(load_group_spec(args.spec_file), cap=args.cap)
    return conjugacy_data(group)


def _resolve_table(args):
    """The table a table command reads: a --table-file alone is the whole input.

    A named group is enumerated to compute its table or to vouch for the file,
    which must then hold the group's class data; the table takes its name.
    """
    from .tables import CharacterTable, compute_table, load_table

    path = args.table_file
    if args.group is None and args.spec_file is None:
        check_cap(args.cap)
        return load_table(path)
    cd = _resolve_group(args)
    if path is None:
        return compute_table(cd)
    table = load_table(path)
    name = cd.group.name
    if table.data != cd.data:
        raise FormatError(
            f"table file {path!r} does not match the class data of group {name!r}"
        )
    return CharacterTable(name, table.data, table.rows, table.provenance)


def _finish(args, command, table, inputs, results, verdicts=None):
    report = {
        "command": command,
        "group": table.group_name,
        "order": table.data.order,
        "table_provenance": table.provenance,
        "inputs": inputs,
        "results": results,
        "verdicts": verdicts or {},
    }
    _emit(report, args.human)
    return EXIT_OK


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
    cd = _resolve_group(args)
    group, data = cd.group, cd.data
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
    report = {
        "command": "classes", "group": group.name, "order": data.order,
        "table_provenance": None, "inputs": {}, "results": results, "verdicts": {},
    }
    _emit(report, args.human)
    return EXIT_OK


def _cmd_table(args):
    from .tables import save_table, table_to_dict

    table = _resolve_table(args)
    if args.save:
        save_table(table, args.save)
    results = table_to_dict(table)
    results["degrees"] = list(table.degrees)
    if args.human:
        print(f"group: {table.group_name}  order: {table.data.order}  source: {table.provenance}")
        print(f"class sizes:  {' '.join(str(s) for s in table.data.sizes)}")
        print(f"rep orders:   {' '.join(str(o) for o in table.data.rep_orders)}")
        width = max(len(str(v)) for row in table.rows for v in row.values)
        for i, row in enumerate(table.rows):
            cells = " ".join(str(v).rjust(width) for v in row.values)
            print(f"X{i}: {cells}")
        if args.save:
            print(f"saved to {args.save}")
        return EXIT_OK
    return _finish(args, "table", table, {"saved_to": args.save}, results)


def _cmd_gamma(args):
    from .classfuncs import check_power, check_printable, delta, gamma

    check_power(args.n)
    table = _resolve_table(args)
    check_printable(args.n, table.data.order)
    gammas = [gamma(args.n, table, r) for r in range(len(table.rows))]
    deltas = [delta(args.n, table, r) for r in range(len(table.rows))]
    results = {
        "n": args.n,
        "degrees": list(table.degrees),
        "gamma": gammas,
        "delta": deltas,
    }
    return _finish(args, "gamma", table, {"n": args.n}, results)


def _cmd_recover(args):
    from .classfuncs import check_power
    from .duality import EXTRA_TERMS, recover_from_table

    extra_terms = EXTRA_TERMS if args.extra_terms is None else args.extra_terms
    if extra_terms < 0:
        raise ValueError(f"--extra-terms must be at least 0, got {extra_terms}")
    check_power(1 + extra_terms, "sequence length")  # every order has a divisor
    table = _resolve_table(args)
    seq, spectrum, actual = recover_from_table(table, args.real, extra_terms)
    results = {
        "real": args.real,
        "sequence": seq,
        "recovered_spectrum": [list(pair) for pair in spectrum.counts],
        "actual_spectrum": [list(pair) for pair in actual.counts],
    }
    verdicts = {"matches_group": spectrum == actual}
    return _finish(args, "recover", table, {"real": args.real}, results, verdicts)


def _cmd_defect(args):
    from .arith import require_prime
    from .duality import check_defect_power, defect_zero_by_characters

    require_prime(args.p)
    check_defect_power(args.n)
    table = _resolve_table(args)
    rep = defect_zero_by_characters(table, args.p, args.n, args.real)
    inputs = {"p": args.p, "n": args.n, "real": args.real}
    results = {
        "group": table.group_name, **inputs, "residues_mod_p": list(rep.residues),
        "defect_zero_classes": list(rep.defect_zero_classes),
    }
    verdicts = {
        "character_side": rep.character_side, "direct_side": rep.direct_side,
        "agree": rep.character_side == rep.direct_side,
    }
    return _finish(args, "defect", table, inputs, results, verdicts)


def _resolve_reduction(args):
    """The table and the reduction map mod the ideals over `-p`."""
    from .arith import require_prime
    from .reduction import build_reduction

    require_prime(args.p)
    table = _resolve_table(args)
    return table, build_reduction(table.data.exponent, args.p)


def _cmd_pelements(args):
    from .arith import p_part
    from .blocks import p_element_flags

    table, rmap = _resolve_reduction(args)
    congruence = list(p_element_flags(table, rmap))
    direct = [p_part(order, args.p) == order for order in table.data.rep_orders]
    results = {
        "p": args.p,
        "residue_field": {"p": rmap.p, "degree": rmap.f, "order_of_root": rmap.m},
        "congruence_test": congruence,
        "direct_order_test": direct,
        "p_element_classes": [i for i, f in enumerate(congruence) if f],
    }
    verdicts = {"tests_agree": congruence == direct}
    return _finish(args, "pelements", table, {"p": args.p}, results, verdicts)


def _cmd_blocks(args):
    from .blocks import principal_block_members

    table, rmap = _resolve_reduction(args)
    rep = principal_block_members(table, rmap)
    results = {
        "group": table.group_name, "p": rep.p, "members": list(rep.members),
        "member_flags": list(rep.member_flags),
        "failure_witnesses": [list(pair) for pair in rep.failures],
        "degrees": list(table.degrees),
    }
    return _finish(
        args, "blocks", table, {"p": args.p}, results,
        {"all_characters_in_block": len(rep.members) == table.data.k},
    )


def _cmd_counterexample(args):
    from .blocks import alt_normalizer_report

    table, rmap = _resolve_reduction(args)
    alt = alt_normalizer_report(table, rmap)
    if args.alt_normalizer:
        inputs = {"p": args.p, "alt_normalizer": True}
        normalizers = {
            "p_times_order_p_part": alt.p_times_order_p_part,
            "block_degree_sum": alt.block_degree_sum,
            "block_degree_sum_p_part": alt.block_degree_sum_p_part,
        }
        results, verdicts = {
            "group": table.group_name, "p": args.p, "block": list(alt.block),
            "gamma_values": list(alt.gamma_values), "normalizers": normalizers,
            "divisibility": {
                name: [v % n == 0 for v in alt.gamma_values] for name, n in normalizers.items()
            },
        }, None
    else:
        inputs = {"p": args.p}
        bound = alt.p_times_order_p_part
        results = {
            "p": args.p,
            "principal_block": list(alt.block),
            "gamma_psi": list(alt.gamma_values),
            "modulus": bound,
            "residues": [v % bound for v in alt.gamma_values],
        }
        verdicts = {"all_divisible": not any(results["residues"])}
    return _finish(args, "counterexample", table, inputs, results, verdicts)


def _cmd_verify(args):
    from .verify import verify_catalog

    results = verify_catalog(None if args.group is None else [args.group])
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
            "groups": list(dict.fromkeys(r.group for r in results)),
            "checks": [
                {"group": r.group, "check": r.check, "ok": r.ok}
                | ({"detail": r.detail} if r.detail else {})
                for r in results
            ],
            "verdicts": {"all_passed": ok},
        }
        print(json.dumps(report, indent=2))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# -- command table ---------------------------------------------------------

# An option is (flag, kind, default, help): kind is int or str for an option
# with a value and None for a switch, and a REQUIRED default makes it
# mandatory; its dest is the flag without leading dashes, "-" read as "_".
# The table replaces argparse, whose import and parsers cost ~8 ms a job.
REQUIRED = object()
HELP = ("-h", "--help")
_GROUP = (
    ("--human", None, False, "plain text instead of JSON"),
    ("--group", str, None, "name of a catalog group"),
    ("--spec-file", str, None, "path to a group spec JSON file, in place of --group"),
    ("--cap", int, DEFAULT_ELEMENT_CAP, "element cap for group enumeration"),
)
_TABLE = (
    *_GROUP,
    ("--table-file", str, None,
     "load the character table from this file instead of computing it"),
)
_PRIME = ("-p", int, REQUIRED, "the prime")

# name: (handler, help, options)
COMMANDS = {
    "classes": (_cmd_classes, "conjugacy class sizes, centralizers, real flags", _GROUP),
    "table": (_cmd_table, "compute, load, or save the character table",
              (*_TABLE, ("--save", str, None, "write the table to this JSON file"))),
    "gamma": (_cmd_gamma, "multiplicity values for every irreducible character",
              (*_TABLE, ("-n", int, REQUIRED, "power of the class function"))),
    "recover": (_cmd_recover, "recover class sizes from the multiplicity sequence", (
        *_TABLE, ("--real", None, False, "recover real class sizes instead"),
        ("--extra-terms", int, None, "surplus sequence terms to verify beyond the divisor count"),
    )),
    "defect": (_cmd_defect, "defect-0 detection: residues vs direct test", (
        *_TABLE, _PRIME, ("-n", int, 2, "power (at least 2)"),
        ("--real", None, False, "restrict to real classes"),
    )),
    "pelements": (_cmd_pelements, "p-element congruence test vs element orders",
                  (*_TABLE, _PRIME)),
    "blocks": (_cmd_blocks, "principal block membership mod a maximal ideal",
               (*_TABLE, _PRIME)),
    "counterexample": (_cmd_counterexample, "block-weighted commutator-analog multiplicities", (
        *_TABLE, _PRIME,
        ("--alt-normalizer", None, False, "also test the block degree sum and its p-part"),
    )),
    "verify": (_cmd_verify, "run the full invariant suite over the catalog",
               (_GROUP[0], ("--group", str, None, "restrict to one catalog group"))),
}


class _UsageError(Exception):
    """A command line COMMANDS does not accept: (command or None, message)."""


def _form(flag, kind):
    return flag if kind is None else f"{flag} {flag.lstrip('-').upper()}"


def _parse(argv):
    """(command, args) for argv; args is None when argv asks for help."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    options = {o[0]: o for o in COMMANDS[command][2]} if command else {}
    values = {}
    words = iter(argv[1:] if command else argv)
    for word in words:
        flag, eq, value = word.partition("=")
        if word[:1] == "-" and word[1:2] != "-" and len(flag) > 2:
            flag, eq, value = word[:2], "=", word[2:]
        if flag not in options and flag not in HELP:
            found = [f for f in (*options, *HELP) if len(flag) > 2 and f.startswith(flag)]
            if len(found) != 1:
                problem = "ambiguous" if found else "unknown"
                raise _UsageError(command, f"{problem} argument {word}")
            flag = found[0]
        if flag in HELP:
            return command, None
        kind = options[flag][1]
        if kind is None and eq:
            raise _UsageError(command, f"{flag} takes no value")
        if kind is not None and not eq:
            value = next(words, "-")
            # a negative number is a value, any other word with a dash an option
            if value.startswith("-") and not value[1:].replace(".", "", 1).isdigit():
                raise _UsageError(command, f"{flag} expects a value")
        try:
            values[flag] = True if kind is None else kind(value)
        except ValueError:
            raise _UsageError(command, f"{flag} expects an int, got {value!r}") from None
    if command is None:
        raise _UsageError(None, "a command is required")
    named = ("--group" in values) + ("--spec-file" in values)
    if "--spec-file" in options and named != 1 and (named or "--table-file" not in values):
        alone = ", or --table-file alone" if "--table-file" in options else ""
        raise _UsageError(command, f"give one of --group and --spec-file{alone}")
    args = SimpleNamespace()
    for flag, _, default, _ in options.values():
        if default is REQUIRED and flag not in values:
            raise _UsageError(command, f"{flag} is required")
        setattr(args, flag.lstrip("-").replace("-", "_"), values.get(flag, default))
    return command, args


def _usage(command):
    if command is None:
        return f"usage: chartab [-h] {{{','.join(COMMANDS)}}} ..."
    words = [
        _form(flag, kind) if default is REQUIRED else f"[{_form(flag, kind)}]"
        for flag, kind, default, _ in COMMANDS[command][2]
    ]
    return f"usage: chartab {command} [-h] {' '.join(words)}"


def _help(command):
    """The -h text of command, or of chartab itself when command is None."""
    if command is None:
        about = "exact character tables of small permutation groups, with class-size recovery"
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
    else:
        about = COMMANDS[command][1]
        rows = [(_form(flag, kind), text) for flag, kind, _, text in COMMANDS[command][2]]
    rows.insert(0, ("-h, --help", "show this help and exit"))
    return "\n".join([_usage(command), "", about, "", *(f"  {a:26} {b}" for a, b in rows)])


def main(argv=None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        command, message = exc.args
        print(f"{_usage(command)}\nchartab: error: {message}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args is None:
            print(_help(command))
            code = EXIT_OK
        else:
            code = COMMANDS[command][0](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so the exit-time
        # flush of what is still buffered cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception as exc:
        for types, code in ERRORS:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise
