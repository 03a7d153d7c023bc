import json
import os

import pytest

from chartab import blocks, classfuncs, duality, groups, tables, verify
from chartab.arith import divisors
from chartab.cli import main
from chartab.classfuncs import ClassFunction
from chartab.duality import SizeSpectrum, recover_class_sizes, recover_real_class_sizes
from chartab.errors import TableIntegrityError, UnknownGroupError
from chartab.groups import conjugacy_data, enumerate_group, load_catalog, load_group_spec
from chartab.tables import CharacterTable, dixon_prime
from chartab.verify import _check_determinism, _check_identities, _check_recovery

from conftest import root_power

BENCH_SPECS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "specs"
)


def test_identities_reports_negative_multiplicity(group_factory, table_factory):
    # S3 with its sign row negated: still orthonormal and integral, but
    # gamma(1, -sign) = -1
    _, cd = group_factory("S3")
    table = table_factory("S3")
    rows = list(table.rows)
    rows[1] = ClassFunction(tuple(-v for v in rows[1].values))
    corrupt = CharacterTable(table.group_name, table.data, tuple(rows))
    spec = load_catalog()["S3"]
    assert _check_identities(spec, cd, corrupt) == "negative multiplicity for row 1 at n=1"


def test_determinism_for_a_group_outside_the_catalog():
    spec = load_group_spec(os.path.join(BENCH_SPECS, "S6.json"))
    assert spec.name not in load_catalog()
    # the check compares enumerations only and never reads the table
    assert _check_determinism(spec, conjugacy_data(enumerate_group(spec)), None) == ""


def per_length_recovery(spec, cd, table):
    # _check_recovery as it was before the single solve: every length from d
    # to d + 3, gamma side first
    order = cd.data.order
    d = len(divisors(order))
    seq = duality.gamma_sequence(table, d + 3)
    actual = SizeSpectrum.from_sizes(order, cd.data.sizes)
    for length in range(d, d + 4):
        if recover_class_sizes(seq[:length], order) != actual:
            return f"class-size recovery failed with {length} terms"
    dseq = duality.delta_sequence(table, d + 3)
    real_actual = SizeSpectrum.from_sizes(
        order, [s for s, r in zip(cd.data.sizes, cd.data.real_flags) if r]
    )
    for length in range(d, d + 4):
        if recover_real_class_sizes(dseq[:length], order) != real_actual:
            return f"real class-size recovery failed with {length} terms"
    return ""


def outcome(check, *args):
    try:
        return check(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("sequence", ("gamma_sequence", "delta_sequence"))
@pytest.mark.parametrize("name", ("S4", "D12"))
def test_recovery_failure_reported_as_per_length(
    monkeypatch, group_factory, table_factory, name, sequence
):
    _, cd = group_factory(name)
    table = table_factory(name)
    spec = load_catalog()[name]
    d = len(divisors(cd.data.order))
    honest = getattr(duality, sequence)
    for term in range(1, d + 4):  # corrupt one term at a time
        def corrupt(table, length, term=term):
            # as if sliced from one corrupt sequence of d + 3 terms
            seq = honest(table, length)
            if term <= length:
                seq[term - 1] += 1
            return seq

        monkeypatch.setattr(duality, sequence, corrupt)
        got = outcome(_check_recovery, spec, cd, table)
        assert got == outcome(per_length_recovery, spec, cd, table)
        if term == d + 2:
            # the first d terms still solve to the right spectrum, so the
            # surplus check names the corrupt term
            assert got.startswith(
                f"InconsistentSequenceError: surplus equation n={d + 2} fails"
            )


@pytest.mark.parametrize("surplus", ("A4", "D12"))
@pytest.mark.parametrize("sequence", ("gamma_sequence", "delta_sequence"))
def test_recovery_reports_a_wrong_spectrum(
    monkeypatch, group_factory, table_factory, sequence, surplus
):
    # the first d terms of A4's sequences solve to another spectrum of order
    # 12; with D12's own surplus terms the d + 3 solve raises instead, and
    # the per-length loop still names length d
    _, cd = group_factory("D12")
    spec = load_catalog()["D12"]
    table = table_factory("D12")
    d = len(divisors(12))
    honest = getattr(duality, sequence)

    def mixed(table, length):
        return honest(table_factory("A4"), d) + honest(table_factory(surplus), length)[d:]

    monkeypatch.setattr(duality, sequence, mixed)
    got = _check_recovery(spec, cd, table)
    assert got == per_length_recovery(spec, cd, table)
    label = "class-size" if sequence == "gamma_sequence" else "real class-size"
    assert got == f"{label} recovery failed with {d} terms"


def test_one_collapse_per_row_and_one_solve_per_sequence(monkeypatch):
    solves = []
    solve = duality._solve_vandermonde

    def counting(nodes, rhs):
        solves.append(len(rhs))
        return solve(nodes, rhs)

    monkeypatch.setattr(duality, "_solve_vandermonde", counting)
    classfuncs._collapse.cache_clear()
    results = verify.verify_catalog(["S4", "A5"])
    assert all(r.ok for r in results)
    info = classfuncs._collapse.cache_info()
    rows = 5 + 5  # S4 and A5 have five classes each
    # every (table, row, real_only) triple is collapsed exactly once
    assert info.misses == info.currsize == 2 * rows
    # one gamma and one delta solve per group
    assert len(solves) == 4


def _row(results, check):
    (row,) = [r for r in results if r.check == check]
    return row


def test_table_integrity_reports_a_changed_value(monkeypatch):
    # the second-prime rows are compared unvalidated: one changed value in
    # them must still fail the row
    honest = verify._build_table

    def changed(cd, q):
        rows = list(honest(cd, q))
        values = list(rows[-1].values)
        values[1] = values[1] + root_power(cd.data.exponent, 1)
        rows[-1] = ClassFunction(tuple(values))
        return tuple(rows)

    monkeypatch.setattr(verify, "_build_table", changed)
    data = conjugacy_data(enumerate_group(load_catalog()["S3"])).data
    q1 = dixon_prime(data.exponent, data.order)
    q2 = dixon_prime(data.exponent, data.order, above=q1)
    row = _row(verify.verify_catalog(["S3"]), "table-integrity")
    assert not row.ok
    assert row.detail == f"table changed between primes {q1} and {q2}"


def test_class_structure_reports_a_changed_constant(monkeypatch):
    # the set-up's split and commutator_counts read groups.class_matrix, so
    # only the row sees the change
    honest = verify.class_matrix

    def moved(cd, i):
        matrix = honest(cd, i)
        if i != 1:
            return matrix
        return ((matrix[0][0] + 1,) + matrix[0][1:],) + matrix[1:]

    monkeypatch.setattr(verify, "class_matrix", moved)
    row = _row(verify.verify_catalog(["S3"]), "class-structure")
    assert not row.ok
    assert row.detail == "class multiplication counting identity fails at (1, 0)"


def _second_call_changed(honest, change):
    """honest, except that its second call returns change(result)."""
    calls = []

    def patched(arg):
        calls.append(arg)
        result = honest(arg)
        return change(result) if len(calls) == 2 else result

    return patched


def test_determinism_reports_a_changed_element_order(monkeypatch):
    def reordered(group):
        return group._replace(elements=group.elements[:1] + group.elements[:0:-1])

    monkeypatch.setattr(
        verify, "enumerate_group", _second_call_changed(verify.enumerate_group, reordered)
    )
    row = _row(verify.verify_catalog(["S3"]), "determinism")
    assert not row.ok
    assert row.detail == "element ordering changed between runs"


def test_determinism_reports_changed_class_data(monkeypatch):
    def resized(cd):
        return cd._replace(data=cd.data._replace(sizes=cd.data.sizes[::-1]))

    monkeypatch.setattr(
        verify, "conjugacy_data", _second_call_changed(verify.conjugacy_data, resized)
    )
    row = _row(verify.verify_catalog(["S3"]), "determinism")
    assert not row.ok
    assert row.detail == "class data changed between runs"


def test_block_counterexample_reports_changed_values(monkeypatch):
    honest = verify.alt_normalizer_report

    def changed(table, rmap):
        return honest(table, rmap)._replace(gamma_values=(153, 153, 280))

    monkeypatch.setattr(verify, "alt_normalizer_report", changed)
    row = _row(verify.verify_catalog(["S3"]), "block-counterexample")
    assert not row.ok
    assert row.detail == "block-sum values changed: [153, 153, 280]"


def test_table_integrity_compares_the_set_up_prime_with_another(monkeypatch):
    # the set-up names its Dixon prime, so the row cannot end up comparing a
    # table with itself, whatever compute_table's default prime is
    set_up, checked = [], []
    compute, build = verify.compute_table, verify._build_table

    def recording_compute(cd, prime):
        set_up.append(prime)
        return compute(cd, prime)

    def recording_build(cd, q):
        checked.append(q)
        return build(cd, q)

    monkeypatch.setattr(verify, "compute_table", recording_compute)
    monkeypatch.setattr(verify, "_build_table", recording_build)
    assert _row(verify.verify_catalog(["S3"]), "table-integrity").ok
    assert set_up == [dixon_prime(6, 6)]
    assert len(checked) == 1 and checked != set_up


def test_table_integrity_reports_a_builder_error(monkeypatch):
    def failing(cd, prime):
        raise TableIntegrityError("eigenvector vanishes at the identity class")

    monkeypatch.setattr(verify, "_build_table", failing)
    row = _row(verify.verify_catalog(["S3"]), "table-integrity")
    assert not row.ok
    assert row.detail == "TableIntegrityError: eigenvector vanishes at the identity class"


def test_a_group_whose_table_fails_fails_every_row(monkeypatch, capsys):
    honest = verify.compute_table

    def failing_for_s3(cd, prime):
        if cd.group.name == "S3":
            raise TableIntegrityError("orthogonality violated")
        return honest(cd, prime)

    monkeypatch.setattr(verify, "compute_table", failing_for_s3)
    assert main(["verify"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 126
    failed = [check for check in checks if not check["ok"]]
    assert [check["group"] for check in failed] == ["S3"] * 9
    assert {check["detail"] for check in failed} == {"TableIntegrityError: orthogonality violated"}


def test_one_validation_per_table(monkeypatch):
    validated = []
    validate = tables.validate_table

    def counting(table):
        validated.append(table.group_name)
        return validate(table)

    monkeypatch.setattr(tables, "validate_table", counting)
    results = verify.verify_catalog(["S4", "A5"])
    assert all(r.ok for r in results)
    # the first-prime table only: the second is compared with it, not validated
    assert validated == ["S4", "A5"]


def test_trivial_character_leaving_the_principal_block_is_reported(monkeypatch):
    # the row's only guard: principal_block_members raises for row 0
    honest = blocks._central_characters

    def shifted(table):
        central = honest(table)
        return ((central[0][0] + 1,) + central[0][1:],) + central[1:]

    monkeypatch.setattr(blocks, "_central_characters", shifted)
    row = _row(verify.verify_catalog(["S3"]), "mod-M-congruences")
    assert not row.ok
    assert row.detail == "TableIntegrityError: the trivial character left the principal block"


def test_commutator_oracle_checks_two_commutators_on_s5(monkeypatch):
    honest = verify.commutator_counts

    def off_by_one(cd, length):
        n1, n2 = honest(cd, length)
        return n1, n2[:-1] + (n2[-1] + 1,)

    monkeypatch.setattr(verify, "commutator_counts", off_by_one)
    row = _row(verify.verify_catalog(["S5"]), "commutator-oracle")
    assert not row.ok
    assert row.detail == "commutator count mismatch at class 6, n=2"  # the last of 7


def test_defect_row_checks_every_n_up_to_p(monkeypatch):
    # the residues have period dividing p - 1 in n >= 2, so the row checks
    # n = 2, ..., p; a criterion that is wrong at n = 4 alone must fail it
    honest = verify.defect_zero_by_characters

    def lying_at_5_4(table, p, n, real=False):
        report = honest(table, p, n, real)
        if (p, n) == (5, 4):
            return report._replace(character_side=not report.character_side)
        return report

    monkeypatch.setattr(verify, "defect_zero_by_characters", lying_at_5_4)
    row = _row(verify.verify_catalog(["A5"]), "defect-biconditional")
    assert not row.ok
    assert row.detail == "biconditional fails for p=5, n=4, real=False"


def test_class_matrices_and_central_characters_built_once(monkeypatch):
    built = []
    build = groups._build_class_matrix

    def counting(cd, i):
        built.append((cd, i))  # holding cd keeps its id from being reused
        return build(cd, i)

    monkeypatch.setattr(groups, "_build_class_matrix", counting)
    blocks._central_characters.cache_clear()
    results = verify.verify_catalog()
    assert all(r.ok for r in results)
    # class-structure needs every matrix of every group: sum k = 61
    assert len({(id(cd), i) for cd, i in built}) == len(built) == 61
    # once per table, whatever the number of primes; the trivial group has
    # no prime to reduce at, the other 13 groups have 22 (group, p) pairs
    # between them, and the S3 counterexample row reduces at p = 3 again
    info = blocks._central_characters.cache_info()
    assert (info.misses, info.hits) == (13, 22 + 1 - 13)


def test_unknown_group_raises_unknown_group_error():
    with pytest.raises(UnknownGroupError):
        verify.verify_catalog(["NOPE"])


def test_verify_reads_the_catalog_once(monkeypatch, capsys):
    calls = []
    parse = groups.parse_catalog

    def counted(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(groups, "parse_catalog", counted)
    assert main(["verify", "--group", "S3"]) == 0
    assert json.loads(capsys.readouterr().out)["groups"] == ["S3"]
    assert len(calls) == 1
