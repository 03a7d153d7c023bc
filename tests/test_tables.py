import hashlib
import itertools
import json
import random
import sys
import time
from math import gcd, lcm

import pytest

from chartab import dixon, tables
from chartab.arith import euler_phi
from chartab.cli import main
from chartab.classfuncs import ClassFunction
from chartab.cyclo import Cyclotomic
from chartab.errors import FormatError, TableIntegrityError
from chartab.groups import (
    ClassData, GroupSpec, conjugacy_data, enumerate_group, load_group_spec,
)
from chartab.tables import (
    CharacterTable,
    compute_table,
    dixon_prime,
    load_table,
    save_table,
    table_from_dict,
    table_to_dict,
    validate_table,
    verify_orthogonality,
)

from conftest import (
    ALL_GROUPS, BENCH_SPECS, MISTYPED_FIELDS, PSL2_PRIMES, SPEC_GROUPS, composes,
    cycle_type, psl2_degrees, psl2_order, psl2_spec, root_power, value_record,
)


def _all_powers_identity(data):
    # every rep order 3 and every power the identity
    data["rep_orders"] = [3] * len(data["rep_orders"])
    data["power_map"] = [[0] * data["exponent"] for _ in data["power_map"]]


def _set_every_period(data, i, t, c):
    # power t of class i set to class c in every period of its written-out walk
    row = data["power_map"][i]
    row[t :: data["rep_orders"][i]] = [c] * (len(row) // data["rep_orders"][i])


def _zeroth_power(data):
    i = data["rep_orders"].index(2)
    _set_every_period(data, i, 0, i)


def _first_power(data):
    # g^1 of a 3-cycle set to the transpositions; g^2 still ends at its inverse
    i, j = data["rep_orders"].index(3), data["rep_orders"].index(2)
    _set_every_period(data, i, 1, j)


def _rep_order(data):
    data["rep_orders"][data["rep_orders"].index(3)] = 6


def _last_power(data):
    i = data["rep_orders"].index(3)
    _set_every_period(data, i, 2, 0)


def _exponent(data):
    # the trivial group written over Q(E(2)): every check but the lcm holds
    data["exponent"] = 2
    data["power_map"] = [[0, 0]]
    data["rows"] = [[value_record(2, 1)]]


def _period(data):
    # S4's 4-cycles with g^8 set to the 4-cycle class, where g^8 = g^4 = 1
    i = data["rep_orders"].index(4)
    data["power_map"][i][8] = i


def _composition(data):
    # S4's 4-cycles with their squares (t = 2, 6, 10) set to the 4-cycle
    # class: still periodic, but (g^2)^2 is a 4-cycle where g^4 = 1
    i = data["rep_orders"].index(4)
    for t in (2, 6, 10):
        data["power_map"][i][t] = i


# each corruption breaks exactly one power-map invariant of a well-formed
# file: (group, corruption, the message of the check that refuses it)
POWER_MAP_CORRUPTIONS = {
    "all-powers-identity": (
        "S4", _all_powers_identity, "power map of class 1 does not end at its inverse class"
    ),
    "zeroth-power": (
        "S3", _zeroth_power,
        "power map of class 2 does not start with the identity and class 2",
    ),
    "first-power": (
        "S3", _first_power,
        "power map of class 1 does not start with the identity and class 1",
    ),
    "rep-order": (
        "S3", _rep_order, "power map of class 1 reaches the identity before its rep order 6"
    ),
    "last-power": (
        "S3", _last_power, "power map of class 1 does not end at its inverse class"
    ),
    "exponent": ("trivial", _exponent, "the exponent is not the lcm of the rep orders"),
    "period": ("S4", _period, "power map of class 3 does not repeat with period 4"),
    "composition": (
        "S4", _composition,
        "power map of class 3 does not compose: some (g^2)^t is not in the class of g^(2t)",
    ),
}


# sha256 prefixes of the files `save_table` writes, each power-map row a
# walk written out to the exponent; a writer that leaves the walks at their
# own length changes every file but the trivial group's
SAVED_FILE_DIGESTS = {
    "trivial": "db27df994aa7013f", "C2": "d459b95197c29715", "C3": "b73a3e9bb1e1f260",
    "C4": "d031ac14e76315de", "C5": "21f613f1b66452d6", "C6": "f52cb9b6e8c58984",
    "S3": "7d0de51d21f880f7", "D8": "009ec673c3adee7d", "Q8": "2ba075509f91a7bd",
    "D12": "3a2e09315b4f8e1f", "A4": "8edaeab24b97a205", "S4": "a6116a255417cba3",
    "A5": "ebc24b81c526379a", "S5": "8556985921d02cb1", "S6": "048f0bf7de1199ee",
    "A6": "03e38ddf65b7265c", "GL32": "8aa93c6dfcdf86dc",
}


class TestDixonPrime:
    def test_s3(self):
        assert dixon_prime(6, 6) == 7

    def test_a5(self):
        assert dixon_prime(30, 60) == 31

    def test_trivial(self):
        assert dixon_prime(1, 1) == 3

    def test_congruence_and_size(self):
        for e, order in ((6, 6), (12, 24), (30, 60), (60, 120), (4, 8)):
            q = dixon_prime(e, order)
            assert q % e == 1
            assert q * q > 4 * order
            assert order % q != 0

    def test_next_admissible(self):
        q1 = dixon_prime(6, 6)
        q2 = dixon_prime(6, 6, above=q1)
        assert q2 > q1 and q2 % 6 == 1

    def test_divisor_skipped(self):
        # for the cyclic group of order 7 the first candidate 7 divides the order
        assert dixon_prime(7, 7) == 29


class TestComputeTable:
    def test_c2_rows(self, table_factory):
        table = table_factory("C2")
        one = Cyclotomic(2, [1])
        assert table.rows[0].values == (one, one)
        assert table.rows[1].values == (one, -one)

    def test_s3(self, table_factory):
        table = table_factory("S3")
        assert table.degrees == (1, 1, 2)
        expected = [
            [1, 1, 1],
            [1, 1, -1],
            [2, -1, 0],
        ]
        for row, exp in zip(table.rows, expected):
            assert [v for v in row.values] == [Cyclotomic(6, [x]) for x in exp]

    def test_a5_degrees(self, table_factory):
        table = table_factory("A5")
        assert table.degrees == (1, 3, 3, 4, 5)

    def test_c4_has_imaginary_values(self, table_factory):
        table = table_factory("C4")
        i = root_power(4, 1)
        found = {v for row in table.rows for v in row.values}
        assert i in found and -i in found

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_sum_of_squared_degrees(self, group_factory, table_factory, name):
        group, _ = group_factory(name)
        table = table_factory(name)
        assert sum(d * d for d in table.degrees) == group.order

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_row_zero_trivial_and_degrees_divide(self, table_factory, name):
        table = table_factory(name)
        assert all(v == 1 for v in table.rows[0].values)
        for row in table.rows:
            assert row.degree >= 1 and table.data.order % row.degree == 0

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_values_are_algebraic_integers(self, table_factory, name):
        table = table_factory(name)
        for row in table.rows:
            for v in row.values:
                assert all(type(c) is int for c in v.coeffs)

    @pytest.mark.parametrize("name", ("trivial", "C4", "S3", "Q8", "A4"))
    def test_prime_independence_small(self, group_factory, table_factory, name):
        group, cd = group_factory(name)
        table = table_factory(name)
        q1 = dixon_prime(cd.data.exponent, group.order)
        q2 = dixon_prime(cd.data.exponent, group.order, above=q1)
        assert compute_table(cd, prime=q2) == table

    @pytest.mark.parametrize(
        "name, degree, generators, first_prime",
        [
            ("S6", 6, ("(1 2)", "(1 2 3 4 5 6)"), 61),
            ("A6", 6, ("(1 2 3 4 5)", "(4 5 6)"), 61),
            # exponent 84: the split runs at q = 337
            ("GL32", 7, ("(1 2 3 4 5 6 7)", "(2 3)(4 7)"), 337),
        ],
    )
    def test_prime_independence_bench(self, name, degree, generators, first_prime):
        group = enumerate_group(GroupSpec(name, degree, generators))
        cd = conjugacy_data(group)
        q1 = dixon_prime(cd.data.exponent, group.order)
        q2 = dixon_prime(cd.data.exponent, group.order, above=q1)
        assert q1 == first_prime
        table = compute_table(cd, prime=q1)
        assert len(table.rows) == cd.k
        assert compute_table(cd, prime=q2) == table

    # 4 is not prime, 3 divides |S3|, 5 is not 1 mod 6 (S3) or mod 12 (S4),
    # and 5^2 <= 4 |D8| although 5 = 1 mod 4
    @pytest.mark.parametrize(
        "name, prime", [("S3", 3), ("S3", 4), ("S3", 5), ("S4", 5), ("D8", 5)]
    )
    def test_inadmissible_prime_rejected(self, group_factory, name, prime):
        _, cd = group_factory(name)
        with pytest.raises(ValueError, match="admissible"):
            compute_table(cd, prime=prime)

    def test_trivial_group_admits_three(self, group_factory, table_factory):
        # e = 1: 3 = 1 (mod e) although 3 % e != 1
        _, cd = group_factory("trivial")
        assert compute_table(cd, prime=3) == table_factory("trivial")

    def test_identity_column_is_degrees(self, table_factory):
        table = table_factory("S4")
        assert tuple(v for v in (row.values[0] for row in table.rows)) == tuple(
            Cyclotomic(12, [d]) for d in table.degrees
        )


def _det_mod(matrix, q):
    """Leibniz determinant over GF(q): a signed sum over every permutation."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total % q


def _random_matrices(seed=7, count=40):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        q = rng.choice((7, 11, 13))
        n = rng.randint(1, 5)
        density = rng.choice((0.3, 1.0))  # sparse ones reach the pivot search
        out.append((
            [[rng.randrange(q) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)],
            q,
        ))
    return out


_SPECIAL_MATRICES = [
    ([[5]], 11),
    ([[0]], 7),
    ([[0] * 3 for _ in range(3)], 7),                        # zero
    ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 11),                 # singular
    ([[0, 1, 2, 3], [0, 0, 4, 5], [0, 0, 0, 6], [0, 0, 0, 0]], 13),  # nilpotent
    ([[2, -4 % 11], [1, -2 % 11]], 11),                     # nilpotent, not triangular
    ([[3, 0, 0], [0, 3, 0], [0, 0, 3]], 7),                  # scalar
    ([[2, 1, 0], [0, 2, 0], [0, 0, 2]], 13),                 # repeated, not diagonalizable
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]], 11),  # needs a row swap
]


class TestCharacteristicPolynomial:
    @pytest.mark.parametrize("matrix, q", _SPECIAL_MATRICES + _random_matrices())
    def test_matches_determinant(self, matrix, q):
        n = len(matrix)
        poly = dixon._charpoly(matrix, q)
        assert len(poly) == n + 1 and poly[-1] == 1
        # degree n < q: agreeing at every point of GF(q) fixes the polynomial
        for lam in range(q):
            shifted = [
                [((lam if i == j else 0) - a) % q for j, a in enumerate(row)]
                for i, row in enumerate(matrix)
            ]
            value = sum(c * pow(lam, t, q) for t, c in enumerate(poly)) % q
            assert value == _det_mod(shifted, q)

    def test_roots_ascending(self):
        # (x - 1)(x - 4)^2 (x - 9) over GF(11)
        poly = [1]
        for r in (1, 4, 4, 9):
            poly = [(a - r * b) % 11 for a, b in zip([0] + poly, poly + [0])]
        assert dixon._roots(poly, 11) == [1, 4, 9]


def _lambda_scan_split(matrix, basis, pivots, q):
    """The split the characteristic polynomial replaced: a null space for
    every lambda in GF(q), from 0 up to the largest eigenvalue.

    It computes the full image of each basis vector and asserts that the
    image lies in the subspace, the invariance the split reads off the
    pivot rows alone."""
    d = len(basis)
    action_cols = []
    for bvec in basis:
        image = [sum(a * x for a, x in zip(row, bvec)) % q for row in matrix]
        coords = [image[c] for c in pivots]
        residue = image
        for coef, b in zip(coords, basis):
            residue = [(x - coef * y) % q for x, y in zip(residue, b)]
        assert not any(residue), "a vector left the invariant subspace"
        action_cols.append(coords)
    out = []
    found = 0
    for lam in range(q):
        shifted = [
            [(action_cols[j][i] - (lam if i == j else 0)) % q for j in range(d)]
            for i in range(d)
        ]
        kernel, _ = dixon._nullspace(shifted, q)
        if not kernel:
            continue
        ambient = []
        for kv in kernel:
            vec = [0] * len(basis[0])
            for coef, bvec in zip(kv, basis):
                if coef:
                    vec = [(x + coef * y) % q for x, y in zip(vec, bvec)]
            ambient.append(vec)
        out.append(dixon._rref(ambient, q))
        found += len(kernel)
        if found == d:
            break
    if found != d:
        raise TableIntegrityError("class matrix not diagonalizable (internal bug)")
    return out


# k = 16 classes, more than the Dixon prime q = 11
C2_4 = GroupSpec("C2^4", 8, ("(1 2)", "(3 4)", "(5 6)", "(7 8)"))


class TestEigenspaceSplit:
    @pytest.mark.parametrize("name", ALL_GROUPS + SPEC_GROUPS + (C2_4.name,))
    def test_same_split_and_table_as_lambda_scan(self, group_factory, monkeypatch, name):
        if name == C2_4.name:
            group = enumerate_group(C2_4)
            cd = conjugacy_data(group)
            assert (cd.k, dixon_prime(cd.data.exponent, group.order)) == (16, 11)
        elif name in SPEC_GROUPS:
            group = enumerate_group(load_group_spec(f"{BENCH_SPECS}/{name}.json"))
            cd = conjugacy_data(group)
        else:
            group, cd = group_factory(name)
        split = dixon._split_subspace
        calls = []

        def recorded(*args):
            out = split(*args)
            calls.append((args, out))
            return out

        q1 = dixon_prime(cd.data.exponent, group.order)
        q2 = dixon_prime(cd.data.exponent, group.order, above=q1)
        for q in (q1, q2):
            calls.clear()
            monkeypatch.setattr(dixon, "_split_subspace", recorded)
            table = compute_table(cd, prime=q)
            for args, out in calls:
                # the split returns bases reduced at their pivots, not RREF,
                # so each space is compared with the reference by its RREF
                assert [dixon._rref(basis, q) for basis, _ in out] == _lambda_scan_split(*args)
            monkeypatch.setattr(dixon, "_split_subspace", _lambda_scan_split)
            assert compute_table(cd, prime=q) == table

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_every_null_space_is_an_eigenspace(self, group_factory, monkeypatch, name):
        group, cd = group_factory(name)
        nullspace = dixon._nullspace
        sizes = []

        def recorded(matrix, q):
            out = nullspace(matrix, q)
            sizes.append(len(out[0]))
            return out

        monkeypatch.setattr(dixon, "_nullspace", recorded)
        q1 = dixon_prime(cd.data.exponent, group.order)
        q2 = dixon_prime(cd.data.exponent, group.order, above=q1)
        for q in (q1, q2):
            compute_table(cd, prime=q)
        assert 0 not in sizes and bool(sizes) == (cd.k > 1)

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_every_space_reduced_at_its_pivots(self, group_factory, monkeypatch, name):
        # vector j of each space is 1 at pivots[j] and 0 at the other pivots,
        # with no row reduction of its own: one _rref per null space
        group, cd = group_factory(name)
        split, nullspace, rref = dixon._split_subspace, dixon._nullspace, dixon._rref
        spaces = []
        counts = {"nullspace": 0, "rref": 0}

        def recorded_split(*args):
            out = split(*args)
            spaces.extend(out)
            return out

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(dixon, "_split_subspace", recorded_split)
        monkeypatch.setattr(dixon, "_nullspace", counted("nullspace", nullspace))
        monkeypatch.setattr(dixon, "_rref", counted("rref", rref))
        q1 = dixon_prime(cd.data.exponent, group.order)
        q2 = dixon_prime(cd.data.exponent, group.order, above=q1)
        for q in (q1, q2):
            compute_table(cd, prime=q)
        for basis, pivots in spaces:
            assert len(pivots) == len(basis)
            for j, vec in enumerate(basis):
                assert [vec[p] for p in pivots] == [int(i == j) for i in range(len(pivots))]
        assert counts["rref"] == counts["nullspace"]
        assert (cd.k > 1) == bool(spaces)

    def test_nullspace_reduced_at_free_columns_not_rref(self):
        for q in (5, 7, 11):
            assert dixon._nullspace([[1, 1]], q) == ([[q - 1, 1]], [1])

    def test_corrupted_class_matrix_never_gives_another_table(self, group_factory, monkeypatch):
        # the split reads each action at the pivot rows only, so a class
        # matrix with one entry off by one is not checked for invariance:
        # the table must still come out honest or be refused, never differ
        cds = [cd for _, cd in map(group_factory, ALL_GROUPS) if cd.k >= 5]
        cds.append(conjugacy_data(enumerate_group(load_group_spec(f"{BENCH_SPECS}/GL32.json"))))
        cases = [(cd, compute_table(cd)) for cd in cds]
        honest_matrix = dixon.class_matrix
        corrupt = {}

        def corrupted(cd, i):
            matrix = honest_matrix(cd, i)
            if i != corrupt["i"]:
                return matrix
            rows = [list(row) for row in matrix]
            rows[corrupt["j"]][corrupt["l"]] += 1
            return rows

        monkeypatch.setattr(dixon, "class_matrix", corrupted)
        outcomes = {"honest": 0, "refused": 0, "wrong": []}
        for cd, honest in cases:
            for i, j, l in itertools.product((1, 2), range(cd.k), range(cd.k)):
                corrupt.update(i=i, j=j, l=l)
                try:
                    table = compute_table(cd)
                except TableIntegrityError:
                    outcomes["refused"] += 1
                    continue
                if table == honest:
                    outcomes["honest"] += 1
                else:
                    outcomes["wrong"].append((cd.group.name, i, j, l))
        assert outcomes["wrong"] == []
        assert outcomes["honest"] and outcomes["refused"]


class TestOrthogonality:
    @pytest.mark.parametrize("name", ("S3", "C4", "Q8", "A5"))
    def test_computed_tables_clean(self, table_factory, name):
        assert verify_orthogonality(table_factory(name)) == []

    def test_scaled_row_reported(self, table_factory):
        table = table_factory("S3")
        bad_rows = list(table.rows)
        bad_rows[2] = ClassFunction(tuple(2 * v for v in bad_rows[2].values))
        bad = CharacterTable(group_name=table.group_name, data=table.data, rows=tuple(bad_rows))
        violations = verify_orthogonality(bad)
        assert any(v["kind"] == "row" and v["first"] == 2 == v["second"] for v in violations)

    def test_violation_value_is_scaled_sum(self, table_factory):
        table = table_factory("S3")
        rows = (*table.rows[:2], ClassFunction(tuple(2 * v for v in table.rows[2].values)))
        bad = CharacterTable(group_name=table.group_name, data=table.data, rows=rows)
        # |G| [2 chi, 2 chi] = 6 * 4
        assert verify_orthogonality(bad) == [
            {"kind": "row", "first": 2, "second": 2, "value": "24"}
        ]

    def test_every_single_value_change_detected(self, table_factory):
        # only the row relations are checked: the column relations follow
        # from them, so one value off by one anywhere must break a row relation
        table = table_factory("S4")
        for r, row in enumerate(table.rows):
            for i in range(table.data.k):
                values = list(row.values)
                values[i] = values[i] + 1
                rows = list(table.rows)
                rows[r] = ClassFunction(tuple(values))
                bad = CharacterTable(
                    group_name=table.group_name, data=table.data, rows=tuple(rows)
                )
                assert verify_orthogonality(bad), (r, i)
                with pytest.raises(TableIntegrityError):
                    validate_table(bad)

    def test_rows_over_other_class_data_rejected(self, table_factory):
        # S3's sizes swapped in the table's data alone: they still sum to 6
        # and divide it, but the rows are orthonormal over the true sizes only
        table = table_factory("S3")
        bad = CharacterTable("S3", table.data._replace(sizes=(1, 3, 2)), table.rows)
        with pytest.raises(TableIntegrityError, match="orthogonality violated"):
            validate_table(bad)

    def test_row_lengths_checked(self, table_factory):
        # a short row and a long one: the orthogonality sums zip rows, so a
        # short row would be summed over its first k - 1 classes alone
        table = table_factory("S4")
        rows = list(table.rows)
        rows[1] = ClassFunction(rows[1].values[:-1])
        rows[2] = ClassFunction(rows[2].values + rows[2].values[-1:])
        bad = CharacterTable("S4", table.data, tuple(rows))
        with pytest.raises(TableIntegrityError, match="row 1 has 4 values for 5 classes"):
            validate_table(bad)


class TestTableFiles:
    def test_round_trip(self, table_factory, tmp_path):
        for name in ("S3", "C4", "A5"):
            table = table_factory(name)
            path = tmp_path / f"{name}.json"
            save_table(table, path)
            loaded = load_table(path)
            assert loaded == table
            assert loaded.provenance.startswith("file sha256:")

    @pytest.mark.parametrize("name", ALL_GROUPS + SPEC_GROUPS)
    def test_saved_file_bytes_pinned(self, table_factory, spec_tables, tmp_path, name):
        table = spec_tables[name] if name in SPEC_GROUPS else table_factory(name)
        path = tmp_path / f"{name}.json"
        save_table(table, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == SAVED_FILE_DIGESTS[name]

    @pytest.mark.parametrize("name", ALL_GROUPS + SPEC_GROUPS)
    def test_class_data_holds_one_period_per_class(
        self, group_factory, table_factory, spec_tables, tmp_path, name
    ):
        # sum_i o_i power-map entries, not k * e: walk i has the order of
        # representative i, the lcm of its cycle lengths
        if name in SPEC_GROUPS:
            table = spec_tables[name]
            cd = conjugacy_data(enumerate_group(load_group_spec(f"{BENCH_SPECS}/{name}.json")))
        else:
            table, cd = table_factory(name), group_factory(name)[1]
        orders = [lcm(*cycle_type(cd.group.elements[r])) for r in cd.representatives]
        path = tmp_path / f"{name}.json"
        save_table(table, path)
        for data in (cd.data, load_table(path).data):
            assert [len(row) for row in data.power_map] == orders

    @pytest.mark.parametrize("builtin", (True, False), ids=("builtin", "hashlib"))
    def test_provenance_is_the_file_digest(self, table_factory, tmp_path, monkeypatch, builtin):
        if not builtin:
            # None in sys.modules makes `import _sha256` raise ImportError;
            # CPython 3.12 renamed the module _sha2
            monkeypatch.setitem(sys.modules, "_sha256", None)
            monkeypatch.setitem(sys.modules, "_sha2", None)
        path = tmp_path / "s4.json"
        save_table(table_factory("S4"), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        assert load_table(path).provenance == f"file sha256:{digest}"

    def test_duplicated_row_rejected(self, table_factory, tmp_path):
        data = table_to_dict(table_factory("S3"))
        data["rows"][2] = data["rows"][1]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(data))
        with pytest.raises(TableIntegrityError):
            load_table(path)

    def test_non_integral_value_rejected(self, table_factory, tmp_path):
        # in lowest terms, so well-formed, but 1/2 is not an algebraic integer
        data = table_to_dict(table_factory("S3"))
        data["rows"][1][1] = {"e": 6, "num": [1, 0], "den": [2, 1]}
        path = tmp_path / "half.json"
        path.write_text(json.dumps(data))
        with pytest.raises(TableIntegrityError):
            load_table(path)

    def test_wrong_field_order_rejected(self, table_factory, tmp_path):
        data = table_to_dict(table_factory("S3"))
        data["rows"][0][1] = {"e": 12, "num": [1, 0, 0, 0], "den": [1, 1, 1, 1]}
        path = tmp_path / "wrongorder.json"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError):
            load_table(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\x80\x81")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_table(path)

    def test_missing_key_rejected(self, table_factory, tmp_path):
        data = table_to_dict(table_factory("S3"))
        del data["power_map"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError):
            load_table(path)

    @pytest.mark.parametrize("case", sorted(MISTYPED_FIELDS))
    def test_mistyped_field_rejected(self, table_factory, tmp_path, case):
        key, value = MISTYPED_FIELDS[case]
        data = table_to_dict(table_factory("S3"))
        data[key] = value
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError):
            load_table(path)

    @pytest.mark.parametrize("case", sorted(POWER_MAP_CORRUPTIONS))
    def test_inconsistent_power_map_rejected(self, table_factory, tmp_path, case):
        name, corrupt, message = POWER_MAP_CORRUPTIONS[case]
        data = table_to_dict(table_factory(name))
        corrupt(data)
        path = tmp_path / "powers.json"
        path.write_text(json.dumps(data))
        with pytest.raises(TableIntegrityError) as exc:
            load_table(path)
        assert str(exc.value) == message

    # each sums to |S3| = 6, and in the last two every other size divides 6
    @pytest.mark.parametrize("sizes", ([1, 0, 5], [0, 3, 3], [-1, 1, 6]))
    def test_non_positive_class_size_rejected(self, table_factory, sizes):
        data = table_to_dict(table_factory("S3"))
        data["class_sizes"] = sizes
        with pytest.raises(TableIntegrityError, match="positive divisors"):
            table_from_dict(data)

    def test_rep_order_not_dividing_the_order_rejected(self, monkeypatch):
        # a group of order 2 with a class of prime order P passes every other
        # check; the power map's composition check alone takes pi(P) * P steps
        P = 8009
        one, minus_one = value_record(P, 1), value_record(P, -1)
        data = {
            "group": "lagrange", "order": 2, "exponent": P, "class_sizes": [1, 1],
            "rep_orders": [1, P], "inverse_class": [0, 1],
            "power_map": [[0] * P, [0] + [1] * (P - 1)],
            "rows": [[one, one], [one, minus_one]],
        }

        def composition_started(e):
            raise AssertionError("the composition check ran")

        # the composition loop starts by listing its generators
        monkeypatch.setattr(tables, "prime_factors", composition_started)
        monkeypatch.setattr(tables, "_unit_generators", composition_started)
        with pytest.raises(TableIntegrityError, match="rep order 8009, which does not divide"):
            table_from_dict(data)

    def test_galois_action_violation_rejected(self, table_factory):
        # C5's columns permuted by (1 2)(3 4): still an orthonormal table with
        # a consistent power map, but chi(g^2) is no longer sigma_2(chi(g))
        data = table_to_dict(table_factory("C5"))
        perm = (0, 2, 1, 4, 3)
        data["rows"] = [[row[perm[i]] for i in range(5)] for row in data["rows"]]
        with pytest.raises(TableIntegrityError, match="Galois image"):
            table_from_dict(data)

    def test_unit_generators_generate_every_unit_group(self):
        # validate_table checks the Galois action on these generators only
        for e in range(1, 2521):
            gens = tables._unit_generators(e)
            assert all(1 < s < e and gcd(s, e) == 1 for s in gens)
            group = {1 % e}
            for s in gens:
                # <H, s> is the union of the cosets H s^j before s^j enters H
                cosets = [group]
                x = s
                while x not in group:
                    cosets.append({h * x % e for h in group})
                    x = x * s % e
                group = set().union(*cosets)
            assert len(group) == euler_phi(e), e

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        with pytest.raises(FormatError):
            load_table(path)

    def test_loaded_table_usable_without_engine(self, table_factory, tmp_path):
        # the verifier side works from the file alone
        path = tmp_path / "q8.json"
        save_table(table_factory("Q8"), path)
        loaded = load_table(path)
        assert verify_orthogonality(loaded) == []
        assert loaded.degrees == (1, 1, 1, 1, 2)


# a value record of a saved S3 table (order 6), each broken in one way: the
# record, the error a loader raises, its message and a command's exit code
BAD_VALUE_RECORDS = {
    "wrong-order": (
        {"e": 12, "num": [1, 0, 0, 0], "den": [1, 1, 1, 1]}, FormatError,
        "cyclotomic order 12 where 6 is required", 4,
    ),
    "wrong-length": (
        {"e": 6, "num": [1], "den": [1]}, FormatError,
        "order 6 needs 2 numerators and denominators", 4,
    ),
    "not-lowest-terms": (
        {"e": 6, "num": [2, 0], "den": [4, 1]}, FormatError,
        "coefficient 2/4 is not in lowest terms", 4,
    ),
    # the integer 1 written as 2/2: canonical records only
    "non-canonical": (
        {"e": 6, "num": [2, 0], "den": [2, 1]}, FormatError,
        "coefficient 2/2 is not in lowest terms", 4,
    ),
    # well-formed and in lowest terms, but 1/2 is not in Z[eps_6]
    "not-integral": (
        {"e": 6, "num": [1, 0], "den": [2, 1]}, TableIntegrityError,
        "row 1 value 1 is not an algebraic integer", 7,
    ),
    "negative-den": (
        {"e": 6, "num": [1, 0], "den": [-1, 1]}, FormatError, "bad coefficient 1/-1", 4,
    ),
    "zero-den": ({"e": 6, "num": [1, 0], "den": [0, 1]}, FormatError, "bad coefficient 1/0", 4),
    # the whole record is checked for form before a denominator is found not 1
    "not-integral-then-zero-den": (
        {"e": 6, "num": [1, 0], "den": [2, 0]}, FormatError, "bad coefficient 0/0", 4,
    ),
    "missing-key": (
        {"e": 6, "num": [1, 0]}, FormatError, "bad cyclotomic record: {'e': 6, 'num': [1, 0]}", 4,
    ),
}


class TestValueRecords:
    def test_round_trip(self, table_factory):
        # an irrational value of order 12, put in a row of S4 (exponent 12)
        table = table_factory("S4")
        z = root_power(12, 5) * 3 + 2
        row = ClassFunction((z, *table.rows[1].values[1:]))
        rows = (table.rows[0], row, *table.rows[2:])
        record = table_to_dict(CharacterTable("S4", table.data, rows))["rows"][1][0]
        assert record == {"e": 12, "num": list(z.coeffs), "den": [1, 1, 1, 1]}
        assert tables._value_from_dict(record, 12, 1, 0) == z

    @pytest.mark.parametrize("case", sorted(BAD_VALUE_RECORDS))
    def test_bad_record_refused(self, capsys, table_factory, tmp_path, case):
        record, error, message, code = BAD_VALUE_RECORDS[case]
        data = table_to_dict(table_factory("S3"))
        data["rows"][1][1] = record
        with pytest.raises(error) as exc:
            table_from_dict(data)
        assert str(exc.value) == message
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(data))
        assert main(["table", "--table-file", str(path)]) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")


def _accepts(data):
    try:
        tables._validate_power_map(data)
    except TableIntegrityError:
        return False
    return True


def _small_maps(k, largest):
    """Every power map on k classes, class 0 the identity, whose other classes
    have orders from 2 to `largest` and whose walks pass the row checks: walk
    i is 0, i, then non-identity classes up to its order o; the group order
    is e, the lcm of the orders."""
    for orders in itertools.product(range(2, largest + 1), repeat=k - 1):
        walks = [
            [(0, i, *middle) for middle in itertools.product(range(1, k), repeat=o - 2)]
            for i, o in enumerate(orders, start=1)
        ]
        for chosen in itertools.product(*walks):
            yield ClassData(order=lcm(*orders), sizes=(1,) * k, power_map=((0,), *chosen))


def _sylvester_record():
    """A table that passes every check linear in k but the sum of squared
    degrees: six classes whose sizes n/a, for Sylvester's 1/2 + 1/3 + 1/7 +
    1/43 + 1/1807 = 1 - 1/n, sum to n = 1806 * 1807; rep orders 1, 1807, 139,
    13, 2 and 3; g^t in the class of order o / gcd(t, o); every row trivial."""
    n = 1806 * 1807
    orders = (1, 1807, 139, 13, 2, 3)
    e = lcm(*orders)
    by_order = {o: i for i, o in enumerate(orders)}
    one = value_record(e, 1)
    return {
        "group": "sylvester", "order": n, "exponent": e,
        "class_sizes": [n // a for a in (n, 2, 3, 7, 43, 1807)],
        "rep_orders": list(orders), "inverse_class": list(range(6)),
        "power_map": [[by_order[o // gcd(t, o)] for t in range(e)] for o in orders],
        "rows": [[one] * 6 for _ in orders],
    }


class TestPowerMapComposition:
    """Composition is checked on the primes dividing e and the unit generators;
    `composes` checks it at every s and t."""

    @pytest.mark.parametrize("name", ALL_GROUPS + SPEC_GROUPS)
    def test_real_maps_compose_and_load(self, table_factory, spec_tables, name):
        table = spec_tables[name] if name in SPEC_GROUPS else table_factory(name)
        assert composes(table.data)
        assert table_from_dict(table_to_dict(table)) == table

    def test_agrees_with_the_definition_on_every_small_map(self):
        # e runs over 2 to 8 and 10 to 56: one prime or up to three, and unit
        # groups cyclic (e = 5, 7) or not (e = 8, 12, 24)
        verdicts = []
        for k in (2, 3):
            for data in _small_maps(k, 8):
                verdict = _accepts(data)
                assert verdict == composes(data), data.power_map
                verdicts.append(verdict)
        assert len(verdicts) == 16136
        assert sum(verdicts) == 25

    def test_agrees_with_the_definition_on_corrupted_real_maps(self, table_factory, spec_tables):
        # each corruption moves entry r >= 2 of one walk to another
        # non-identity class, keeping the row checks satisfied
        rng = random.Random(3030)
        names = ALL_GROUPS[2:] + SPEC_GROUPS  # every group with a class of order 3 or more
        rejected = 0
        for _ in range(300):
            name = rng.choice(names)
            data = (spec_tables[name] if name in SPEC_GROUPS else table_factory(name)).data
            i = rng.choice([c for c, o in enumerate(data.rep_orders) if o >= 3])
            o, row = data.rep_orders[i], list(data.power_map[i])
            r = rng.randrange(2, o)
            new = rng.choice([c for c in range(1, data.k) if c != row[r]])
            row[r] = new
            power_map = list(data.power_map)
            power_map[i] = tuple(row)
            bad = data._replace(power_map=tuple(power_map))
            assert _accepts(bad) == composes(bad), (name, i, r, new)
            rejected += not composes(bad)
        assert 250 < rejected < 300  # both verdicts occur

    def test_sylvester_table_refused_before_the_power_map(self, monkeypatch):
        def power_map_checked(data):
            raise AssertionError("the power map was checked first")

        monkeypatch.setattr(tables, "_validate_power_map", power_map_checked)
        with pytest.raises(TableIntegrityError, match="sum of squared degrees"):
            table_from_dict(_sylvester_record())

    def test_sylvester_power_map_checked_in_time(self):
        record = _sylvester_record()
        data = ClassData(
            order=record["order"], sizes=tuple(record["class_sizes"]),
            power_map=tuple(
                tuple(row[:o]) for row, o in zip(record["power_map"], record["rep_orders"])
            ),
        )
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            tables._validate_power_map(data)
            best = min(best, time.perf_counter() - start)
        assert best < 0.05

    def test_table_load_tests_no_primality(self, table_factory, tmp_path, monkeypatch):
        def primality_tested(n):
            raise AssertionError("is_prime ran during a load")

        monkeypatch.setattr(tables, "is_prime", primality_tested)
        for name in ("C5", "S4", "A5", "S5"):
            path = tmp_path / f"{name}.json"
            save_table(table_factory(name), path)
            assert load_table(path) == table_factory(name)


@pytest.mark.parametrize("q", PSL2_PRIMES)
def test_psl2_matches_jordan_and_schur(tmp_path, q):
    # the closed form goes through no class matrix; from q = 17 the group is
    # above the default element cap
    path = tmp_path / f"PSL2_{q}.json"
    path.write_text(json.dumps(psl2_spec(q)))
    table = compute_table(conjugacy_data(enumerate_group(load_group_spec(path), cap=200_000)))
    assert table.data.order == psl2_order(q)
    assert table.data.k == (q + 5) // 2
    assert sorted(table.degrees) == psl2_degrees(q)
