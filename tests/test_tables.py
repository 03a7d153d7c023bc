import json

import pytest

from chartab.classfuncs import ClassFunction
from chartab.cyclo import Cyclotomic, root_power
from chartab.errors import FormatError, TableIntegrityError
from chartab.groups import GroupSpec, conjugacy_data, enumerate_group
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

from conftest import ALL_GROUPS


def _all_powers_identity(data):
    # every rep order 3 and every power the identity
    data["rep_orders"] = [3] * len(data["rep_orders"])
    data["power_map"] = [[0] * data["exponent"] for _ in data["power_map"]]


def _zeroth_power(data):
    i = data["rep_orders"].index(2)
    data["power_map"][i][0] = i


def _first_power(data):
    i, j = data["rep_orders"].index(2), data["rep_orders"].index(3)
    data["power_map"][i][1] = j


def _rep_order(data):
    data["rep_orders"][data["rep_orders"].index(3)] = 6


def _last_power(data):
    i = data["rep_orders"].index(3)
    data["power_map"][i][-1] = 0


def _exponent(data):
    # the trivial group written over Q(E(2)): every check but the lcm holds
    data["exponent"] = 2
    data["power_map"] = [[0, 0]]
    data["rows"] = [[Cyclotomic.one(2).to_dict()]]


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


# each corruption breaks exactly one power-map invariant of a well-formed file
POWER_MAP_CORRUPTIONS = {
    "all-powers-identity": ("S4", _all_powers_identity),
    "zeroth-power": ("S3", _zeroth_power),
    "first-power": ("S3", _first_power),
    "rep-order": ("S3", _rep_order),
    "last-power": ("S3", _last_power),
    "exponent": ("trivial", _exponent),
    "period": ("S4", _period),
    "composition": ("S4", _composition),
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
        one = Cyclotomic.one(2)
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
            assert [v for v in row.values] == [Cyclotomic.from_rational(6, x) for x in exp]

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
        q1 = dixon_prime(group.exponent, group.order)
        q2 = dixon_prime(group.exponent, group.order, above=q1)
        assert compute_table(group, cd, prime=q2) == table

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
        q1 = dixon_prime(group.exponent, group.order)
        q2 = dixon_prime(group.exponent, group.order, above=q1)
        assert q1 == first_prime
        table = compute_table(group, cd, prime=q1)
        assert len(table.rows) == cd.k
        assert compute_table(group, cd, prime=q2) == table

    # 4 is not prime, 3 divides |S3|, 5 is not 1 mod 6 (S3) or mod 12 (S4),
    # and 5^2 <= 4 |D8| although 5 = 1 mod 4
    @pytest.mark.parametrize(
        "name, prime", [("S3", 3), ("S3", 4), ("S3", 5), ("S4", 5), ("D8", 5)]
    )
    def test_inadmissible_prime_rejected(self, group_factory, name, prime):
        group, cd = group_factory(name)
        with pytest.raises(ValueError, match="admissible"):
            compute_table(group, cd, prime=prime)

    def test_trivial_group_admits_three(self, group_factory, table_factory):
        # e = 1: 3 = 1 (mod e) although 3 % e != 1
        group, cd = group_factory("trivial")
        assert compute_table(group, cd, prime=3) == table_factory("trivial")

    def test_identity_column_is_degrees(self, table_factory):
        table = table_factory("S4")
        assert tuple(v for v in (row.values[0] for row in table.rows)) == tuple(
            Cyclotomic.from_rational(12, d) for d in table.degrees
        )


class TestOrthogonality:
    @pytest.mark.parametrize("name", ("S3", "C4", "Q8", "A5"))
    def test_computed_tables_clean(self, table_factory, name):
        assert verify_orthogonality(table_factory(name)) == []

    def test_scaled_row_reported(self, table_factory):
        table = table_factory("S3")
        bad_rows = list(table.rows)
        bad_rows[2] = 2 * bad_rows[2]
        bad = CharacterTable(group_name=table.group_name, data=table.data, rows=tuple(bad_rows))
        violations = verify_orthogonality(bad)
        assert any(v["kind"] == "row" and v["first"] == 2 == v["second"] for v in violations)

    def test_violation_value_is_scaled_sum(self, table_factory):
        table = table_factory("S3")
        rows = (table.rows[0], table.rows[1], 2 * table.rows[2])
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
                rows[r] = ClassFunction(tuple(values), table.data)
                bad = CharacterTable(
                    group_name=table.group_name, data=table.data, rows=tuple(rows)
                )
                assert verify_orthogonality(bad), (r, i)
                with pytest.raises(TableIntegrityError):
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

    def test_duplicated_row_rejected(self, table_factory, tmp_path):
        data = table_to_dict(table_factory("S3"))
        data["rows"][2] = data["rows"][1]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(data))
        with pytest.raises(TableIntegrityError):
            load_table(path)

    def test_non_canonical_value_rejected(self, table_factory, tmp_path):
        data = table_to_dict(table_factory("S3"))
        data["rows"][0][0] = {"e": 6, "num": [2, 0], "den": [2, 1]}
        path = tmp_path / "noncanon.json"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError):
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

    def test_missing_key_rejected(self, table_factory, tmp_path):
        data = table_to_dict(table_factory("S3"))
        del data["power_map"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError):
            load_table(path)

    @pytest.mark.parametrize("case", sorted(POWER_MAP_CORRUPTIONS))
    def test_inconsistent_power_map_rejected(self, table_factory, tmp_path, case):
        name, corrupt = POWER_MAP_CORRUPTIONS[case]
        data = table_to_dict(table_factory(name))
        corrupt(data)
        path = tmp_path / "powers.json"
        path.write_text(json.dumps(data))
        with pytest.raises(TableIntegrityError):
            load_table(path)

    # each sums to |S3| = 6, and in the last two every other size divides 6
    @pytest.mark.parametrize("sizes", ([1, 0, 5], [0, 3, 3], [-1, 1, 6]))
    def test_non_positive_class_size_rejected(self, table_factory, sizes):
        data = table_to_dict(table_factory("S3"))
        data["class_sizes"] = sizes
        with pytest.raises(TableIntegrityError, match="positive divisors"):
            table_from_dict(data)

    def test_galois_action_violation_rejected(self, table_factory):
        # C5's columns permuted by (1 2)(3 4): still an orthonormal table with
        # a consistent power map, but chi(g^2) is no longer sigma_2(chi(g))
        data = table_to_dict(table_factory("C5"))
        perm = (0, 2, 1, 4, 3)
        data["rows"] = [[row[perm[i]] for i in range(5)] for row in data["rows"]]
        with pytest.raises(TableIntegrityError, match="Galois image"):
            table_from_dict(data)

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
