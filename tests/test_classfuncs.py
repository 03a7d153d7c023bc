import pytest

from chartab.classfuncs import MAX_POWER, ClassFunction, delta, gamma
from chartab.cyclo import Cyclotomic, as_rational_integer
from chartab.errors import NonIntegralValueError, TableIntegrityError
from chartab.tables import CharacterTable, validate_table

from conftest import (
    ALL_GROUPS,
    CF,
    SPEC_GROUPS,
    all_ones,
    cf_add,
    cf_conj,
    cf_mul,
    constant,
    inner,
    pi_character,
    power,
    psi_character,
    root_power,
    row_functions,
)


def rationals(cf):
    return [as_rational_integer(v) for v in cf.values]


def crafted(data, *rows):
    """An unvalidated table over `data` with the given value tuples as rows."""
    return CharacterTable("crafted", data, tuple(ClassFunction(values) for values in rows))


class TestHash:
    def test_hash_is_computed_once_and_kept(self, table_factory):
        # the table holds the one hash cache; its rows are bare value records
        table = table_factory("S4")
        fresh = CharacterTable(table.group_name, table.data, table.rows)  # never hashed
        with pytest.raises(AttributeError):
            fresh._hash
        h = hash(fresh)
        assert h == hash((fresh.group_name, fresh.data, fresh.rows)) == hash(table)
        assert fresh._hash == h
        assert hash(fresh) == h
        for attr in ("_hash", "rows"):
            with pytest.raises(AttributeError):
                setattr(fresh, attr, 0)
            with pytest.raises(AttributeError):
                delattr(fresh, attr)
        assert hash(fresh) == h
        row = table.rows[1]
        assert row == (row.values,) and hash(row) == hash((row.values,))
        assert not hasattr(row, "data") and not hasattr(row, "_hash")


class TestPiCharacter:
    def test_s3(self, group_factory):
        _, cd = group_factory("S3")
        assert rationals(pi_character(cd.data)) == [6, 3, 2]

    def test_trivial(self, group_factory):
        _, cd = group_factory("trivial")
        assert rationals(pi_character(cd.data)) == [1]

    def test_abelian(self, group_factory):
        _, cd = group_factory("C4")
        assert rationals(pi_character(cd.data)) == [4, 4, 4, 4]

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_pi_is_sum_of_squared_norms(self, group_factory, table_factory, name):
        _, cd = group_factory(name)
        table = table_factory(name)
        total = constant(table.data, 0)
        for row in row_functions(table):
            total = cf_add(total, cf_mul(row, cf_conj(row)))
        assert total == pi_character(cd.data)


class TestPsiCharacter:
    def test_s3_all_real(self, table_factory):
        assert rationals(psi_character(table_factory("S3").data)) == [6, 3, 2]

    def test_c3_vanishes_off_identity(self, table_factory):
        assert rationals(psi_character(table_factory("C3").data)) == [3, 0, 0]

    def test_trivial(self, table_factory):
        assert rationals(psi_character(table_factory("trivial").data)) == [1]

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_case_split(self, group_factory, table_factory, name):
        # the sum of the squared rows of the table is the case split
        table = table_factory(name)
        total = constant(table.data, 0)
        for row in row_functions(table):
            total = cf_add(total, cf_mul(row, row))
        assert total == psi_character(table.data)

    def test_corrupt_table_detected(self, table_factory):
        table = table_factory("C4")
        # lie about which classes are real, through walks ending at their own
        # class: the table no longer validates
        walks = tuple(row[:-1] + (i,) for i, row in enumerate(table.data.power_map))
        data = table.data._replace(power_map=walks)
        assert all(data.real_flags) and not all(table.data.real_flags)
        lying = CharacterTable(group_name=table.group_name, data=data, rows=table.rows)
        with pytest.raises(TableIntegrityError):
            validate_table(lying)


class TestPointwiseAlgebra:
    def test_power_zero_is_all_ones(self, group_factory):
        _, cd = group_factory("S3")
        assert power(pi_character(cd.data), 0) == all_ones(cd.data)

    def test_s3_cubes(self, group_factory):
        _, cd = group_factory("S3")
        assert rationals(power(pi_character(cd.data), 3)) == [216, 27, 8]

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_mixed_power_identity(self, group_factory, name):
        _, cd = group_factory(name)
        pi = pi_character(cd.data)
        psi = psi_character(cd.data)
        for n in range(0, 4):
            for m in range(1, 4):
                assert cf_mul(power(pi, n), power(psi, m)) == power(psi, n + m)

    def test_negative_power_rejected(self, group_factory):
        _, cd = group_factory("S3")
        with pytest.raises(ValueError):
            power(pi_character(cd.data), -1)


class TestInner:
    def test_norm_of_trivial(self, group_factory):
        _, cd = group_factory("S3")
        one = all_ones(cd.data)
        assert inner(one, one) == 1

    def test_s3_values(self, group_factory):
        _, cd = group_factory("S3")
        pi = pi_character(cd.data)
        one = all_ones(cd.data)
        assert inner(one, power(pi, 2)) == 11
        assert inner(one, power(pi, 3)) == 49

    def test_orthogonality_of_rows(self, table_factory):
        rows = row_functions(table_factory("A4"))
        for a, phi in enumerate(rows):
            for b, theta in enumerate(rows):
                assert inner(phi, theta) == (1 if a == b else 0)


class TestGammaDelta:
    def test_s3_gamma_of_trivial(self, group_factory, table_factory):
        _, cd = group_factory("S3")
        table = table_factory("S3")
        values = [gamma(n, table, 0) for n in (1, 2, 3, 4)]
        assert values == [3, 11, 49, 251]

    def test_s3_gamma_of_sign(self, group_factory, table_factory):
        _, cd = group_factory("S3")
        table = table_factory("S3")
        assert gamma(2, table, 1) == 7

    def test_s3_delta_matches_gamma(self, group_factory, table_factory):
        # every class of S3 is real
        _, cd = group_factory("S3")
        table = table_factory("S3")
        for r in range(len(table.rows)):
            for n in range(1, 5):
                assert delta(n, table, r) == gamma(n, table, r)

    def test_c3_delta(self, group_factory, table_factory):
        _, cd = group_factory("C3")
        table = table_factory("C3")
        assert delta(2, table, 0) == 3

    def test_trivial_group(self, group_factory, table_factory):
        _, cd = group_factory("trivial")
        table = table_factory("trivial")
        for n in range(1, 6):
            assert delta(n, table, 0) == 1
            assert gamma(n, table, 0) == 1

    def test_n_must_be_positive(self, group_factory, table_factory):
        _, cd = group_factory("S3")
        table = table_factory("S3")
        with pytest.raises(ValueError):
            gamma(0, table, 0)
        with pytest.raises(ValueError):
            delta(0, table, 0)

    def test_n_bounded(self, table_factory):
        table = table_factory("S5")
        for fn in (gamma, delta):
            assert fn(MAX_POWER, table, 0) > 0
            with pytest.raises(ValueError, match="at most"):
                fn(MAX_POWER + 1, table, 0)

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_non_negative_up_to_five(self, group_factory, table_factory, name):
        _, cd = group_factory(name)
        table = table_factory(name)
        for r in range(len(table.rows)):
            for n in range(1, 6):
                assert gamma(n, table, r) >= 0
                assert delta(n, table, r) >= 0

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_gamma_of_trivial_is_weighted_class_count(self, group_factory, table_factory, name):
        group, cd = group_factory(name)
        table = table_factory(name)
        for n in range(1, 4):
            expected = sum(c ** (n - 1) for c in cd.data.centralizer_orders)
            assert gamma(n, table, 0) == expected

    @pytest.mark.parametrize("name", ("S3", "C4", "Q8", "A4", "A5"))
    def test_decomposition_completeness(self, group_factory, table_factory, name):
        _, cd = group_factory(name)
        table = table_factory(name)
        pi = pi_character(cd.data)
        for n in range(1, 4):
            acc = constant(table.data, 0)
            for r, row in enumerate(row_functions(table)):
                acc = cf_add(acc, cf_mul(row, gamma(n, table, r)))
            assert acc == power(pi, n)

    def test_negative_multiplicity_rejected(self, group_factory):
        # a crafted, unvalidated table: minus the trivial character of S3
        _, cd = group_factory("S3")
        table = crafted(cd.data, cf_mul(all_ones(cd.data), -1).values)
        with pytest.raises(TableIntegrityError):
            gamma(1, table, 0)

    def test_irrational_multiplicity_rejected(self, group_factory):
        # a crafted, unvalidated table; the identity is the only real class
        # of C3, so delta sees E(3) too
        _, cd = group_factory("C3")
        one = Cyclotomic(3, [1])
        table = crafted(cd.data, (root_power(3, 1), one, one))
        with pytest.raises(NonIntegralValueError):
            gamma(1, table, 0)
        with pytest.raises(NonIntegralValueError):
            delta(1, table, 0)


class TestRowSums:
    # the row sums over all classes and over the real classes are gamma(1, .)
    # and delta(1, .)
    def test_s3_trivial(self, group_factory, table_factory):
        _, cd = group_factory("S3")
        table = table_factory("S3")
        assert (gamma(1, table, 0), delta(1, table, 0)) == (3, 3)

    def test_s3_degree_two(self, group_factory, table_factory):
        _, cd = group_factory("S3")
        table = table_factory("S3")
        assert (gamma(1, table, 2), delta(1, table, 2)) == (1, 1)

    def test_c3_nontrivial(self, group_factory, table_factory):
        _, cd = group_factory("C3")
        table = table_factory("C3")
        for r in range(1, len(table.rows)):
            assert (gamma(1, table, r), delta(1, table, r)) == (0, 1)

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_row_sums_equal_multiplicities(self, group_factory, table_factory, name):
        # the weighted row sums equal the inner products [chi, pi^n], [chi, psi^n]
        _, cd = group_factory(name)
        table = table_factory(name)
        pi = pi_character(cd.data)
        psi = psi_character(cd.data)
        for r, row in enumerate(row_functions(table)):
            for n in range(1, 5):
                assert gamma(n, table, r) == inner(row, power(pi, n))
                assert delta(n, table, r) == inner(row, power(psi, n))


def cyclotomic_sum_multiplicity(phi, n, real_only):
    # the sum of c^(n-1) phi(g) over classes as one Cyclotomic per term, as
    # classfuncs computed it before the collapse by centralizer order
    data = phi.data
    total = Cyclotomic(data.exponent, [])
    for c, real, v in zip(data.centralizer_orders, data.real_flags, phi.values):
        if real or not real_only:
            total = total + c ** (n - 1) * v
    result = as_rational_integer(total)
    if result < 0:
        raise TableIntegrityError(f"multiplicity {result} is negative (corrupt input)")
    return result


class TestCollapsedMultiplicities:
    @pytest.mark.parametrize("name", ALL_GROUPS + SPEC_GROUPS)
    def test_equal_to_cyclotomic_sum(self, table_factory, spec_tables, name):
        table = spec_tables[name] if name in SPEC_GROUPS else table_factory(name)
        for r, row in enumerate(row_functions(table)):
            for n in range(1, 9):
                assert gamma(n, table, r) == cyclotomic_sum_multiplicity(row, n, False)
                assert delta(n, table, r) == cyclotomic_sum_multiplicity(row, n, True)

    def test_not_galois_stable(self, table_factory):
        # 3 eps at the class with c = 2 and -2 eps at the one with c = 3: the
        # sum in Z[eps] is eps at n = 1 but 3*2 eps - 2*3 eps = 0 at n = 2.
        # Only an unvalidated table has such a row, and its u_c are refused
        # at every n
        data = table_factory("S3").data
        eps = root_power(data.exponent, 1)
        by_order = {data.order: Cyclotomic(data.exponent, []), 2: 3 * eps, 3: -2 * eps}
        values = tuple(by_order[c] for c in data.centralizer_orders)
        table = crafted(data, values)
        for fn, real_only in ((gamma, False), (delta, True)):
            with pytest.raises(NonIntegralValueError):
                cyclotomic_sum_multiplicity(CF(values, data), 1, real_only)
            assert cyclotomic_sum_multiplicity(CF(values, data), 2, real_only) == 0
            for n in (1, 2):
                with pytest.raises(NonIntegralValueError):
                    fn(n, table, 0)

    def test_no_cyclotomic_built_per_n(self, table_factory, monkeypatch):
        tables = [table_factory(name) for name in ALL_GROUPS]
        for table in tables:  # collapse every row first
            for r in range(len(table.rows)):
                gamma(1, table, r)
                delta(1, table, r)
        built = []
        make = Cyclotomic.__dict__["_make"].__func__
        init = Cyclotomic.__init__

        def counting_make(cls, e, coeffs):
            built.append(e)
            return make(cls, e, coeffs)

        def counting_init(self, e, coeffs):
            built.append(e)
            init(self, e, coeffs)

        monkeypatch.setattr(Cyclotomic, "_make", classmethod(counting_make))
        monkeypatch.setattr(Cyclotomic, "__init__", counting_init)
        for table in tables:
            for r in range(len(table.rows)):
                for n in range(1, 9):
                    gamma(n, table, r)
                    delta(n, table, r)
        assert built == []
