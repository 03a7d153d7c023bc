import pytest

from chartab.classfuncs import MAX_POWER, ClassFunction, delta, gamma
from chartab.cyclo import Cyclotomic, as_rational_integer
from chartab.errors import ClassDataMismatchError, NonIntegralValueError, TableIntegrityError
from chartab.tables import CharacterTable, validate_table

from conftest import (
    ALL_GROUPS,
    SPEC_GROUPS,
    all_ones,
    cf_add,
    cf_mul,
    inner,
    pi_character,
    power,
    psi_character,
    root_power,
)


def rationals(cf):
    return [as_rational_integer(v) for v in cf.values]


class TestHash:
    def test_hash_is_computed_once_and_kept(self, table_factory):
        table = table_factory("S4")
        row = ClassFunction(table.rows[1].values, table.data)  # never hashed
        with pytest.raises(AttributeError):
            row._hash
        h = hash(row)
        assert h == hash((row.values, row.data)) == hash(table.rows[1])
        assert row._hash == h
        assert hash(row) == h
        for attr in ("_hash", "values"):
            with pytest.raises(AttributeError):
                setattr(row, attr, 0)
            with pytest.raises(AttributeError):
                delattr(row, attr)
        assert hash(row) == h


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
        data = table.data
        total = ClassFunction(
            tuple(Cyclotomic(data.exponent, []) for _ in range(data.k)), data
        )
        for row in table.rows:
            conj_row = ClassFunction(tuple(v.conjugate() for v in row.values), data)
            total = cf_add(total, cf_mul(row, conj_row))
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
        data = table.data
        total = ClassFunction(
            tuple(Cyclotomic(data.exponent, []) for _ in range(data.k)), data
        )
        for row in table.rows:
            total = cf_add(total, cf_mul(row, row))
        assert total == psi_character(data)

    def test_corrupt_table_detected(self, table_factory):
        table = table_factory("C4")
        # lie about which classes are real, through walks ending at their own
        # class: the table no longer validates
        walks = tuple(row[:-1] + (i,) for i, row in enumerate(table.data.power_map))
        data = table.data._replace(power_map=walks)
        assert all(data.real_flags) and not all(table.data.real_flags)
        lying = CharacterTable(
            group_name=table.group_name,
            data=data,
            rows=tuple(ClassFunction(row.values, data) for row in table.rows),
        )
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

    def test_mismatched_data_rejected(self, group_factory):
        _, cd_s3 = group_factory("S3")
        _, cd_c3 = group_factory("C3")
        with pytest.raises(ClassDataMismatchError):
            cf_mul(pi_character(cd_s3.data), pi_character(cd_c3.data))

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
        table = table_factory("A4")
        for a in range(table.data.k):
            for b in range(table.data.k):
                value = inner(table.rows[a], table.rows[b])
                assert value == (1 if a == b else 0)

    def test_mismatch_rejected(self, group_factory):
        _, cd_s3 = group_factory("S3")
        _, cd_c4 = group_factory("C4")
        with pytest.raises(ClassDataMismatchError):
            inner(all_ones(cd_s3.data), all_ones(cd_c4.data))


class TestGammaDelta:
    def test_s3_gamma_of_trivial(self, group_factory, table_factory):
        _, cd = group_factory("S3")
        table = table_factory("S3")
        values = [gamma(n, table.rows[0]) for n in (1, 2, 3, 4)]
        assert values == [3, 11, 49, 251]

    def test_s3_gamma_of_sign(self, group_factory, table_factory):
        _, cd = group_factory("S3")
        table = table_factory("S3")
        assert gamma(2, table.rows[1]) == 7

    def test_s3_delta_matches_gamma(self, group_factory, table_factory):
        # every class of S3 is real
        _, cd = group_factory("S3")
        table = table_factory("S3")
        for row in table.rows:
            for n in range(1, 5):
                assert delta(n, row) == gamma(n, row)

    def test_c3_delta(self, group_factory, table_factory):
        _, cd = group_factory("C3")
        table = table_factory("C3")
        assert delta(2, table.rows[0]) == 3

    def test_trivial_group(self, group_factory, table_factory):
        _, cd = group_factory("trivial")
        table = table_factory("trivial")
        for n in range(1, 6):
            assert delta(n, table.rows[0]) == 1
            assert gamma(n, table.rows[0]) == 1

    def test_n_must_be_positive(self, group_factory, table_factory):
        _, cd = group_factory("S3")
        table = table_factory("S3")
        with pytest.raises(ValueError):
            gamma(0, table.rows[0])
        with pytest.raises(ValueError):
            delta(0, table.rows[0])

    def test_n_bounded(self, table_factory):
        row = table_factory("S5").rows[0]
        for fn in (gamma, delta):
            assert fn(MAX_POWER, row) > 0
            with pytest.raises(ValueError, match="at most"):
                fn(MAX_POWER + 1, row)

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_non_negative_up_to_five(self, group_factory, table_factory, name):
        _, cd = group_factory(name)
        table = table_factory(name)
        for row in table.rows:
            for n in range(1, 6):
                assert gamma(n, row) >= 0
                assert delta(n, row) >= 0

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_gamma_of_trivial_is_weighted_class_count(self, group_factory, table_factory, name):
        group, cd = group_factory(name)
        table = table_factory(name)
        for n in range(1, 4):
            expected = sum(c ** (n - 1) for c in cd.data.centralizer_orders)
            assert gamma(n, table.rows[0]) == expected

    @pytest.mark.parametrize("name", ("S3", "C4", "Q8", "A4", "A5"))
    def test_decomposition_completeness(self, group_factory, table_factory, name):
        _, cd = group_factory(name)
        table = table_factory(name)
        data = table.data
        pi = pi_character(cd.data)
        for n in range(1, 4):
            acc = ClassFunction(
                tuple(Cyclotomic(data.exponent, []) for _ in range(data.k)), data
            )
            for row in table.rows:
                acc = cf_add(acc, cf_mul(row, gamma(n, row)))
            assert acc == power(pi, n)

    def test_negative_multiplicity_rejected(self, group_factory):
        _, cd = group_factory("S3")
        with pytest.raises(TableIntegrityError):
            gamma(1, cf_mul(all_ones(cd.data), -1))

    def test_irrational_multiplicity_rejected(self, group_factory):
        # the identity is the only real class of C3, so delta sees E(3) too
        _, cd = group_factory("C3")
        one = Cyclotomic(3, [1])
        phi = ClassFunction((root_power(3, 1), one, one), cd.data)
        with pytest.raises(NonIntegralValueError):
            gamma(1, phi)
        with pytest.raises(NonIntegralValueError):
            delta(1, phi)


class TestRowSums:
    # the row sums over all classes and over the real classes are gamma(1, .)
    # and delta(1, .)
    def test_s3_trivial(self, group_factory, table_factory):
        _, cd = group_factory("S3")
        table = table_factory("S3")
        assert (gamma(1, table.rows[0]), delta(1, table.rows[0])) == (3, 3)

    def test_s3_degree_two(self, group_factory, table_factory):
        _, cd = group_factory("S3")
        table = table_factory("S3")
        assert (gamma(1, table.rows[2]), delta(1, table.rows[2])) == (1, 1)

    def test_c3_nontrivial(self, group_factory, table_factory):
        _, cd = group_factory("C3")
        table = table_factory("C3")
        for row in table.rows[1:]:
            assert (gamma(1, row), delta(1, row)) == (0, 1)

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_row_sums_equal_multiplicities(self, group_factory, table_factory, name):
        # the weighted row sums equal the inner products [chi, pi^n], [chi, psi^n]
        _, cd = group_factory(name)
        table = table_factory(name)
        pi = pi_character(cd.data)
        psi = psi_character(cd.data)
        for row in table.rows:
            for n in range(1, 5):
                assert gamma(n, row) == inner(row, power(pi, n))
                assert delta(n, row) == inner(row, power(psi, n))


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
        for row in table.rows:
            for n in range(1, 9):
                assert gamma(n, row) == cyclotomic_sum_multiplicity(row, n, False)
                assert delta(n, row) == cyclotomic_sum_multiplicity(row, n, True)

    def test_not_galois_stable(self, table_factory):
        # 3 eps at the class with c = 2 and -2 eps at the one with c = 3: the
        # sum is eps at n = 1 but 3*2 eps - 2*3 eps = 0 at n = 2
        data = table_factory("S3").data
        eps = root_power(data.exponent, 1)
        by_order = {data.order: Cyclotomic(data.exponent, []), 2: 3 * eps, 3: -2 * eps}
        phi = ClassFunction(tuple(by_order[c] for c in data.centralizer_orders), data)
        for fn, real_only in ((gamma, False), (delta, True)):
            with pytest.raises(NonIntegralValueError) as expected:
                cyclotomic_sum_multiplicity(phi, 1, real_only)
            with pytest.raises(NonIntegralValueError) as got:
                fn(1, phi)
            assert str(got.value) == str(expected.value)
            assert fn(2, phi) == cyclotomic_sum_multiplicity(phi, 2, real_only) == 0

    def test_no_cyclotomic_built_per_n(self, table_factory, monkeypatch):
        tables = [table_factory(name) for name in ALL_GROUPS]
        for table in tables:  # collapse every row first
            for row in table.rows:
                gamma(1, row)
                delta(1, row)
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
            for row in table.rows:
                for n in range(1, 9):
                    gamma(n, row)
                    delta(n, row)
        assert built == []
