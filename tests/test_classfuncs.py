import pytest

from chartab.classfuncs import (
    MAX_POWER,
    ClassFunction,
    all_ones,
    delta,
    gamma,
    inner,
    pi_character,
    power,
    psi_character,
)
from chartab.cyclo import Cyclotomic, as_rational_integer, root_power
from chartab.errors import ClassDataMismatchError, NonIntegralValueError, TableIntegrityError
from chartab.tables import CharacterTable, validate_table

from conftest import ALL_GROUPS


def rationals(cf):
    return [as_rational_integer(v) for v in cf.values]


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
            tuple(Cyclotomic.zero(data.exponent) for _ in range(data.k)), data
        )
        for row in table.rows:
            conj_row = ClassFunction(tuple(v.conjugate() for v in row.values), data)
            total = total + row * conj_row
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
            tuple(Cyclotomic.zero(data.exponent) for _ in range(data.k)), data
        )
        for row in table.rows:
            total = total + row * row
        assert total == psi_character(data)

    def test_corrupt_table_detected(self, table_factory):
        table = table_factory("C4")
        # lie about which classes are real: the table no longer validates
        data = table.data._replace(inverse_class=(0, 1, 2, 3))
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
                assert power(pi, n) * power(psi, m) == power(psi, n + m)

    def test_mismatched_data_rejected(self, group_factory):
        _, cd_s3 = group_factory("S3")
        _, cd_c3 = group_factory("C3")
        with pytest.raises(ClassDataMismatchError):
            pi_character(cd_s3.data) * pi_character(cd_c3.data)

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
                tuple(Cyclotomic.zero(data.exponent) for _ in range(data.k)), data
            )
            for row in table.rows:
                acc = acc + gamma(n, row) * row
            assert acc == power(pi, n)

    def test_negative_multiplicity_rejected(self, group_factory):
        _, cd = group_factory("S3")
        with pytest.raises(TableIntegrityError):
            gamma(1, -1 * all_ones(cd.data))

    def test_irrational_multiplicity_rejected(self, group_factory):
        # the identity is the only real class of C3, so delta sees E(3) too
        _, cd = group_factory("C3")
        one = Cyclotomic.one(3)
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
