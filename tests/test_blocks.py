from functools import lru_cache

import pytest

from chartab import blocks
from chartab.arith import prime_factors
from chartab.arith import p_part
from chartab.blocks import (
    alt_normalizer_report,
    central_character,
    p_element_flags,
    principal_block_members,
    strunkov_analog_gamma,
)
from chartab.classfuncs import ClassFunction
from chartab.cyclo import Cyclotomic
from chartab.errors import NonIntegralValueError, TableIntegrityError
from chartab.reduction import build_reduction, reduce_mod_M
from chartab.tables import CharacterTable

from conftest import (
    ALL_GROUPS,
    SPEC_GROUPS,
    cf_add,
    cf_conj,
    cf_mul,
    constant,
    horner,
    inner,
    pi_character,
    power,
    residue_roots,
    row_functions,
)


@pytest.fixture()
def s3(group_factory, table_factory):
    group, cd = group_factory("S3")
    return group, cd, table_factory("S3"), build_reduction(cd.data.exponent, 3)


class TestIsPElement:
    def test_identity_always(self, s3):
        _, _, table, rmap = s3
        assert p_element_flags(table, rmap)[0]

    def test_three_cycles_are_3_elements(self, s3):
        _, cd, table, rmap = s3
        assert p_element_flags(table, rmap)[cd.data.sizes.index(2)]

    def test_transpositions_are_not(self, s3):
        _, cd, table, rmap = s3
        assert not p_element_flags(table, rmap)[cd.data.sizes.index(3)]

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_congruence_equals_order_test(self, group_factory, table_factory, name):
        group, cd = group_factory(name)
        table = table_factory(name)
        for p in prime_factors(group.order):
            rmap = build_reduction(table.data.exponent, p)
            # p_element_flags itself raises if the two tests disagree
            flags = p_element_flags(table, rmap)
            for i in range(cd.k):
                order = cd.data.rep_orders[i]
                while order % p == 0:
                    order //= p
                assert flags[i] == (order == 1)


    def test_order_disagreement_raises(self, s3):
        # claim the transpositions have order 3: the congruence test says no
        _, cd, table, rmap = s3
        t = cd.data.sizes.index(3)
        walks = list(table.data.power_map)
        walks[t] = (0, t, t)
        lying = CharacterTable(
            table.group_name, table.data._replace(power_map=tuple(walks)), table.rows
        )
        with pytest.raises(
            TableIntegrityError,
            match=f"disagree on class {t} for p=3",
        ):
            p_element_flags(lying, rmap)


class TestCentralCharacter:
    def test_identity_class(self, s3):
        _, cd, table, _ = s3
        for r in range(len(table.rows)):
            assert central_character(table, r, 0) == 1

    def test_degree_two_at_three_cycles(self, s3):
        _, cd, table, _ = s3
        assert central_character(table, 2, cd.data.sizes.index(2)) == -1

    def test_sign_at_transpositions(self, s3):
        _, cd, table, _ = s3
        assert central_character(table, 1, cd.data.sizes.index(3)) == -3

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_always_integral(self, group_factory, table_factory, name):
        _, cd = group_factory(name)
        table = table_factory(name)
        for r, row in enumerate(table.rows):
            for i in range(cd.k):
                value = central_character(table, r, i)
                assert value * row.degree == row.values[i] * cd.data.sizes[i]

    def test_non_integral_detected(self, s3):
        _, cd, table, _ = s3
        # the trivial character's values with degree 4 at the identity
        values = (Cyclotomic(table.data.exponent, [4]),) + table.rows[0].values[1:]
        fake = CharacterTable("fake", table.data, (ClassFunction(values),))
        with pytest.raises(NonIntegralValueError):
            central_character(fake, 0, cd.data.sizes.index(3))


class TestPrincipalBlock:
    def test_s3_p3_contains_everything(self, s3):
        _, cd, table, rmap = s3
        report = principal_block_members(table, rmap)
        assert report.members == (0, 1, 2)
        assert not report.failures

    def test_c2_p3_only_trivial(self, group_factory, table_factory):
        group, cd = group_factory("C2")
        table = table_factory("C2")
        report = principal_block_members(table, build_reduction(table.data.exponent, 3))
        assert report.members == (0,)
        assert report.failures == ((1, 1),)

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_trivial_character_always_member(self, group_factory, table_factory, name):
        group, cd = group_factory(name)
        table = table_factory(name)
        for p in (2, 3, 5, 7):
            report = principal_block_members(table, build_reduction(table.data.exponent, p))
            assert report.member_flags[0]
            assert report.members

    def test_trivial_character_leaving_raises(self, s3, monkeypatch):
        _, _, table, rmap = s3
        central = blocks._central_characters(table)
        shifted = ((central[0][0] + 1,) + central[0][1:],) + central[1:]
        monkeypatch.setattr(blocks, "_central_characters", lambda table: shifted)
        with pytest.raises(TableIntegrityError, match="trivial character left"):
            principal_block_members(table, rmap)

    def test_non_prime_rejected(self, s3):
        # the map is the only way to choose p, and it refuses a composite one
        _, cd, table, _ = s3
        with pytest.raises(ValueError, match="^p must be prime, got 6$"):
            principal_block_members(table, build_reduction(table.data.exponent, 6))


# the primes of the ported root checks: every p dividing |G|, and 7 and 13
def _primes(table):
    return sorted({*prime_factors(table.data.order), 7, 13})


@lru_cache(maxsize=None)
def _root_verdicts(table, p):
    """Per root eta of Phi_e in GF(p^f), that is per maximal ideal over p:
    the p-element flags, the member flags and the failure witnesses, with
    every value evaluated at eta by Horner's rule (no reduce_mod_M)."""
    poly, roots = residue_roots(table.data.exponent, p)
    k, sizes = table.data.k, table.data.sizes
    out = []
    for eta in roots:
        @lru_cache(maxsize=None)  # tables repeat values
        def image(z):
            return horner(z.coeffs, eta, p, poly)

        pel = tuple(
            all(image(row.values[i]) == image(row.values[0]) for row in table.rows)
            for i in range(k)
        )
        witnesses = {
            (r, i)
            for r, row in enumerate(table.rows)
            for i in range(k)
            if image(central_character(table, r, i)) != horner((sizes[i],), eta, p, poly)
        }
        members = tuple(
            not any((r, i) in witnesses for i in range(k)) for r in range(len(table.rows))
        )
        out.append((pel, members, witnesses))
    return out


class TestChoiceIndependence:
    @pytest.mark.parametrize("name", ALL_GROUPS + SPEC_GROUPS)
    def test_verdicts_for_every_valid_root(self, table_factory, spec_tables, name):
        # the verdicts hold mod every maximal ideal over p: each root's own
        # p-element flags and principal block are the map's
        table = spec_tables[name] if name in SPEC_GROUPS else table_factory(name)
        for p in _primes(table):
            rmap = build_reduction(table.data.exponent, p)
            pel = p_element_flags(table, rmap)
            blk = principal_block_members(table, rmap).member_flags
            for root_pel, root_blk, _ in _root_verdicts(table, p):
                assert root_pel == pel
                assert root_blk == blk


class TestStrunkovAnalog:
    def test_s3_counterexample_values(self, s3):
        _, cd, table, rmap = s3
        block = principal_block_members(table, rmap).members
        values = [strunkov_analog_gamma(table, r, block) for r in range(len(table.rows))]
        assert values == [153, 153, 279]
        assert all(v % 9 == 0 for v in values)

    def test_small_groups_cross_checked_naively(self, group_factory, table_factory):
        # pinned values; the factorization itself is expanded naively in
        # test_factorization_identity_by_naive_expansion
        group, cd = group_factory("C2")
        table = table_factory("C2")
        block = principal_block_members(table, build_reduction(table.data.exponent, 2)).members
        values = [strunkov_analog_gamma(table, r, block) for r in range(len(table.rows))]
        assert values == [8, 8]
        group_t, cd_t = group_factory("trivial")
        table_t = table_factory("trivial")
        block_t = principal_block_members(table_t, build_reduction(table_t.data.exponent, 2)).members
        assert strunkov_analog_gamma(table_t, 0, block_t) == 1

    def test_empty_block_rejected(self, s3):
        _, cd, table, _ = s3
        with pytest.raises(ValueError):
            strunkov_analog_gamma(table, 0, ())

    def test_explicit_block_override(self, s3):
        _, cd, table, _ = s3
        full = strunkov_analog_gamma(table, 0, (0, 1, 2))
        assert full == 153

    @pytest.mark.parametrize("name", ("trivial", "C2", "C3", "S3"))
    def test_factorization_identity_by_naive_expansion(
        self, group_factory, table_factory, name
    ):
        # sum over chi1, chi2, chi3 of |chi1 chi2|^2 |chi3|^2 equals pi^3
        group, cd = group_factory(name)
        table = table_factory(name)
        rows = row_functions(table)
        conj = [cf_conj(row) for row in rows]
        acc = constant(table.data, 0)
        for c1 in range(table.data.k):
            for c2 in range(table.data.k):
                norm12 = cf_mul(cf_mul(rows[c1], rows[c2]), cf_mul(conj[c1], conj[c2]))
                for c3 in range(table.data.k):
                    acc = cf_add(acc, cf_mul(norm12, cf_mul(rows[c3], conj[c3])))
        assert acc == power(pi_character(cd.data), 3)

    @pytest.mark.parametrize("name", ALL_GROUPS + SPEC_GROUPS)
    def test_equal_to_inner_product_oracle(self, table_factory, spec_tables, name):
        # the weighted class sum against [psi, pi^3 * sum of the block], for
        # every p dividing |G|, the principal block and every irreducible psi
        table = spec_tables[name] if name in SPEC_GROUPS else table_factory(name)
        data = table.data
        pi_cubed = power(pi_character(data), 3)
        rows = row_functions(table)
        for p in prime_factors(data.order):
            block = principal_block_members(table, build_reduction(data.exponent, p)).members
            block_sum = rows[block[0]]
            for r in block[1:]:
                block_sum = cf_add(block_sum, rows[r])
            target = cf_mul(pi_cubed, block_sum)
            for r, psi in enumerate(rows):
                expected = inner(psi, target)
                assert expected.is_rational()
                assert strunkov_analog_gamma(table, r, block) == expected.coeffs[0]


class TestAltNormalizerReport:
    def test_s3_p3(self, s3):
        _, cd, table, rmap = s3
        report = alt_normalizer_report(table, rmap)
        assert report.gamma_values == (153, 153, 279)
        assert report.p_times_order_p_part == 9
        assert report.block_degree_sum == 6
        assert report.block_degree_sum_p_part == 3
        assert all(v % report.p_times_order_p_part == 0 for v in report.gamma_values)

    def test_d12_report_is_exploratory(self, table_factory):
        table = table_factory("D12")
        report = alt_normalizer_report(table, build_reduction(table.data.exponent, 3))
        assert report.gamma_values == (1224, 0, 0, 1224, 0, 2232)
        # divisibility is read off the values: here each normalizer divides each
        normalizers = (
            report.p_times_order_p_part, report.block_degree_sum, report.block_degree_sum_p_part,
        )
        assert normalizers == (9, 6, 3)
        assert all(v % n == 0 for n in normalizers for v in report.gamma_values)

    def test_trivial_group(self, group_factory, table_factory):
        group, cd = group_factory("trivial")
        table = table_factory("trivial")
        report = alt_normalizer_report(table, build_reduction(table.data.exponent, 2))
        assert report.gamma_values == (1,)
        assert report.block == (0,)


def _per_root_is_p_element(class_index, p, table, rmap):
    """The p-element test by differences: chi(g) - chi(1) reduced mod p's radical."""
    congruent = all(
        not any(reduce_mod_M(row.values[class_index] - row.degree, rmap))
        for row in table.rows
    )
    order = table.data.rep_orders[class_index]
    if congruent != (p_part(order, p) == order):
        raise TableIntegrityError("congruence and order tests disagree")
    return congruent


def _per_root_block_flags(table, p, rmap):
    """Principal-block membership by differences of rebuilt central characters."""
    flags = []
    for r in range(len(table.rows)):
        flags.append(all(
            not any(reduce_mod_M(central_character(table, r, i) - size, rmap))
            for i, size in enumerate(table.data.sizes)
        ))
    if not flags[0]:
        raise TableIntegrityError("the trivial character left the principal block")
    return tuple(flags)


class TestSharedDifferences:
    @pytest.mark.parametrize("name", ALL_GROUPS + SPEC_GROUPS)
    def test_verdicts_match_per_root_arithmetic(self, table_factory, spec_tables, name):
        # the verdicts compare images; a zero image of the difference is the
        # same statement because the reduction is a ring map, and a
        # difference in every maximal ideal over p vanishes at every root
        table = spec_tables[name] if name in SPEC_GROUPS else table_factory(name)
        k = table.data.k
        for p in _primes(table):
            rmap = build_reduction(table.data.exponent, p)
            pel = p_element_flags(table, rmap)
            blk = principal_block_members(table, rmap).member_flags
            assert pel == tuple(_per_root_is_p_element(i, p, table, rmap) for i in range(k))
            assert blk == _per_root_block_flags(table, p, rmap)
            poly, roots = residue_roots(table.data.exponent, p)
            for eta in roots:
                assert pel == tuple(
                    all(
                        not any(horner((row.values[i] - row.degree).coeffs, eta, p, poly))
                        for row in table.rows
                    )
                    for i in range(k)
                )


class TestVerdictOracle:
    @pytest.mark.parametrize("name", ALL_GROUPS + SPEC_GROUPS)
    def test_verdicts_match_oracle_zero_tests(self, table_factory, spec_tables, name):
        # reduce_mod_M returns a tuple, truthy even when zero: a verdict that
        # tested a tuple's truth instead of comparing images would disagree
        # with these zero tests.  A pair fails mod some maximal ideal over p
        # iff it fails at some root: the witnesses are the union over roots
        table = spec_tables[name] if name in SPEC_GROUPS else table_factory(name)
        for p in _primes(table):
            rmap = build_reduction(table.data.exponent, p)
            report = principal_block_members(table, rmap)
            verdicts = _root_verdicts(table, p)
            for pel, members, _ in verdicts:
                assert p_element_flags(table, rmap) == pel
                assert report.member_flags == members
            union = set().union(*(witnesses for _, _, witnesses in verdicts))
            assert report.failures == tuple(sorted(union))
