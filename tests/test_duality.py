import inspect
import random
from fractions import Fraction

import pytest

from chartab.arith import divisors, p_part
from chartab import duality
from chartab.classfuncs import MAX_POWER, gamma
from chartab.duality import (
    SizeSpectrum,
    defect_zero_by_characters,
    defect_zero_direct,
    delta_sequence,
    gamma_sequence,
    recover_class_sizes,
    recover_real_class_sizes,
)
from chartab.errors import InconsistentSequenceError

from conftest import ALL_GROUPS

# orders of the catalog groups, of the bench groups S6, A6 and GL(3,2), and of S7
SOLVER_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12, 24, 60, 120, 168, 360, 720, 5040)


def gauss_vandermonde(nodes, rhs):
    """Reference solve of sum_i x_i nodes_i^(n-1) = rhs[n-1] by Fraction elimination."""
    d = len(nodes)
    aug = [
        [Fraction(node) ** row for node in nodes] + [Fraction(rhs[row])]
        for row in range(d)
    ]
    for col in range(d):
        pivot = max(
            range(col, d),
            key=lambda r: abs(aug[r][col].numerator * aug[r][col].denominator),
        )
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][d] for r in range(d)]


class TestRecoverClassSizes:
    def test_order_six(self):
        got = recover_class_sizes([3, 11, 49, 251], 6)
        assert got.as_dict() == {1: 1, 2: 1, 3: 1}

    def test_trivial_order(self):
        assert recover_class_sizes([1], 1).as_dict() == {1: 1}

    def test_abelian_order_four(self):
        assert recover_class_sizes([4, 16, 64], 4).as_dict() == {1: 4}

    def test_surplus_terms_verified(self):
        # the fifth term is 6^4 + 3^4 + 2^4; a consistent one is fine, a
        # wrong one is an error
        assert recover_class_sizes([3, 11, 49, 251, 1393], 6).as_dict() == {1: 1, 2: 1, 3: 1}
        with pytest.raises(InconsistentSequenceError):
            recover_class_sizes([3, 11, 49, 251, 1394], 6)

    def test_too_few_terms(self):
        with pytest.raises(ValueError):
            recover_class_sizes([3, 11], 6)

    def test_non_integral_solution_rejected(self):
        with pytest.raises(InconsistentSequenceError):
            recover_class_sizes([3, 11, 49, 250], 6)

    def test_negative_solution_rejected(self):
        # solves to -1 classes of size 1 and 3 of size 2
        with pytest.raises(InconsistentSequenceError):
            recover_class_sizes([2, 1], 2)

    def test_partial_cover_rejected(self):
        # solves to one class of size 1 and nothing else: cannot fill order 3
        with pytest.raises(InconsistentSequenceError):
            recover_class_sizes([1, 3], 3)


class TestVandermondeSolve:
    def test_random_nodes_match_elimination(self):
        rng = random.Random(1970)
        for _ in range(200):
            d = rng.randrange(1, 13)
            nodes = rng.sample(range(-60, 300), d)
            rhs = [rng.randrange(-10**6, 10**6) for _ in range(d)]
            assert duality._solve_vandermonde(nodes, rhs) == gauss_vandermonde(nodes, rhs)

    @pytest.mark.parametrize("order", SOLVER_ORDERS)
    def test_divisor_nodes_match_elimination(self, order):
        rng = random.Random(order)
        nodes = [order // s for s in divisors(order)]
        counts = [rng.randrange(0, 4) for _ in nodes]
        consistent = [
            sum(c * x**n for c, x in zip(counts, nodes)) for n in range(len(nodes))
        ]
        arbitrary = [rng.randrange(-1000, 1000) for _ in nodes]
        for rhs in (consistent, arbitrary):
            solution = duality._solve_vandermonde(nodes, rhs)
            # the system is non-singular, so satisfying it pins the solution
            assert [
                sum(v * x**n for v, x in zip(solution, nodes)) for n in range(len(nodes))
            ] == rhs
            if len(nodes) <= 30:  # elimination takes about 8 s for 5040's 60 nodes
                assert solution == gauss_vandermonde(nodes, rhs)
        assert duality._solve_vandermonde(nodes, consistent) == counts

    def test_messages_pinned(self):
        with pytest.raises(InconsistentSequenceError) as exc:
            recover_class_sizes([3, 11, 49, 250], 6)
        assert str(exc.value) == (
            "no group of order 6 yields this sequence: count for size 1 solves to 59/60"
        )
        with pytest.raises(InconsistentSequenceError) as exc:
            recover_class_sizes([2, 1], 2)
        assert str(exc.value) == (
            "no group of order 2 yields this sequence: count for size 1 solves to -1"
        )


class TestRecoverRealClassSizes:
    def test_c3(self):
        assert recover_real_class_sizes([1, 3], 3).as_dict() == {1: 1}

    def test_s3_all_real(self):
        got = recover_real_class_sizes([3, 11, 49, 251], 6)
        assert got.as_dict() == {1: 1, 2: 1, 3: 1}

    def test_trivial(self):
        assert recover_real_class_sizes([1], 1).as_dict() == {1: 1}

    def test_overfull_rejected(self):
        # twice the identity class of the trivial group cannot fit in order 1
        with pytest.raises(InconsistentSequenceError):
            recover_real_class_sizes([2, 2], 1)


@pytest.mark.parametrize("name", ALL_GROUPS)
class TestRoundTrip:
    def test_gamma_round_trip(self, group_factory, table_factory, name):
        group, cd = group_factory(name)
        table = table_factory(name)
        d = len(divisors(group.order))
        seq = gamma_sequence(table, d)
        assert recover_class_sizes(seq, group.order) == SizeSpectrum.from_sizes(
            group.order, cd.data.sizes
        )

    def test_delta_round_trip(self, group_factory, table_factory, name):
        group, cd = group_factory(name)
        table = table_factory(name)
        d = len(divisors(group.order))
        seq = delta_sequence(table, d)
        real_sizes = [s for s, r in zip(cd.data.sizes, cd.data.real_flags) if r]
        assert recover_real_class_sizes(seq, group.order) == SizeSpectrum.from_sizes(
            group.order, real_sizes
        )

    def test_longer_prefixes_stay_consistent(self, group_factory, table_factory, name):
        group, cd = group_factory(name)
        table = table_factory(name)
        d = len(divisors(group.order))
        seq = gamma_sequence(table, d + 3)
        expected = SizeSpectrum.from_sizes(group.order, cd.data.sizes)
        for length in range(d, d + 4):
            assert recover_class_sizes(seq[:length], group.order) == expected


class TestSequenceLength:
    @pytest.mark.parametrize("sequence", [gamma_sequence, delta_sequence])
    def test_length_checked_before_any_term(self, table_factory, monkeypatch, sequence):
        table = table_factory("S3")

        def no_terms(table, r, ns, real_only):
            raise AssertionError("a term was computed")

        monkeypatch.setattr(duality, "_multiplicities", no_terms)
        with pytest.raises(ValueError, match="at most"):
            sequence(table, MAX_POWER + 1)

    @pytest.mark.parametrize("sequence", [gamma_sequence, delta_sequence])
    @pytest.mark.parametrize("length", [0, -5])
    def test_length_below_one_rejected(self, table_factory, sequence, length):
        with pytest.raises(ValueError, match=f"at least 1, got {length}"):
            sequence(table_factory("S3"), length)

    def test_longest_sequence_allowed(self, table_factory):
        assert len(gamma_sequence(table_factory("S3"), MAX_POWER)) == MAX_POWER


class TestRecoverFromTable:
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("extra_terms", [0, 3])
    def test_reads_the_divisor_count_plus_extra_terms(self, table_factory, real, extra_terms):
        table = table_factory("D12")
        sequence, recovered, actual = duality.recover_from_table(table, real, extra_terms)
        length = len(divisors(12)) + extra_terms
        assert sequence == (delta_sequence if real else gamma_sequence)(table, length)
        assert recovered == actual
        sizes = [s for s, r in zip(table.data.sizes, table.data.real_flags) if r or not real]
        assert actual == SizeSpectrum.from_sizes(12, sizes)

    def test_default_surplus_is_extra_terms(self, table_factory):
        default = inspect.signature(duality.recover_from_table).parameters["extra_terms"].default
        assert default is duality.EXTRA_TERMS == 3
        sequence, _, _ = duality.recover_from_table(table_factory("D12"))
        assert len(sequence) == len(divisors(12)) + duality.EXTRA_TERMS


class TestSizeSpectrum:
    def test_counts_are_sorted_and_positive(self):
        spec = SizeSpectrum.from_sizes(12, [4, 1, 3, 4])
        assert spec.counts == ((1, 1), (3, 1), (4, 2))
        assert sum(size * count for size, count in spec.counts) == 12
        assert sum(count for _, count in spec.counts) == 4

    def test_equality_ignores_construction_path(self):
        a = SizeSpectrum.from_sizes(6, [1, 2, 3])
        b = SizeSpectrum.from_mapping(6, {3: 1, 2: 1, 1: 1})
        assert a == b


class TestDefectZeroDirect:
    def test_s3_p3_is_transpositions(self, group_factory):
        group, cd = group_factory("S3")
        classes = defect_zero_direct(cd.data, 3)
        assert classes == [cd.data.sizes.index(3)]
        assert cd.data.rep_orders[classes[0]] == 2

    def test_s3_p2_is_three_cycles(self, group_factory):
        _, cd = group_factory("S3")
        assert defect_zero_direct(cd.data, 2) == [cd.data.sizes.index(2)]

    def test_c3_p3_empty(self, group_factory):
        _, cd = group_factory("C3")
        assert defect_zero_direct(cd.data, 3) == []

    def test_p_part_characterization(self, group_factory):
        for name in ("S4", "A5", "S5"):
            group, cd = group_factory(name)
            for p in (2, 3, 5):
                if group.order % p:
                    continue
                for i in defect_zero_direct(cd.data, p):
                    assert p_part(cd.data.sizes[i], p) == p_part(group.order, p)
                    assert cd.data.centralizer_orders[i] % p != 0

    def test_non_prime_rejected(self, group_factory):
        _, cd = group_factory("S3")
        with pytest.raises(ValueError, match="^p must be prime, got 6$"):
            defect_zero_direct(cd.data, 6)


class TestDefectZeroByCharacters:
    def test_s3_p3(self, group_factory, table_factory):
        group, cd = group_factory("S3")
        rep = defect_zero_by_characters(table_factory("S3"), 3, 2)
        assert rep.residues == (2, 1, 0)  # gamma_2 = (11, 7, 9)
        assert rep.character_side and rep.direct_side

    def test_c3_p3_all_zero(self, group_factory, table_factory):
        group, cd = group_factory("C3")
        rep = defect_zero_by_characters(table_factory("C3"), 3, 2)
        assert rep.residues == (0, 0, 0)
        assert not rep.character_side and not rep.direct_side

    def test_s3_p3_real(self, group_factory, table_factory):
        group, cd = group_factory("S3")
        rep = defect_zero_by_characters(table_factory("S3"), 3, 2, real=True)
        assert rep.character_side and rep.direct_side

    def test_n_below_two_rejected(self, group_factory, table_factory):
        _, cd = group_factory("S3")
        with pytest.raises(ValueError):
            defect_zero_by_characters(table_factory("S3"), 3, 1)

    def test_non_prime_rejected(self, group_factory, table_factory):
        _, cd = group_factory("S3")
        with pytest.raises(ValueError):
            defect_zero_by_characters(table_factory("S3"), 4, 2)

    def test_n_above_max_power_rejected(self, table_factory):
        with pytest.raises(ValueError, match=f"at most {MAX_POWER}, got {MAX_POWER + 1}"):
            defect_zero_by_characters(table_factory("S3"), 3, MAX_POWER + 1)

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_biconditional_sweep(self, group_factory, table_factory, name):
        from chartab.arith import prime_factors

        group, cd = group_factory(name)
        table = table_factory(name)
        for p in prime_factors(group.order):
            for n in (2, 3):
                for real in (False, True):
                    rep = defect_zero_by_characters(table, p, n, real)
                    assert rep.character_side == rep.direct_side

    def test_n1_would_break_the_biconditional(self, group_factory, table_factory):
        # the n >= 2 hypothesis is sharp: for the quaternion group at p = 2
        # the residues of the first multiplicities are not all zero even
        # though no class has 2-defect 0
        group, cd = group_factory("Q8")
        table = table_factory("Q8")
        residues_n1 = [gamma(1, table, r) % 2 for r in range(len(table.rows))]
        assert any(residues_n1)
        assert defect_zero_direct(cd.data, 2) == []
        rep = defect_zero_by_characters(table, 2, 2)
        assert not rep.character_side and not rep.direct_side
