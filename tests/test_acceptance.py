"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact integer or cyclotomic arithmetic, so every
comparison is equality with zero tolerance; the only approximate bounds are
the wall-clock budgets.
"""

import time
from contextlib import contextmanager
from functools import lru_cache

from chartab.arith import divisors, prime_factors
from chartab.blocks import p_element_flags, principal_block_members, strunkov_analog_gamma
from chartab.classfuncs import delta, gamma
from chartab.cyclo import Cyclotomic, as_rational_integer
from chartab.dixon import _build_table
from chartab.duality import (
    SizeSpectrum,
    defect_zero_by_characters,
    defect_zero_direct,
    delta_sequence,
    gamma_sequence,
    recover_class_sizes,
    recover_real_class_sizes,
)
from chartab.groups import (
    commutator_counts,
    conjugacy_data,
    enumerate_group,
    load_catalog,
)
from chartab.reduction import build_reduction
from chartab.tables import compute_table, dixon_prime, verify_orthogonality

from conftest import (
    cf_add,
    cf_conj,
    cf_mul,
    constant,
    inner,
    pi_character,
    power,
    psi_character,
    row_functions,
)

CATALOG = tuple(load_catalog())


@lru_cache(maxsize=None)
def prepared(name):
    group = enumerate_group(load_catalog()[name])
    cd = conjugacy_data(group)
    return group, cd, compute_table(cd)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(
        f"[PASS] criterion {number}: {description} ({elapsed:.2f}s, "
        f"budget {budget_seconds}s)",
        flush=True,
    )
    assert elapsed < budget_seconds, f"over budget: {elapsed:.2f}s"


def test_criterion_1_s3_counterexample_divisible_by_nine():
    with criterion(1, "S3 block-sum multiplicities are 153, 153, 279, all = 0 mod 9", 1.0):
        group, cd, table = prepared("S3")
        rmap = build_reduction(cd.data.exponent, 3)
        block = principal_block_members(table, rmap).members
        values = [strunkov_analog_gamma(table, r, block) for r in range(len(table.rows))]
        assert values == [153, 153, 279]
        assert all(v % 9 == 0 for v in values)


def test_criterion_2_s3_principal_block_is_everything():
    with criterion(2, "S3 principal 3-block contains all of Irr(S3)", 1.0):
        group, cd, table = prepared("S3")
        report = principal_block_members(table, build_reduction(cd.data.exponent, 3))
        assert report.members == tuple(range(table.data.k))


def test_criterion_3_s3_transpositions_have_defect_zero():
    with criterion(3, "S3 transposition class is 3-defect 0 and gamma_2(1) = 11 = 2 mod 3", 1.0):
        group, cd, table = prepared("S3")
        direct = defect_zero_direct(cd.data, 3)
        transpositions = cd.data.sizes.index(3)
        assert direct == [transpositions]
        assert cd.data.rep_orders[transpositions] == 2
        assert gamma(2, table, 0) == 11
        report = defect_zero_by_characters(table, 3, 2)
        assert report.residues[0] == 2
        assert report.character_side


def test_criterion_4_class_sizes_recovered_for_whole_catalog():
    with criterion(4, "class sizes recovered from multiplicity sequences, all groups", 120.0):
        for name in CATALOG:
            group, cd, table = prepared(name)
            d = len(divisors(group.order))
            seq = gamma_sequence(table, d)
            assert recover_class_sizes(seq, group.order) == SizeSpectrum.from_sizes(
                group.order, cd.data.sizes
            ), name
            dseq = delta_sequence(table, d)
            real_sizes = [s for s, r in zip(cd.data.sizes, cd.data.real_flags) if r]
            assert recover_real_class_sizes(
                dseq, group.order
            ) == SizeSpectrum.from_sizes(group.order, real_sizes), name


def test_criterion_5_defect_biconditional_for_whole_catalog():
    with criterion(5, "defect-0 biconditional for every p | |G|, n in {2,3}, both variants", 120.0):
        for name in CATALOG:
            group, cd, table = prepared(name)
            for p in prime_factors(group.order):
                for n in (2, 3):
                    for real in (False, True):
                        report = defect_zero_by_characters(table, p, n, real)
                        assert report.character_side == report.direct_side, (
                            name, p, n, real,
                        )


def test_criterion_6_table_integrity_for_whole_catalog():
    with criterion(6, "orthogonality, degree sums, integrality, prime independence", 180.0):
        for name in CATALOG:
            group = enumerate_group(load_catalog()[name])
            cd = conjugacy_data(group)
            table = compute_table(cd)
            assert verify_orthogonality(table) == [], name
            assert sum(d * d for d in table.degrees) == group.order, name
            for row in table.rows:
                assert all(type(c) is int for v in row.values for c in v.coeffs), name
            q1 = dixon_prime(cd.data.exponent, group.order)
            q2 = dixon_prime(cd.data.exponent, group.order, above=q1)
            assert _build_table(cd, q2) == table.rows, name


def test_criterion_7_identity_suite_for_whole_catalog():
    with criterion(7, "pi/psi identities, mixed powers, multiplicities as inner products", 60.0):
        for name in CATALOG:
            group, cd, table = prepared(name)
            data = table.data
            rows = row_functions(table)
            pi = pi_character(cd.data)
            total = constant(data, 0)
            for row in rows:
                total = cf_add(total, cf_mul(row, cf_conj(row)))
            assert total == pi, name
            psi = psi_character(data)
            squares = constant(data, 0)
            for row in rows:
                squares = cf_add(squares, cf_mul(row, row))
            assert squares == psi, name
            for n in range(0, 4):
                for m in range(1, 4):
                    assert cf_mul(power(pi, n), power(psi, m)) == power(psi, n + m)
            for r, row in enumerate(rows):
                for n in (1, 2, 3):
                    assert gamma(n, table, r) == inner(row, power(pi, n)), name
                    assert delta(n, table, r) == inner(row, power(psi, n)), name


def test_criterion_8_oracle_cross_checks():
    with criterion(8, "commutator counts match the character formula; p-element tests agree", 60.0):
        for name in CATALOG:
            group, cd, table = prepared(name)
            for n, counts in enumerate(commutator_counts(cd, 2), start=1):
                for c in range(cd.k):
                    total = Cyclotomic(cd.data.exponent, [])
                    for row in table.rows:
                        total = total + row.values[c] * (
                            group.order // row.degree
                        ) ** (2 * n - 1)
                    formula = as_rational_integer(total)
                    assert counts[c] == formula, (name, n, c)
            for p in prime_factors(group.order):
                # raises if the congruence and order tests disagree
                p_element_flags(table, build_reduction(cd.data.exponent, p))
