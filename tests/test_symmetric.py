"""S_n against its closed forms: the Murnaghan-Nakayama rule, z_mu, hook
lengths and p-cores.  None of them goes through the class matrices."""

from math import factorial, prod

import pytest

from chartab.arith import p_part
from chartab.blocks import principal_block_members
from chartab.cyclo import as_rational_integer
from chartab.groups import GroupSpec, conjugacy_data, enumerate_group
from chartab.reduction import build_reduction
from chartab.tables import compute_table

from conftest import (
    beta_set,
    cycle_type,
    hook_lengths,
    murnaghan_nakayama,
    p_core,
    partitions,
    z_mu,
)

DEGREES = range(2, 8)


@pytest.fixture(scope="module")
def symmetric():
    """n -> (table of S_n, cycle type of each class, Murnaghan-Nakayama rows).

    The rows map each tuple of character values, one per class, to its
    partition.
    """
    out = {}
    for n in DEGREES:
        cycle = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
        cd = conjugacy_data(enumerate_group(GroupSpec(f"S{n}", n, ("(1 2)", cycle)), cap=10**5))
        table = compute_table(cd)
        types = tuple(cycle_type(cd.group.elements[r]) for r in cd.representatives)
        oracle = {
            tuple(murnaghan_nakayama(beta_set(lam), mu) for mu in types): lam
            for lam in partitions(n)
        }
        out[n] = table, types, oracle
    return out


def _primes_dividing_factorial(n):
    return [p for p in (2, 3, 5, 7) if p <= n]


def _labels(table, oracle):
    """The partition of each table row, None for a row the oracle lacks."""
    return [oracle.get(tuple(as_rational_integer(v) for v in row.values)) for row in table.rows]


@pytest.mark.parametrize("n", DEGREES)
def test_rows_are_the_murnaghan_nakayama_rows(symmetric, n):
    table, _, oracle = symmetric[n]
    assert len(oracle) == len(partitions(n))
    assert sorted(_labels(table, oracle)) == sorted(oracle.values())


@pytest.mark.parametrize("n", DEGREES)
def test_class_sizes_are_n_factorial_over_z_mu(symmetric, n):
    table, types, _ = symmetric[n]
    assert table.data.sizes == tuple(factorial(n) // z_mu(mu) for mu in types)


@pytest.mark.parametrize("n", DEGREES)
def test_degrees_are_hook_length_degrees(symmetric, n):
    table, _, oracle = symmetric[n]
    labels = _labels(table, oracle)
    assert table.degrees == tuple(factorial(n) // prod(hook_lengths(lam)) for lam in labels)


@pytest.mark.parametrize("n", DEGREES)
def test_principal_block_is_the_p_core_of_n(symmetric, n):
    table, _, oracle = symmetric[n]
    labels = _labels(table, oracle)
    for p in _primes_dividing_factorial(n):
        members = principal_block_members(table, build_reduction(table.data.exponent, p))
        core = p_core((n,), p)
        expected = {r for r, lam in enumerate(labels) if p_core(lam, p) == core}
        assert set(members.members) == expected, p


@pytest.mark.parametrize("n", DEGREES)
def test_defect_zero_rows_are_the_p_cores(symmetric, n):
    table, _, oracle = symmetric[n]
    labels = _labels(table, oracle)
    for p in _primes_dividing_factorial(n):
        full = p_part(table.data.order, p)
        defect_zero = {r for r, d in enumerate(table.degrees) if p_part(d, p) == full}
        assert defect_zero == {r for r, lam in enumerate(labels) if p_core(lam, p) == lam}, p
