"""Property tests over random permutation groups (skipped without hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import os  # noqa: E402
import tempfile  # noqa: E402
from math import factorial  # noqa: E402

from chartab.cyclo import as_rational_integer  # noqa: E402
from chartab.groups import GroupSpec, conjugacy_data, cycle_string, enumerate_group  # noqa: E402
from chartab.tables import compute_table, load_table, save_table  # noqa: E402

from conftest import beta_set, cycle_type, inverses, mul, murnaghan_nakayama, partitions  # noqa: E402


@st.composite
def group_specs(draw):
    degree = draw(st.sampled_from((6, 5, 4, 3, 2, 1)))  # bias towards big groups
    gens = draw(st.lists(st.permutations(range(degree)), max_size=3))
    return GroupSpec("random", degree, tuple(cycle_string(tuple(g)) for g in gens))


def _orbit(group, x):
    """The class of element x as its orbit under conjugation by every element."""
    inv = inverses(group)
    return {mul(group, mul(group, inv[g], x), g) for g in range(group.order)}


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(group_specs())
def test_classes_are_orbits_under_the_whole_group(spec):
    group = enumerate_group(spec)
    cd = conjugacy_data(group)
    assert sorted(x for m in cd.members for x in m) == list(range(group.order))
    for c, members in enumerate(cd.members):
        assert set(members) == _orbit(group, members[0])
        assert all(cd.class_of[x] == c for x in members)
    keys = [(len(m), m[0]) for m in cd.members]
    assert keys == sorted(keys)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(group_specs())
def test_random_groups_give_validated_tables(spec):
    # compute_table validates; when the generators happen to generate S_n the
    # rows are the Murnaghan-Nakayama rows, each class read by its cycle type
    cd = conjugacy_data(enumerate_group(spec))
    table = compute_table(cd)
    assert len(table.rows) == cd.k
    if cd.group.order == factorial(spec.degree):
        types = [cycle_type(cd.group.elements[r]) for r in cd.representatives]
        oracle = {
            tuple(murnaghan_nakayama(beta_set(lam), mu) for mu in types)
            for lam in partitions(spec.degree)
        }
        rows = {tuple(as_rational_integer(v) for v in row.values) for row in table.rows}
        assert rows == oracle


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(group_specs())
def test_tables_survive_a_save_and_load(spec):
    table = compute_table(conjugacy_data(enumerate_group(spec)))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
        save_table(table, first)
        loaded = load_table(first)
        assert loaded == table
        save_table(loaded, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
