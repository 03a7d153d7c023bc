"""Property tests over random permutation groups (skipped without hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from chartab.groups import GroupSpec, conjugacy_data, cycle_string, enumerate_group  # noqa: E402


@st.composite
def group_specs(draw):
    degree = draw(st.sampled_from((6, 5, 4, 3, 2, 1)))  # bias towards big groups
    gens = draw(st.lists(st.permutations(range(degree)), max_size=3))
    return GroupSpec("random", degree, tuple(cycle_string(tuple(g)) for g in gens))


def _orbit(group, x):
    """The class of element x as its orbit under conjugation by every element."""
    inv = group.inverse_index
    return {group.mul(group.mul(inv[g], x), g) for g in range(group.order)}


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
