import os

from chartab.groups import conjugacy_data, enumerate_group, load_catalog, load_group_spec
from chartab.tables import CharacterTable
from chartab.verify import _check_determinism, _check_identities

BENCH_SPECS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "specs"
)


def test_identities_reports_negative_multiplicity(group_factory, table_factory):
    # S3 with its sign row negated: still orthonormal and integral, but
    # gamma(1, -sign) = -1
    group, cd = group_factory("S3")
    table = table_factory("S3")
    rows = list(table.rows)
    rows[1] = -1 * rows[1]
    corrupt = CharacterTable(table.group_name, table.data, tuple(rows))
    spec = load_catalog()["S3"]
    assert _check_identities(spec, group, cd, corrupt) == "negative multiplicity for row 1 at n=1"


def test_determinism_for_a_group_outside_the_catalog():
    spec = load_group_spec(os.path.join(BENCH_SPECS, "S6.json"))
    assert spec.name not in load_catalog()
    group = enumerate_group(spec)
    # the check compares enumerations only and never reads the table
    assert _check_determinism(spec, group, conjugacy_data(group), None) == ""
