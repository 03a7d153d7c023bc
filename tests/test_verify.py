from chartab.tables import CharacterTable
from chartab.verify import _check_identities


def test_identities_reports_negative_multiplicity(group_factory, table_factory):
    # S3 with its sign row negated: still orthonormal and integral, but
    # gamma(1, -sign) = -1
    group, cd = group_factory("S3")
    table = table_factory("S3")
    rows = list(table.rows)
    rows[1] = -1 * rows[1]
    corrupt = CharacterTable(table.group_name, table.data, tuple(rows))
    assert _check_identities(group, cd, corrupt) == "negative multiplicity for row 1 at n=1"

