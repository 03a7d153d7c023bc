import pytest

from chartab.groups import conjugacy_data, enumerate_group, load_catalog
from chartab.tables import compute_table

ALL_GROUPS = (
    "trivial", "C2", "C3", "C4", "C5", "C6", "S3",
    "D8", "Q8", "D12", "A4", "S4", "A5", "S5",
)


# fields of a saved S3 table replaced by values of the wrong type, each of
# which a loader must refuse before it takes a len() or a hash()
MISTYPED_FIELDS = {
    "sizes-int": ("class_sizes", 5),
    "sizes-null": ("class_sizes", None),
    "rows-ints": ("rows", [1, 2, 3]),
    "rows-nulls": ("rows", [None, None, None]),
    "group-list": ("group", ["S3"]),
}


@pytest.fixture(scope="session")
def group_factory():
    specs = load_catalog()
    cache = {}

    def get(name):
        if name not in cache:
            group = enumerate_group(specs[name])
            cache[name] = (group, conjugacy_data(group))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def table_factory(group_factory):
    cache = {}

    def get(name):
        if name not in cache:
            group, cd = group_factory(name)
            cache[name] = compute_table(group, cd)
        return cache[name]

    return get


# -- a field oracle on tuples, independent of chartab.finite_field ----------


def field_one(poly):
    """1 in GF(p)[x] / (poly), as a tuple of len(poly) - 1 ints."""
    return (1,) + (0,) * (len(poly) - 2)


def field_mul(a, b, p, poly):
    """a * b in GF(p)[x] / (poly) by shift and add: the sum of b_j (x^j a)."""
    f = len(poly) - 1
    out = [0] * f
    shifted = [c % p for c in a]
    for bj in b:
        out = [(o + bj * s) % p for o, s in zip(out, shifted)]
        top = shifted[-1]
        shifted = [0] + shifted[:-1]  # times x, then x^f = -(poly below x^f)
        shifted = [(s - top * c) % p for s, c in zip(shifted, poly)]
    return tuple(out)


def horner(coeffs, el, p, poly):
    """sum_t coeffs[t] el^t by Horner's rule, one field multiply and add per term."""
    acc = (0,) * (len(poly) - 1)
    for c in reversed(coeffs):
        acc = field_mul(acc, el, p, poly)
        acc = ((acc[0] + c) % p,) + acc[1:]
    return acc
