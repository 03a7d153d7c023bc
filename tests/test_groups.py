import json
import os
from math import lcm

import pytest

from chartab import groups
from chartab.cli import main
from chartab.cyclo import Cyclotomic, as_rational_integer
from chartab.errors import CapExceededError, CycleSyntaxError, FormatError, UnknownGroupError
from chartab.groups import (
    GroupSpec,
    catalog_group,
    class_matrix,
    commutator_counts,
    conjugacy_data,
    cycle_string,
    enumerate_group,
    load_catalog,
    load_group_spec,
    parse_cycles,
)
from chartab.tables import compute_table

from conftest import ALL_GROUPS, SPEC_GROUPS, inverses, mul

BENCH_SPECS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "specs"
)
M11 = GroupSpec("M11", 11, ("(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)"))


class TestParseCycles:
    def test_identity(self):
        assert parse_cycles("()", 3) == (0, 1, 2)

    def test_transposition(self):
        assert parse_cycles("(1 2)", 3) == (1, 0, 2)

    def test_two_cycles(self):
        p = parse_cycles("(1 2 3)(4 5)", 5)
        assert p == (1, 2, 0, 4, 3)

    def test_repeated_point_rejected(self):
        with pytest.raises(CycleSyntaxError):
            parse_cycles("(1 2)(2 3)", 3)

    def test_point_out_of_range(self):
        with pytest.raises(CycleSyntaxError):
            parse_cycles("(1 4)", 3)
        with pytest.raises(CycleSyntaxError):
            parse_cycles("(0 1)", 3)

    def test_malformed(self):
        for text in ("(1 2", "1 2)", "(1 2) x", "(1 2)(", ""):
            with pytest.raises(CycleSyntaxError):
                parse_cycles(text, 3)
        with pytest.raises(CycleSyntaxError, match="non-integer point"):
            parse_cycles("(1 a)", 3)

    def test_fixed_point_cycle(self):
        assert parse_cycles("(2)", 3) == (0, 1, 2)

    def test_round_trip_through_cycle_string(self):
        p = parse_cycles("(1 3 5)(2 4)", 6)
        assert cycle_string(p) == "(1 3 5)(2 4)"
        assert parse_cycles(cycle_string(p), 6) == p

    def test_cycle_string_of_identity(self):
        assert cycle_string((0, 1, 2)) == "()"
        assert cycle_string(parse_cycles("(3 1 2)", 3)) == "(1 2 3)"


class TestPermutation:
    # group elements are image tuples; products are read through the
    # enumerated group, orders and inverses through its classes
    def test_composition_order(self):
        # (1 2) then (2 3) sends 1 -> 2 -> 3
        group = enumerate_group(GroupSpec("S3", 3, ("(1 2)", "(2 3)")))
        a = group.index[parse_cycles("(1 2)", 3)]
        b = group.index[parse_cycles("(2 3)", 3)]
        assert group.elements[mul(group, a, b)] == parse_cycles("(1 3 2)", 3)

    def test_inverse(self):
        group = enumerate_group(GroupSpec("C4", 4, ("(1 2 3 4)",)))
        cd = conjugacy_data(group)
        c = cd.class_of[group.index[parse_cycles("(1 2 3 4)", 4)]]
        inverse = cd.class_of[group.index[parse_cycles("(1 4 3 2)", 4)]]
        assert inverse != c
        assert cd.data.inverse_class[c] == inverse

    def test_order(self):
        group = enumerate_group(GroupSpec("C6", 5, ("(1 2 3)(4 5)",)))
        cd = conjugacy_data(group)
        assert cd.data.rep_orders[cd.class_of[group.index[parse_cycles("(1 2 3)(4 5)", 5)]]] == 6

    @pytest.mark.parametrize("name", ALL_GROUPS + SPEC_GROUPS + ("M11",))
    def test_orders_and_inverses_by_repeated_products(self, group_factory, spec_groups, name):
        # the walk over a representative's powers against group.mul: every
        # element's order, each class's inverse class, its whole power-map
        # row and the exponent
        if name == "M11":
            group = enumerate_group(M11, cap=8000)
            cd = conjugacy_data(group)
        else:
            group, cd = spec_groups[name] if name in SPEC_GROUPS else group_factory(name)
        data = cd.data
        inv = inverses(group)
        orders = []
        for i in range(group.order):
            power, order = i, 1
            while power != 0:
                power = mul(group, power, i)
                order += 1
            orders.append(order)
            assert data.rep_orders[cd.class_of[i]] == order
            assert mul(group, inv[i], i) == 0
        assert data.exponent == lcm(*orders)
        for c, rep in enumerate(cd.representatives):
            assert data.inverse_class[c] == cd.class_of[inv[rep]]
            power = 0
            for t in range(data.exponent):
                assert data.power_class(c, t) == cd.class_of[power], (c, t)
                power = mul(group, power, rep)


class TestEnumerate:
    def test_s3_closure(self):
        spec = GroupSpec("S3", 3, ("(1 2)", "(1 2 3)"))
        assert enumerate_group(spec).order == 6

    def test_identity_generator(self):
        spec = GroupSpec("triv", 2, ("()",))
        g = enumerate_group(spec)
        assert g.order == 1

    def test_q8_regular_representation(self):
        g = catalog_group("Q8")
        assert g.order == 8
        assert conjugacy_data(g).data.exponent == 4

    def test_identity_is_element_zero(self):
        for name in ("S3", "Q8", "A4"):
            g = catalog_group(name)
            assert g.elements[0] == tuple(range(len(g.elements[0])))

    def test_cap_enforced(self):
        spec = GroupSpec("S4", 4, ("(1 2)", "(1 2 3 4)"))
        with pytest.raises(CapExceededError):
            enumerate_group(spec, cap=10)

    @pytest.mark.parametrize("cap", (0, -5))
    def test_cap_below_one_rejected(self, cap):
        # the trivial group fits under any cap but is still refused
        spec = GroupSpec("triv", 2, ("()",))
        with pytest.raises(ValueError, match=f"cap must be at least 1, got {cap}"):
            enumerate_group(spec, cap=cap)

    def test_deterministic(self):
        spec = load_catalog()["S5"]
        g1 = enumerate_group(spec)
        g2 = enumerate_group(spec)
        assert g1.elements == g2.elements
        cd1, cd2 = conjugacy_data(g1), conjugacy_data(g2)
        assert cd1.class_of == cd2.class_of
        assert cd1.data.power_map == cd2.data.power_map

    def test_unknown_name(self):
        with pytest.raises(UnknownGroupError):
            catalog_group("M11")


class TestConjugacyData:
    def test_s3_sizes(self, group_factory):
        _, cd = group_factory("S3")
        assert sorted(cd.data.sizes) == [1, 2, 3]
        assert sorted(cd.data.centralizer_orders) == [2, 3, 6]

    def test_abelian_classes_are_singletons(self, group_factory):
        for name in ("C2", "C3", "C4", "C5", "C6"):
            group, cd = group_factory(name)
            assert cd.data.sizes == (1,) * group.order

    def test_q8_sizes(self, group_factory):
        _, cd = group_factory("Q8")
        assert sorted(cd.data.sizes) == [1, 1, 2, 2, 2]

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_centralizer_orbit_identity(self, group_factory, name):
        group, cd = group_factory(name)
        assert sum(cd.data.sizes) == group.order
        for size, cent in zip(cd.data.sizes, cd.data.centralizer_orders):
            assert size * cent == group.order

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_power_map(self, group_factory, name):
        group, cd = group_factory(name)
        for i in range(cd.k):
            assert cd.data.power_class(i, 1) == i
            assert cd.data.power_class(i, 0) == 0
            assert cd.data.power_class(i, cd.data.exponent) == 0
            assert cd.data.power_class(i, cd.data.rep_orders[i]) == 0

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_class_order_canonical(self, group_factory, name):
        _, cd = group_factory(name)
        assert cd.class_of[0] == 0 and cd.data.sizes[0] == 1
        keys = [(cd.data.sizes[i], cd.members[i][0]) for i in range(cd.k)]
        assert keys == sorted(keys)
        for i in range(cd.k):
            assert cd.representatives[i] == min(cd.members[i])

    @pytest.mark.parametrize("name", ("S3", "D8", "Q8", "A4", "S4", "A5"))
    def test_classes_are_conjugation_orbits(self, group_factory, name):
        group, cd = group_factory(name)
        inv = inverses(group)
        for x in range(group.order):
            orbit = {mul(group, mul(group, inv[g], x), g) for g in range(group.order)}
            assert set(cd.members[cd.class_of[x]]) == orbit

    def test_real_classes(self, group_factory):
        _, cd_s3 = group_factory("S3")
        assert cd_s3.data.real_flags == (True, True, True)
        _, cd_c3 = group_factory("C3")
        assert cd_c3.data.real_flags == (True, False, False)
        _, cd_triv = group_factory("trivial")
        assert cd_triv.data.real_flags == (True,)

    def test_inverse_class_is_involution(self, group_factory):
        for name in ALL_GROUPS:
            _, cd = group_factory(name)
            for i in range(cd.k):
                assert cd.data.inverse_class[cd.data.inverse_class[i]] == i


class TestClassMultCoefficients:
    def test_identity_class_row(self, group_factory):
        _, cd = group_factory("S3")
        for j in range(cd.k):
            coeffs = class_matrix(cd, 0)[j]
            assert coeffs == tuple(1 if l == j else 0 for l in range(cd.k))

    @pytest.mark.parametrize("name", ("S3", "Q8", "A4", "S4"))
    def test_counting_identity(self, group_factory, name):
        _, cd = group_factory(name)
        for i in range(cd.k):
            for j, coeffs in enumerate(class_matrix(cd, i)):
                sizes = cd.data.sizes
                assert sum(a * s for a, s in zip(coeffs, sizes)) == sizes[i] * sizes[j]

    @pytest.mark.parametrize("name", ALL_GROUPS + SPEC_GROUPS)
    def test_inverse_class_symmetry(self, group_factory, spec_groups, name):
        # |K_l| a_ij^l = |K_j| a_(i-bar, l)^j: both count the pairs (x, z) in
        # K_i x K_l with x^-1 z in K_j, so row j of M_i is column j of M_i-bar
        _, cd = spec_groups[name] if name in SPEC_GROUPS else group_factory(name)
        sizes, inverse = cd.data.sizes, cd.data.inverse_class
        for i in range(cd.k):
            a, a_bar = class_matrix(cd, i), class_matrix(cd, inverse[i])
            for j in range(cd.k):
                for l in range(cd.k):
                    assert sizes[l] * a[j][l] == sizes[j] * a_bar[l][j], (i, j, l)

    def test_each_matrix_built_once_and_kept(self, monkeypatch):
        cd = conjugacy_data(catalog_group("A4"))
        built = []
        build = groups._build_class_matrix

        def counting(cd, i):
            built.append(i)
            return build(cd, i)

        monkeypatch.setattr(groups, "_build_class_matrix", counting)
        matrices = [class_matrix(cd, i) for i in range(cd.k)]
        assert all(class_matrix(cd, i) is m for i, m in enumerate(matrices))
        assert all(type(row) is tuple for m in matrices for row in m)
        assert built == list(range(cd.k))

    def test_s3_transpositions_squared(self, group_factory):
        _, cd = group_factory("S3")
        transp = cd.data.sizes.index(3)
        coeffs = class_matrix(cd, transp)[transp]
        assert coeffs[0] == 3  # each of the 3 transpositions is self-inverse


@pytest.fixture(scope="module")
def spec_groups():
    out = {}
    for name in SPEC_GROUPS:
        group = enumerate_group(load_group_spec(os.path.join(BENCH_SPECS, f"{name}.json")))
        out[name] = (group, conjugacy_data(group))
    return out


class TestCommutatorCounts:
    def test_s3_identity(self, group_factory):
        _, cd = group_factory("S3")
        assert commutator_counts(cd, 1)[0][0] == 18

    def test_s3_transposition(self, group_factory):
        _, cd = group_factory("S3")
        assert commutator_counts(cd, 1)[0][cd.data.sizes.index(3)] == 0

    def test_s3_three_cycle(self, group_factory):
        _, cd = group_factory("S3")
        assert commutator_counts(cd, 1)[0][cd.data.sizes.index(2)] == 9

    def test_s3_two_commutators(self, group_factory):
        _, cd = group_factory("S3")
        assert commutator_counts(cd, 2)[1] == (486, 405, 0)

    def test_abelian_two_commutators(self, group_factory):
        _, cd = group_factory("C2")
        assert commutator_counts(cd, 2)[1] == (16, 0)

    def test_bad_n(self, group_factory):
        _, cd = group_factory("C2")
        with pytest.raises(ValueError):
            commutator_counts(cd, 0)

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_matches_per_target_loop(self, group_factory, name):
        group, cd = group_factory(name)
        counts = commutator_counts(cd, 2)
        for n, cap in ((1, 24), (2, 12)):
            assert sum(s * x for s, x in zip(cd.data.sizes, counts[n - 1])) == (
                group.order ** (2 * n)
            )
            if group.order > cap:
                continue
            brute = brute_commutator_counts(group, n)
            assert sum(brute) == group.order ** (2 * n)
            assert list(brute) == [
                _per_target_count(group, t, n) for t in range(group.order)
            ]
            # a class function: every member of a class has its count
            assert list(brute) == [counts[n - 1][c] for c in cd.class_of]

    @pytest.mark.parametrize("name", ALL_GROUPS + SPEC_GROUPS)
    def test_matches_character_formula(self, group_factory, spec_groups, name):
        group, cd = spec_groups[name] if name in SPEC_GROUPS else group_factory(name)
        table = compute_table(cd)
        counts = commutator_counts(cd, 3)
        for n in (1, 2, 3):
            for c in range(cd.k):
                # |G|^(2n-1) sum_chi chi(g) / chi(1)^(2n-1), with |G| / chi(1) an int
                total = Cyclotomic(cd.data.exponent, [])
                for row in table.rows:
                    total = total + row.values[c] * (group.order // row.degree) ** (2 * n - 1)
                assert counts[n - 1][c] == as_rational_integer(total), (name, n, c)


def brute_commutator_counts(group, n):
    """Number of 2n-tuples whose commutator product is each element, n = 1 or 2.

    The histogram N_1(x) = #{(a, b): [a, b] = x} is counted over all |G|^2
    pairs once; for n = 2 the quadruples are regrouped by their first
    commutator x, N_2(t) = sum_x N_1(x) N_1(x^-1 t).
    """
    size = group.order
    prod = [[mul(group, i, j) for j in range(size)] for i in range(size)]
    inv = inverses(group)
    once = [0] * size
    for a in range(size):
        row_a, row_ai = prod[a], prod[inv[a]]
        for b in range(size):
            once[prod[row_ai[inv[b]]][row_a[b]]] += 1
    if n == 1:
        return tuple(once)
    return tuple(
        sum(once[x] * once[prod[inv[x]][t]] for x in range(size) if once[x])
        for t in range(size)
    )


def _per_target_count(group, t_idx, n):
    """The slowest oracle: one target at a time, and for n = 2 every
    quadruple of elements."""
    size = group.order
    prod = [[mul(group, i, j) for j in range(size)] for i in range(size)]
    inv = inverses(group)
    comm = [
        [prod[prod[inv[a]][inv[b]]][prod[a][b]] for b in range(size)]
        for a in range(size)
    ]
    if n == 1:
        return sum(row.count(t_idx) for row in comm)
    count = 0
    for a1 in range(size):
        for c1 in comm[a1]:
            for a2 in range(size):
                for c2 in comm[a2]:
                    if prod[c1][c2] == t_idx:
                        count += 1
    return count


class TestCatalog:
    def test_contents(self):
        specs = load_catalog()
        assert tuple(specs) == ALL_GROUPS

    def test_orders(self, group_factory):
        expected = {
            "trivial": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6,
            "S3": 6, "D8": 8, "Q8": 8, "D12": 12, "A4": 12, "S4": 24,
            "A5": 60, "S5": 120,
        }
        for name, order in expected.items():
            group, _ = group_factory(name)
            assert group.order == order

    def test_spec_validation(self, capsys, tmp_path):
        with pytest.raises(FormatError):
            GroupSpec.from_dict({"name": "x", "degree": 3})
        with pytest.raises(FormatError):
            GroupSpec.from_dict({"name": "x", "degree": 0, "generators": []})
        # one string is not a list of cycle strings, though it iterates
        spec = {"name": "x", "degree": 3, "generators": "(1 2)"}
        with pytest.raises(FormatError, match="generators must be a list"):
            GroupSpec.from_dict(spec)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["classes", "--spec-file", str(path)]) == 4
        assert "generators must be a list" in capsys.readouterr().err

    def test_degree_bounded(self):
        spec = {"name": "C2", "degree": groups.MAX_DEGREE, "generators": ["(1 2)"]}
        assert GroupSpec.from_dict(spec).degree == groups.MAX_DEGREE
        # refused before any cycle is parsed, so nothing of that size is built
        with pytest.raises(FormatError, match="above the limit"):
            GroupSpec.from_dict({**spec, "degree": groups.MAX_DEGREE + 1})

    def test_non_utf8_spec_file_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b'{"name": "\xff", "degree": 3, "generators": ["(1 2)"]}')
        with pytest.raises(FormatError, match="not valid JSON"):
            load_group_spec(path)
