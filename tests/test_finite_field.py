import random
from functools import lru_cache
from math import gcd

import pytest

from chartab.arith import MR_LIMIT, euler_phi, is_prime, multiplicative_order, primitive_root
from chartab.cyclo import Cyclotomic, cyclotomic_polynomial, root_power
from chartab.errors import CapExceededError, NonIntegralValueError, OrderMismatchError
from chartab.finite_field import (
    ExtensionFieldElement,
    field_elements,
    field_generator,
    irreducible_polynomial,
)
from chartab.reduction import (
    FIELD_SIZE_CAP,
    ReductionMap,
    build_reduction,
    candidate_roots,
    reduce_mod_M,
)
from chartab.tables import dixon_prime

from conftest import ALL_GROUPS


def _phi_e_value(e: int, el: ExtensionFieldElement) -> ExtensionFieldElement:
    """Evaluate the e-th cyclotomic polynomial at a field element (Horner)."""
    acc = ExtensionFieldElement.zero(el.p, el.poly)
    for c in reversed(cyclotomic_polynomial(e)):
        acc = acc * el + ExtensionFieldElement.from_int(el.p, el.poly, c)
    return acc


def _brute_order(el) -> int:
    """Multiplicative order by repeated multiplication."""
    cur, k = el, 1
    while cur != 1:
        cur = cur * el
        k += 1
    return k


@lru_cache(maxsize=None)
def _brute_field(p: int, f: int):
    """Nonzero elements of GF(p^f) with their orders, and the first generator."""
    poly = irreducible_polynomial(p, f)
    orders = {el: _brute_order(el) for el in field_elements(p, poly) if el}
    gen = next(el for el, order in orders.items() if order == p**f - 1)
    return poly, orders, gen


def _brute_degree(e: int, p: int) -> tuple[int, int]:
    """m, the p-free part of e, and f, the least f with m | p^f - 1."""
    m = e
    while m % p == 0:
        m //= p
    f = 1
    while (p**f - 1) % m:
        f += 1
    return m, f


def _brute_reduction(e: int, p: int):
    """The linear scans: eta is the first power of the first generator of exact
    order m that kills Phi_e; the roots are every such element, in field order."""
    m, f = _brute_degree(e, p)
    poly, orders, gen = _brute_field(p, f)
    eta = ExtensionFieldElement.one(p, poly)
    while orders[eta] != m or _phi_e_value(e, eta):
        eta = eta * gen
    roots = [el for el, order in orders.items() if order == m and not _phi_e_value(e, el)]
    return m, f, poly, eta, roots


# Exponents of the catalog (1-6, 12, 60) and of GL(3,2) (84), and 30, at
# every prime whose residue field is small enough for the linear scans.
ORACLE_PAIRS = [
    (e, p)
    for e in (1, 2, 3, 4, 5, 6, 12, 30, 60, 84)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 61)
    if p ** _brute_degree(e, p)[1] <= 625
]


def _sieve(n: int) -> list[bool]:
    flags = [False, False] + [True] * (n - 2)
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i::i] = [False] * len(flags[i * i::i])
    return flags


class TestIsPrime:
    def test_agrees_with_sieve(self):
        flags = _sieve(10**5)
        assert [n for n in range(10**5) if is_prime(n)] == [
            n for n, prime in enumerate(flags) if prime
        ]

    def test_strong_pseudoprime_to_small_bases(self):
        # a strong pseudoprime to every base 2..31: Miller-Rabin with only the
        # first eleven primes as bases calls it prime
        assert not is_prime(3825123056546413051)

    def test_large_numbers(self):
        assert is_prime(10**18 + 3)
        assert not is_prime(10**18 + 1)  # 101 * 9901 * 999999000001
        assert is_prime(MR_LIMIT - 168)  # the largest prime below the bound
        assert not any(is_prime(MR_LIMIT - d) for d in range(1, 168))

    def test_refused_at_the_bound(self):
        for n in (MR_LIMIT, 10**30):
            with pytest.raises(ValueError):
                is_prime(n)


class TestIrreduciblePolynomial:
    def test_degree_one_is_x(self):
        assert irreducible_polynomial(3, 1) == (0, 1)
        assert irreducible_polynomial(5, 1) == (0, 1)

    def test_gf16_polynomial(self):
        # x^4 + 1 = (x+1)^4 and x^4 + x are reducible over GF(2); first
        # irreducible in constant-upward order is 1 + x^3 + x^4
        assert irreducible_polynomial(2, 4) == (1, 0, 0, 1, 1)

    def test_gf25_polynomial_has_no_roots(self):
        poly = irreducible_polynomial(5, 2)
        for x in range(5):
            value = sum(c * x**k for k, c in enumerate(poly)) % 5
            assert value != 0

    def test_deterministic(self):
        assert irreducible_polynomial(3, 4) == irreducible_polynomial(3, 4)


class TestExtensionField:
    def test_field_size(self):
        poly = irreducible_polynomial(2, 4)
        assert len(list(field_elements(2, poly))) == 16

    def test_generator_order(self):
        for p, f in ((2, 4), (3, 2), (5, 2)):
            poly = irreducible_polynomial(p, f)
            assert field_generator(p, poly).multiplicative_order() == p**f - 1

    def test_frobenius_is_additive(self):
        poly = irreducible_polynomial(3, 2)
        rng = random.Random(2)
        for _ in range(20):
            a = ExtensionFieldElement(3, poly, [rng.randrange(3), rng.randrange(3)])
            b = ExtensionFieldElement(3, poly, [rng.randrange(3), rng.randrange(3)])
            assert (a + b) ** 3 == a**3 + b**3

    def test_from_int_and_equality(self):
        poly = irreducible_polynomial(5, 2)
        assert ExtensionFieldElement.from_int(5, poly, 7) == 2
        assert ExtensionFieldElement.one(5, poly) * 3 == 3


class TestOrders:
    @pytest.mark.parametrize("p, f", [(2, 4), (3, 2), (5, 2), (7, 2)])
    def test_field_element_orders_match_count(self, p, f):
        _, orders, _ = _brute_field(p, f)
        assert len(orders) == p**f - 1
        for el, order in orders.items():
            assert el.multiplicative_order() == order

    def test_unit_orders_match_count(self):
        for n in range(1, 50):
            for a in range(-n, 2 * n):
                if gcd(a, n) != 1:
                    with pytest.raises(ValueError):
                        multiplicative_order(a, n)
                    continue
                k = 1
                while (pow(a, k, n) - 1) % n:
                    k += 1
                assert multiplicative_order(a, n) == k

    def test_primitive_root_of_dixon_primes(self, group_factory):
        for name in ALL_GROUPS:
            group, _ = group_factory(name)
            q1 = dixon_prime(group.exponent, group.order)
            for q in (q1, dixon_prime(group.exponent, group.order, above=q1)):
                brute = next(
                    g for g in range(1, q)
                    if all(pow(g, t, q) != 1 for t in range(1, q - 1))
                )
                assert primitive_root(q) == brute


class TestBuildReduction:
    def test_order_six_p_three(self):
        r = build_reduction(6, 3)
        assert (r.m, r.f) == (2, 1)
        assert r.eta == 2  # eta = -1 in GF(3)

    def test_power_of_p_collapses(self):
        r = build_reduction(4, 2)
        assert (r.m, r.f) == (1, 1)
        assert r.eta == 1

    def test_order_six_p_five(self):
        r = build_reduction(6, 5)
        assert (r.m, r.f) == (6, 2)
        assert len(list(field_elements(r.p, r.poly))) == 25

    def test_eta_invariants(self):
        for e, p in (
            (6, 3), (6, 5), (12, 2), (12, 3), (30, 2), (60, 5), (1, 3),
            (60, 13), (5, 7), (84, 5),
        ):
            r = build_reduction(e, p)
            assert r.eta ** r.m == 1
            if r.m > 1:
                assert r.eta.multiplicative_order() == r.m
            assert not _phi_e_value(e, r.eta)

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            build_reduction(6, 4)

    @pytest.mark.parametrize("e, p", ORACLE_PAIRS)
    def test_matches_linear_scan(self, e, p):
        m, f, poly, eta, roots = _brute_reduction(e, p)
        r = build_reduction(e, p)
        assert (r.m, r.f, r.poly, r.eta) == (m, f, poly, eta)
        assert candidate_roots(e, p) == roots

    # recorded with the linear scans, which took 4-31 s per pair
    @pytest.mark.parametrize(
        "e, p, poly, eta, roots",
        [
            (5, 7, (1, 0, 0, 1, 1), (2, 0, 6, 1),
             [(0, 3, 2, 0), (1, 4, 4, 5), (2, 0, 6, 1), (3, 0, 2, 1)]),
            (30, 7, (1, 0, 0, 1, 1), (6, 0, 4, 3),
             [(0, 1, 3, 0), (0, 2, 6, 0), (1, 0, 3, 5), (2, 0, 6, 3),
              (3, 0, 2, 5), (3, 5, 5, 1), (5, 6, 6, 4), (6, 0, 4, 3)]),
            (60, 7, (1, 0, 0, 1, 1), (0, 2, 1, 0),
             [(0, 1, 3, 4), (0, 2, 1, 0), (0, 3, 2, 5), (0, 3, 5, 0),
              (0, 4, 2, 0), (0, 4, 5, 2), (0, 5, 6, 0), (0, 6, 4, 3),
              (1, 3, 6, 2), (2, 3, 5, 4), (3, 1, 4, 6), (3, 2, 4, 6),
              (4, 5, 3, 1), (4, 6, 3, 1), (5, 4, 2, 3), (6, 4, 1, 5)]),
            (84, 3, (1, 0, 0, 0, 1, 1, 1), (0, 1, 0, 2, 2, 0),
             [(0, 0, 1, 2, 0, 2), (0, 0, 1, 2, 2, 0), (0, 0, 2, 1, 0, 1),
              (0, 0, 2, 1, 1, 0), (0, 1, 0, 2, 2, 0), (0, 2, 0, 1, 1, 0),
              (1, 0, 0, 2, 2, 1), (1, 0, 1, 0, 1, 0), (1, 1, 0, 2, 1, 0),
              (2, 0, 0, 1, 1, 2), (2, 0, 2, 0, 2, 0), (2, 2, 0, 1, 2, 0)]),
        ],
    )
    def test_pinned_roots(self, e, p, poly, eta, roots):
        r = build_reduction(e, p)
        assert (r.poly, r.eta.coeffs) == (poly, eta)
        assert [el.coeffs for el in candidate_roots(e, p)] == roots

    def test_field_size_cap(self, monkeypatch):
        assert build_reduction(25, 2).p ** 20 == FIELD_SIZE_CAP  # GF(2^20) is admitted
        # the cap is checked before the defining polynomial is searched for
        monkeypatch.setattr("chartab.reduction.irreducible_polynomial", None)
        for e, p in ((60, 10007), (7, 101), (1, 1048583)):
            with pytest.raises(CapExceededError):
                build_reduction(e, p)

    def test_candidate_roots_all_valid(self):
        for e, p in ((6, 5), (12, 5), (4, 3)):
            r = build_reduction(e, p)
            cands = candidate_roots(e, p)
            assert r.eta in cands
            assert len(cands) == euler_phi(r.m)
            for eta in cands:
                assert eta.multiplicative_order() == r.m


class TestReduceModM:
    def test_unital(self):
        r = build_reduction(6, 5)
        assert reduce_mod_M(Cyclotomic.one(6), r) == 1

    def test_sixth_root_mod_three(self):
        r = build_reduction(6, 3)
        assert reduce_mod_M(root_power(6, 1), r) == 2

    def test_characteristic_kills_p(self):
        r = build_reduction(6, 3)
        assert reduce_mod_M(Cyclotomic.from_rational(6, 3), r) == 0

    def test_homomorphism_sampled(self):
        rng = random.Random(9)
        for e, p in ((6, 3), (12, 2), (30, 2), (60, 3), (60, 5)):
            r = build_reduction(e, p)
            d = euler_phi(e)
            for _ in range(8):
                a = Cyclotomic(e, [rng.randrange(-9, 10) for _ in range(d)])
                b = Cyclotomic(e, [rng.randrange(-9, 10) for _ in range(d)])
                assert reduce_mod_M(a + b, r) == reduce_mod_M(a, r) + reduce_mod_M(b, r)
                assert reduce_mod_M(a * b, r) == reduce_mod_M(a, r) * reduce_mod_M(b, r)

    def test_non_integral_rejected(self):
        r = build_reduction(6, 3)
        from fractions import Fraction

        with pytest.raises(NonIntegralValueError):
            reduce_mod_M(Cyclotomic.from_rational(6, Fraction(1, 2)), r)

    def test_order_mismatch_rejected(self):
        r = build_reduction(6, 3)
        with pytest.raises(OrderMismatchError):
            reduce_mod_M(root_power(12, 1), r)

    def test_choice_of_root_changes_values_not_structure(self):
        # different valid roots give different images of eps but both are
        # ring homomorphisms
        cands = candidate_roots(6, 5)
        assert len(cands) == 2
        for eta in cands:
            base = build_reduction(6, 5)
            r = ReductionMap(e=6, p=5, m=base.m, f=base.f, poly=base.poly, eta=eta)
            a = root_power(6, 1) + 1
            b = root_power(6, 4) * 3
            assert reduce_mod_M(a * b, r) == reduce_mod_M(a, r) * reduce_mod_M(b, r)
