import random
from collections import Counter
from functools import lru_cache
from itertools import product
from math import gcd

import pytest

from chartab.arith import (
    MR_LIMIT,
    divisors,
    euler_phi,
    is_prime,
    multiplicative_order,
    prime_factors,
    primitive_root,
)
from chartab.cyclo import Cyclotomic, cyclotomic_polynomial
from chartab.errors import NonIntegralValueError, OrderMismatchError
from chartab.reduction import build_reduction, reduce_mod_M
from chartab.tables import dixon_prime

from conftest import (
    ALL_GROUPS,
    brute_degree,
    field_mul,
    field_one,
    horner,
    irreducible_polynomial,
    residue_roots,
    root_power,
)


def _phi_e_value(e: int, el, p: int, poly):
    """Evaluate the e-th cyclotomic polynomial at a field element."""
    return horner(cyclotomic_polynomial(e), el, p, poly)


def _brute_order(el, p: int, poly) -> int:
    """Multiplicative order by repeated multiplication."""
    one = field_one(poly)
    cur, k = el, 1
    while cur != one:
        cur = field_mul(cur, el, p, poly)
        k += 1
    return k


def _power(el, n: int, p: int, poly):
    """el^n by repeated multiplication."""
    out = field_one(poly)
    for _ in range(n):
        out = field_mul(out, el, p, poly)
    return out


def _add(a, b, p: int):
    return tuple((x + y) % p for x, y in zip(a, b))


@lru_cache(maxsize=None)
def _brute_field(p: int, f: int):
    """Nonzero elements of GF(p^f) with their orders, and the first generator."""
    poly = irreducible_polynomial(p, f)
    orders = {el: _brute_order(el, p, poly) for el in product(range(p), repeat=f) if any(el)}
    gen = next(el for el, order in orders.items() if order == p**f - 1)
    return poly, orders, gen


def _brute_reduction(e: int, p: int):
    """The linear scans: m and f by trial, and the roots of Phi_e mod p as
    every element of exact order m that kills Phi_e, in field order."""
    m, f = brute_degree(e, p)
    poly, orders, _ = _brute_field(p, f)
    roots = [
        el for el, order in orders.items()
        if order == m and not any(_phi_e_value(e, el, p, poly))
    ]
    return m, f, poly, roots


# Exponents of the catalog (1-6, 12, 60) and of GL(3,2) (84), and 30, at
# every prime whose residue field is small enough for the linear scans.
ORACLE_PAIRS = [
    (e, p)
    for e in (1, 2, 3, 4, 5, 6, 12, 30, 60, 84)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 61)
    if p ** brute_degree(e, p)[1] <= 625
]


def _poly(rmap):
    """Phi_m mod p, constant term first: the modulus of the map's ring."""
    return tuple(c % rmap.p for c in cyclotomic_polynomial(rmap.m))


def _x(rmap):
    """x in GF(p)[x] / (Phi_m mod p), the image of eps."""
    return field_mul(field_one(_poly(rmap)), (0, 1), rmap.p, _poly(rmap))


def _minimal_polynomial(eta, p: int, poly) -> list[int]:
    """The monic minimal polynomial of eta over GF(p), constant term first:
    the product of X - c over the Frobenius orbit c = eta, eta^p, ..."""
    orbit = [eta]
    while (c := _power(orbit[-1], p, p, poly)) != eta:
        orbit.append(c)
    zero = (0,) * (len(poly) - 1)
    out = [field_one(poly)]
    for c in orbit:
        neg = tuple(-a % p for a in c)
        out = [
            _add(field_mul(low, neg, p, poly), high, p)
            for low, high in zip(out + [zero], [zero] + out)
        ]
    assert not any(any(c[1:]) for c in out)  # the coefficients lie in GF(p)
    return [c[0] for c in out]


def _check_against_roots(rmap, roots, rng):
    """reduce_mod_M against reduction mod each maximal ideal over p, one root
    eta of Phi_e in GF(p^f) each: evaluating an image at eta gives z(eta),
    and an image is zero iff z(eta) is zero at every root."""
    e, p, m = rmap.e, rmap.p, rmap.m
    field = irreducible_polynomial(p, rmap.f)
    d = euler_phi(e)
    values = [Cyclotomic(e, [rng.randint(-30, 30) for _ in range(d)]) for _ in range(4)]
    values += [z * p for z in values[:2]]
    # in the radical: Phi_m(eps) lies in every ideal over p
    values.append(Cyclotomic(e, cyclotomic_polynomial(m)) * values[0])
    # in the ideal of the first root only, unless it is the only ideal
    values.append(Cyclotomic(e, _minimal_polynomial(roots[0], p, field)))
    values += [values[-1] * z for z in values[:2]]
    partial = 0
    for z in values:
        image = reduce_mod_M(z, rmap)
        assert len(image) == euler_phi(m) and all(0 <= c < p for c in image)
        at_roots = [horner(z.coeffs, eta, p, field) for eta in roots]
        assert [horner(image, eta, p, field) for eta in roots] == at_roots
        assert (not any(image)) == all(not any(v) for v in at_roots)
        partial += any(not any(v) for v in at_roots) and any(map(any, at_roots))
    # a value in the first root's ideal alone vanishes at some roots only
    # exactly when there are several ideals over p
    assert bool(partial) == (euler_phi(m) > rmap.f)


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
    # the test oracle's defining polynomials (conftest.irreducible_polynomial)
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
        # the oracle's GF(2^4): every one of the 15 nonzero elements is a unit
        _, orders, _ = _brute_field(2, 4)
        assert len(orders) == 15 and max(orders.values()) == 15

    def test_generator_order(self):
        for p, f in ((2, 4), (3, 2), (5, 2)):
            poly, orders, gen = _brute_field(p, f)
            assert {_power(gen, n, p, poly) for n in range(p**f - 1)} == set(orders)

    def test_frobenius_is_additive(self):
        poly = irreducible_polynomial(3, 2)
        rng = random.Random(2)
        for _ in range(20):
            a = (rng.randrange(3), rng.randrange(3))
            b = (rng.randrange(3), rng.randrange(3))
            assert _power(_add(a, b, 3), 3, 3, poly) == _add(
                _power(a, 3, 3, poly), _power(b, 3, 3, poly), 3
            )


class TestOrders:
    @pytest.mark.parametrize("p, f", [(2, 4), (3, 2), (5, 2), (7, 2)])
    def test_field_element_orders_match_count(self, p, f):
        # the oracle's unit group is cyclic: phi(d) elements of each order d
        _, orders, _ = _brute_field(p, f)
        assert Counter(orders.values()) == {d: euler_phi(d) for d in divisors(p**f - 1)}

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
            group, cd = group_factory(name)
            q1 = dixon_prime(cd.data.exponent, group.order)
            for q in (q1, dixon_prime(cd.data.exponent, group.order, above=q1)):
                brute = next(
                    g for g in range(1, q)
                    if all(pow(g, t, q) != 1 for t in range(1, q - 1))
                )
                assert primitive_root(q) == brute


class TestBuildReduction:
    def test_order_six_p_three(self):
        r = build_reduction(6, 3)
        assert (r.m, r.f, _poly(r)) == (2, 1, (1, 1))  # Phi_2 = x + 1
        assert reduce_mod_M(root_power(6, 1), r) == (2,)  # eps = -1 mod 3

    def test_power_of_p_collapses(self):
        r = build_reduction(4, 2)
        assert (r.m, r.f, _poly(r)) == (1, 1, (1, 1))  # Phi_1 = x - 1 = x + 1 mod 2
        assert reduce_mod_M(root_power(4, 1), r) == (1,)

    def test_order_six_p_five(self):
        r = build_reduction(6, 5)
        assert (r.m, r.f, _poly(r)) == (6, 2, (1, 4, 1))  # Phi_6 = x^2 - x + 1

    def test_eta_invariants(self):
        # x, the image of eps, plays eta's part in every residue field at
        # once: it has order m and kills Phi_e and Phi_m
        for e, p in (
            (6, 3), (6, 5), (12, 2), (12, 3), (30, 2), (60, 5), (1, 3),
            (60, 13), (5, 7), (84, 5),
        ):
            r = build_reduction(e, p)
            x, poly = _x(r), _poly(r)
            assert x == reduce_mod_M(root_power(e, 1), r)
            assert _power(x, r.m, p, poly) == field_one(poly)
            for q in prime_factors(r.m):
                assert _power(x, r.m // q, p, poly) != field_one(poly)
            assert not any(_phi_e_value(e, x, p, poly))
            assert not any(horner(cyclotomic_polynomial(r.m), x, p, poly))

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            build_reduction(6, 4)

    @pytest.mark.parametrize("e, p", ORACLE_PAIRS)
    def test_matches_linear_scan(self, e, p):
        m, f, poly, roots = _brute_reduction(e, p)
        r = build_reduction(e, p)
        assert (r.m, r.f) == (m, f)
        assert residue_roots(e, p) == (poly, roots)
        assert len(roots) == euler_phi(m) == len(_poly(r)) - 1
        _check_against_roots(r, roots, random.Random(e * p))

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
        # the recorded roots, in fields too large for the linear scans, check
        # the oracle and then the map; eta was the root the map once chose
        assert residue_roots(e, p) == (poly, roots) and eta in roots
        r = build_reduction(e, p)
        _check_against_roots(r, roots, random.Random(e * p))

    def test_former_refusals_build(self):
        # no residue field is built, so no p^f is too large: these were over
        # the old 2^20 cap (GF(10007^4), GF(101^6), GF(1048583), GF(2^20) not)
        for e, p, m, f in (
            (60, 10007, 60, 4), (7, 101, 7, 6), (1, 1048583, 1, 1), (25, 2, 25, 20),
            (6, 10**18 + 3, 6, 1),
        ):
            r = build_reduction(e, p)
            assert (r.m, r.f, len(_poly(r)) - 1) == (m, f, euler_phi(m))
            # eps^m is a root of unity of p-power order, which is 1 mod p
            one = reduce_mod_M(Cyclotomic(e, [1]), r)
            assert reduce_mod_M(root_power(e, m), r) == one
            for q in prime_factors(m):
                assert reduce_mod_M(root_power(e, m // q), r) != one


class TestReduceModM:
    def test_unital(self):
        r = build_reduction(6, 5)
        assert reduce_mod_M(Cyclotomic(6, [1]), r) == (1, 0)

    def test_sixth_root_mod_three(self):
        r = build_reduction(6, 3)
        assert reduce_mod_M(root_power(6, 1), r) == (2,)

    def test_characteristic_kills_p(self):
        r = build_reduction(6, 3)
        assert reduce_mod_M(Cyclotomic(6, [3]), r) == (0,)

    def test_homomorphism_sampled(self):
        rng = random.Random(9)
        for e, p in ((6, 3), (12, 2), (30, 2), (60, 3), (60, 5)):
            r = build_reduction(e, p)
            d = euler_phi(e)
            for _ in range(8):
                a = Cyclotomic(e, [rng.randrange(-9, 10) for _ in range(d)])
                b = Cyclotomic(e, [rng.randrange(-9, 10) for _ in range(d)])
                ra, rb = reduce_mod_M(a, r), reduce_mod_M(b, r)
                assert reduce_mod_M(a + b, r) == _add(ra, rb, p)
                assert reduce_mod_M(a * b, r) == field_mul(ra, rb, p, _poly(r))

    @pytest.mark.parametrize("name", ALL_GROUPS)
    def test_matches_horner(self, group_factory, name):
        # the remainder, and its rational fast path, against evaluating
        # sum_t c_t x^t in GF(p)[x] / (Phi_m mod p), at every p dividing |G|
        group, cd = group_factory(name)
        e = cd.data.exponent
        rng = random.Random(e)
        for p in prime_factors(group.order):
            r = build_reduction(e, p)
            rationals = (0, 1, -1, p, -p, 3 * p, -2 * p - 1, rng.randint(-500, -2))
            values = [Cyclotomic(e, [c]) for c in rationals]
            values += [
                Cyclotomic(e, [rng.randint(-50, 50) for _ in range(euler_phi(e))])
                for _ in range(10)
            ]
            for z in values:
                image = reduce_mod_M(z, r)
                assert image == horner(z.coeffs, _x(r), p, _poly(r))
                assert len(image) == euler_phi(r.m) and all(0 <= c < p for c in image)

    def test_matches_horner_past_the_catalog(self):
        # exponents past the catalog's (all <= 60): GL(3,2)'s 84 and S7's 420,
        # at every p dividing e and at 11, which divides neither; where
        # phi(e) > m the remainder folds modulo x^m - 1 before dividing by Phi_m
        folded = 0
        for e in (84, 420):
            d = euler_phi(e)
            rng = random.Random(e)
            for p in (*prime_factors(e), 11):
                r = build_reduction(e, p)
                folded += d > r.m
                poly, x = _poly(r), _x(r)
                values = [Cyclotomic(e, [rng.randint(-2 * p, -1)])]
                values += [
                    Cyclotomic(e, [rng.randint(-99, 99) for _ in range(d)])
                    for _ in range(1 if r.m == e else 2)  # Horner at phi(m) = 96 is slow
                ]
                for z in values:
                    assert reduce_mod_M(z, r) == horner(z.coeffs, x, p, poly)
        assert folded == 4  # 84 at p = 2 and 7, 420 at p = 5 and 7

    def test_non_integral_rejected(self):
        r = build_reduction(6, 3)
        from fractions import Fraction

        with pytest.raises(NonIntegralValueError):
            reduce_mod_M(Cyclotomic(6, [Fraction(1, 2)]), r)

    def test_order_mismatch_rejected(self):
        r = build_reduction(6, 3)
        with pytest.raises(OrderMismatchError):
            reduce_mod_M(root_power(12, 1), r)
