import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from chartab.arith import euler_phi
from chartab.cyclo import Cyclotomic, as_rational_integer, cyclotomic_polynomial
from chartab.errors import NonIntegralValueError, OrderMismatchError

from conftest import cyclotomic_by_division, root_power


def eval_poly_at_root(poly, e):
    total = Cyclotomic(e, [])
    for k, c in enumerate(poly):
        if c:
            total = total + c * root_power(e, k)
    return total


class TestCyclotomicPolynomial:
    def test_order_one(self):
        assert cyclotomic_polynomial(1) == (-1, 1)  # x - 1

    def test_order_four(self):
        assert cyclotomic_polynomial(4) == (1, 0, 1)  # x^2 + 1

    def test_order_six(self):
        # (x^6 - 1)(x - 1) / ((x^3 - 1)(x^2 - 1))
        assert cyclotomic_polynomial(6) == (1, -1, 1)  # x^2 - x + 1

    def test_degree_is_totient(self):
        for e in range(1, 61):
            assert len(cyclotomic_polynomial(e)) - 1 == euler_phi(e)

    def test_monic(self):
        for e in (1, 2, 8, 12, 30, 60):
            assert cyclotomic_polynomial(e)[-1] == 1

    def test_root_kills_polynomial_up_to_60(self):
        for e in range(1, 61):
            assert not eval_poly_at_root(cyclotomic_polynomial(e), e)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)

    def test_closed_form_matches_exact_division_up_to_400(self):
        for e in range(1, 401):
            assert cyclotomic_polynomial(e) == cyclotomic_by_division(e), e

    @pytest.mark.parametrize("e", [840, 1260, 1320])
    def test_closed_form_matches_exact_division(self, e):
        assert cyclotomic_polynomial(e) == cyclotomic_by_division(e)


class TestRootPower:
    def test_full_turn_is_one(self):
        assert root_power(6, 6) == 1

    def test_i_squared(self):
        assert root_power(4, 2) == -1

    def test_sixth_root_squared(self):
        assert root_power(6, 2) == root_power(6, 1) - 1

    def test_zero_power(self):
        for e in (1, 2, 5, 12):
            assert root_power(e, 0) == 1

    def test_negative_index_wraps(self):
        assert root_power(6, -1) == root_power(6, 5)


class TestArithmetic:
    def test_product_reduces(self):
        e6 = root_power(6, 1)
        assert e6 * e6 == e6 - 1

    def test_additive_identity(self):
        z = Cyclotomic(6, [2, -3])
        assert z + Cyclotomic(6, []) == z
        with pytest.raises(NonIntegralValueError):
            Cyclotomic(6, [Fraction(1, 2), Fraction(-3)])

    def test_inverse_pair(self):
        assert root_power(6, 1) * root_power(6, 5) == 1

    def test_equal_values_hash_equal(self):
        three = Cyclotomic(6, [3])
        assert three == 3 and hash(three) == hash(3)
        assert len({three, 3}) == 1
        assert {3: "a"}.get(three) == "a"
        z = root_power(6, 1) + 2
        assert z == Cyclotomic(6, z.coeffs) and hash(z) == hash(Cyclotomic(6, z.coeffs))

    def test_order_mismatch_rejected(self):
        with pytest.raises(OrderMismatchError):
            root_power(6, 1) + root_power(4, 1)
        with pytest.raises(OrderMismatchError):
            root_power(6, 1) * root_power(4, 1)

    def test_scalar_operations(self):
        z = root_power(8, 1)
        assert 2 * z == z + z
        assert z - 1 == z + (-1)
        with pytest.raises(TypeError):
            Fraction(1, 2) * (z + z)

    @pytest.mark.parametrize("other", [0, 5, -7, 10**30, True, Fraction(3, 1)])
    def test_integer_sum_and_difference_match_the_constructor(self, other):
        # an int gives what the checking constructor gives; a bool or a
        # Fraction, even an integral one, is not an operand
        for e in (1, 4, 6, 15):
            z = Cyclotomic(e, range(2, euler_phi(e) + 2))
            if type(other) is not int:
                for op in (operator.add, operator.sub):
                    with pytest.raises(TypeError):
                        op(z, other)
                    with pytest.raises(TypeError):
                        op(other, z)
                continue
            head, *tail = z.coeffs
            expected = (
                (z + other, [head + other, *tail]),
                (other + z, [head + other, *tail]),
                (z - other, [head - other, *tail]),
                (other - z, [other - head, *(-c for c in tail)]),
            )
            for got, coeffs in expected:
                assert got.coeffs == Cyclotomic(e, coeffs).coeffs
                assert all(type(c) is int for c in got.coeffs)

    def test_non_integral_sum_and_difference_rejected(self):
        z = root_power(6, 1)
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(z, Fraction(1, 2))
            with pytest.raises(TypeError):
                op(Fraction(1, 2), z)

    def test_ring_axioms_sampled(self):
        rng = random.Random(7)
        for _ in range(40):
            e = rng.randrange(1, 16)
            d = euler_phi(e)
            a, b, c = (
                Cyclotomic(e, [rng.randrange(-5, 6) for _ in range(d)])
                for _ in range(3)
            )
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
        for e in (1, 6, 15):
            d = euler_phi(e)
            with pytest.raises(NonIntegralValueError):
                Cyclotomic(e, [0] * (d - 1) + [Fraction(2 * rng.randrange(-5, 6) + 1, 2)])


class TestConjugate:
    def test_imaginary_unit(self):
        i = root_power(4, 1)
        assert i.galois(-1) == -i

    def test_rationals_fixed(self):
        for r in (0, 1, -7, 3):
            z = Cyclotomic(12, [r])
            assert z.galois(-1) == z
        with pytest.raises(NonIntegralValueError):
            Cyclotomic(12, [Fraction(3, 5)])

    def test_sixth_root(self):
        e6 = root_power(6, 1)
        assert e6.galois(-1) == 1 - e6

    def test_involution(self):
        rng = random.Random(3)
        for e in (5, 8, 12, 30):
            d = euler_phi(e)
            z = Cyclotomic(e, [rng.randrange(-4, 5) for _ in range(d)])
            assert z.galois(-1).galois(-1) == z

    def test_multiplicative(self):
        rng = random.Random(5)
        for e in (4, 7, 12):
            d = euler_phi(e)
            a = Cyclotomic(e, [rng.randrange(-4, 5) for _ in range(d)])
            b = Cyclotomic(e, [rng.randrange(-4, 5) for _ in range(d)])
            assert (a * b).galois(-1) == a.galois(-1) * b.galois(-1)


class TestGalois:
    def test_conjugate_is_minus_one(self):
        rng = random.Random(11)
        for e in (3, 5, 8, 12, 60):
            z = Cyclotomic(e, [rng.randrange(-4, 5) for _ in range(euler_phi(e))])
            assert z.galois(-1) == z.galois(e - 1)
            assert z.galois(1) == z

    def test_root_powers(self):
        for e in (5, 12, 60):
            for s in range(1, e):
                if gcd(s, e) == 1:
                    for j in range(e):
                        assert root_power(e, j).galois(s) == root_power(e, j * s)

    def test_ring_automorphism(self):
        rng = random.Random(13)
        for e in (5, 7, 12, 30):
            d = euler_phi(e)
            a = Cyclotomic(e, [rng.randrange(-4, 5) for _ in range(d)])
            b = Cyclotomic(e, [rng.randrange(-4, 5) for _ in range(d)])
            units = [s for s in range(1, e) if gcd(s, e) == 1]
            for s in units:
                assert (a * b).galois(s) == a.galois(s) * b.galois(s)
                assert (a + b).galois(s) == a.galois(s) + b.galois(s)
                for t in units:
                    assert a.galois(s).galois(t) == a.galois(s * t)

    def test_fixed_field_of_sqrt5(self):
        # E(5) + E(5)^4 = (-1 + sqrt 5) / 2 is fixed by s = 4 and moved by s = 2
        z = root_power(5, 1) + root_power(5, 4)
        assert z.galois(4) == z
        assert z.galois(2) == root_power(5, 2) + root_power(5, 3) != z


class TestRationalIntegerExtraction:
    def test_plain_one(self):
        assert as_rational_integer(Cyclotomic(6, [1])) == 1

    def test_sum_collapses(self):
        e6 = root_power(6, 1)
        assert as_rational_integer(e6 + (1 - e6)) == 1

    def test_root_rejected_with_diagnostic(self):
        with pytest.raises(NonIntegralValueError) as exc:
            as_rational_integer(root_power(6, 1))
        assert str(exc.value) == "not a rational integer: coefficients [0, 1]"

    def test_half_rejected(self):
        with pytest.raises(NonIntegralValueError):
            as_rational_integer(Cyclotomic(4, [Fraction(1, 2)]))


class TestCanonicalForm:
    def test_equality_iff_difference_vanishes(self):
        e6 = root_power(6, 1)
        a = e6 * e6 * e6          # -1 after reduction
        b = Cyclotomic(6, [-1])
        assert a == b
        assert not (a - b)
        assert a != b + 1
        assert bool((a - b) + 1)

    def test_integrality_closed_under_ring_ops(self):
        rng = random.Random(11)
        for e in (6, 8, 12, 30):
            d = euler_phi(e)
            a = Cyclotomic(e, [rng.randrange(-9, 10) for _ in range(d)])
            b = Cyclotomic(e, [rng.randrange(-9, 10) for _ in range(d)])
            for z in (a, b, a + b, a * b, a - b):
                assert all(type(c) is int for c in z.coeffs)

    def test_is_rational_integer(self):
        assert Cyclotomic(6, [4]).is_rational()
        assert as_rational_integer(Cyclotomic(6, [4])) == 4
        with pytest.raises(NonIntegralValueError):
            Cyclotomic(6, [Fraction(1, 3)])
        assert not root_power(6, 1).is_rational()

    @pytest.mark.parametrize("e, coeffs", [(0, []), (0, [1]), (-3, [1, 2])])
    def test_order_below_one_rejected(self, e, coeffs):
        with pytest.raises(ValueError, match="cannot factor"):
            Cyclotomic(e, coeffs)

    @pytest.mark.parametrize("attr", ["e", "coeffs", "new_attribute"])
    def test_immutable(self, attr):
        # neither set nor deleted: a value without its order or coefficients is broken
        z = root_power(6, 1)
        with pytest.raises(AttributeError):
            setattr(z, attr, 12)
        with pytest.raises(AttributeError):
            delattr(z, attr)
        assert (z.e, z.coeffs) == (6, (0, 1))


class TestDisplay:
    @pytest.mark.parametrize(
        "z", [Cyclotomic(6, [-3]), Cyclotomic(5, [1, 2]), Cyclotomic(12, [])], ids=str
    )
    def test_repr_evaluates_back(self, z):
        assert eval(repr(z), {"Cyclotomic": Cyclotomic}) == z

    def test_negative_leading_term_keeps_its_sign(self):
        assert str(Cyclotomic(3, [-1, -1])) == "-1 - E(3)"
        assert str(-root_power(5, 2)) == "-E(5)^2"

    def test_coefficients_and_powers(self):
        assert str(Cyclotomic(3, [0, 2])) == "2*E(3)"
        assert str(Cyclotomic(12, [1, -3, 0, 2])) == "1 - 3*E(12) + 2*E(12)^3"
