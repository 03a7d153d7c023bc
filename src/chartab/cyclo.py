"""Exact arithmetic in the cyclotomic integers Z[eps_e], eps_e a primitive e-th root of 1.

A value is stored in the power basis 1, eps, ..., eps^(phi(e)-1) as a tuple of
phi(e) ints, eagerly reduced modulo the e-th cyclotomic polynomial.  The power
basis is an integral basis of the ring of integers of Q(eps_e), so every
algebraic integer of the field has exactly one such form: two values are
equal iff their coefficient tuples are equal, and a value is a rational
integer iff only coefficient 0 is nonzero.  Character values are algebraic
integers, so the ring never needs a denominator: coefficients and scalar
operands are ints, any other coefficient raises NonIntegralValueError, and
division is exact or an error.

This module alone makes values from ints, through Cyclotomic(e, coeffs), and
alone does arithmetic on coefficient tuples, the sums across classes of
`conj_weighted_sum` and the remainders of `remainder` included; other modules
call it or read values.  The file record of a value is read and written by
`chartab.tables` alone.

Cyclotomic polynomials come in closed form, from products and exact
quotients of binomials x^d - 1, so no polynomial factorization is needed.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import euler_phi, prime_factors
from .errors import NonIntegralValueError, OrderMismatchError


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Integer coefficients of the e-th cyclotomic polynomial, constant term first.

    The result is monic of degree phi(e): the minimal polynomial of a
    primitive e-th root of unity.  With r the product of the primes dividing
    e, Phi_e(x) = Phi_r(x^(e/r)), and by Moebius inversion of
    x^r - 1 = prod_{d | r} Phi_d(x), Phi_r is the product of
    (x^d - 1)^mu(r/d) over the divisors d of r: the binomials with
    mu(r/d) = 1 are multiplied in first, then those with mu(r/d) = -1 are
    divided out exactly.
    """
    if e < 1:
        raise ValueError(f"order must be positive, got {e}")
    binomials = [(1, 1)]  # (d, mu(r/d)) for d | r, r over the primes taken so far
    for p in prime_factors(e):
        binomials = [(d * p, mu) for d, mu in binomials] + [(d, -mu) for d, mu in binomials]
    r = binomials[0][0]
    poly = [1]
    for d, mu in binomials:
        if mu == 1:  # times x^d - 1
            poly = [b - a for a, b in zip(poly + [0] * d, [0] * d + poly)]
    for d, mu in binomials:
        if mu == -1:  # the q with poly = (x^d - 1) q: q_i = q_(i-d) - poly_i
            q = [0] * d
            for c in poly[: len(poly) - d]:
                q.append(q[-d] - c)
            poly = q[d:]
    out = [0] * ((len(poly) - 1) * (e // r) + 1)
    out[:: e // r] = poly
    return tuple(out)


@lru_cache(maxsize=None)
def _phi_tail(e: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (j, c_j) of the e-th cyclotomic polynomial below its leading term."""
    return tuple((j, c) for j, c in enumerate(cyclotomic_polynomial(e)[:-1]) if c)


def _reduce(e: int, poly: list[int]) -> tuple[int, ...]:
    """Canonical coefficients of sum_j poly[j] eps^j; poly is overwritten.

    Folds modulo x^e - 1, then divides by the monic e-th cyclotomic
    polynomial from the top, touching only its nonzero coefficients.
    """
    d = euler_phi(e)  # first: an order below 1 is a ValueError
    tail = _phi_tail(e)
    if len(poly) > e:
        folded = poly[:e]
        for j in range(e, len(poly)):
            folded[j % e] += poly[j]
        poly = folded
    for i in range(len(poly) - 1, d - 1, -1):
        c = poly[i]
        if c:
            base = i - d
            for j, p in tail:
                poly[base + j] -= c * p
    if len(poly) < d:
        poly.extend([0] * (d - len(poly)))
    return tuple(poly[:d])


def _integers(coeffs) -> list[int]:
    cs = list(coeffs)
    for c in cs:
        if type(c) is not int:
            raise NonIntegralValueError(f"coefficient {c} is not an integer")
    return cs


class Cyclotomic:
    """Immutable element of Z[eps_e] in canonical power-basis form.

    Cyclotomic(e, coeffs) is sum_j coeffs[j] eps^j for int coefficients of
    any length, reduced: Cyclotomic(e, []) is 0 and Cyclotomic(e, [r]) the
    int r.  Anything but an int raises NonIntegralValueError.
    The other operand of +, -, * and == is a Cyclotomic of the same order
    or an int.
    """

    __slots__ = ("e", "coeffs")

    def __init__(self, e: int, coeffs):
        _set_e(self, e)
        _set_coeffs(self, _reduce(e, _integers(coeffs)))

    @classmethod
    def _make(cls, e: int, coeffs: tuple[int, ...]) -> "Cyclotomic":
        """Wrap canonical int coefficients without re-checking them."""
        out = object.__new__(cls)
        _set_e(out, e)
        _set_coeffs(out, coeffs)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    def __delattr__(self, name):
        raise AttributeError("Cyclotomic values are immutable")

    # -- ring operations ----------------------------------------------

    def _check_order(self, other: "Cyclotomic") -> None:
        if self.e != other.e:
            raise OrderMismatchError(
                f"cyclotomic orders differ ({self.e} vs {other.e}); "
                "both operands must have the same order"
            )

    def __add__(self, other):
        if isinstance(other, Cyclotomic):
            self._check_order(other)
            return Cyclotomic._make(
                self.e, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
            )
        if type(other) is int:
            return Cyclotomic._make(self.e, (self.coeffs[0] + other,) + self.coeffs[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._make(self.e, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if type(other) is int:
            return Cyclotomic._make(self.e, (self.coeffs[0] - other,) + self.coeffs[1:])
        if isinstance(other, Cyclotomic):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Cyclotomic):
            self._check_order(other)
            a, b = self.coeffs, other.coeffs
            conv = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        if bj:
                            conv[i + j] += ai * bj
            return Cyclotomic._make(self.e, _reduce(self.e, conv))
        if type(other) is int:
            return Cyclotomic._make(self.e, tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, n: int) -> "Cyclotomic":
        """Exact quotient by a nonzero int; NonIntegralValueError if not in Z[eps_e]."""
        if any(c % n for c in self.coeffs):
            raise NonIntegralValueError(f"({self}) / {n} is not an algebraic integer")
        return Cyclotomic._make(self.e, tuple(c // n for c in self.coeffs))

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.e == other.e and self.coeffs == other.coeffs
        if type(other) is int:
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():  # equal to its int, so hashed as one
            return hash(self.coeffs[0])
        return hash((self.e, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    # -- structure ----------------------------------------------------

    def galois(self, s: int) -> "Cyclotomic":
        """The map eps -> eps^s, a field automorphism when gcd(s, e) = 1."""
        if self.is_rational():
            return self
        e = self.e
        poly = [0] * e
        for j, c in enumerate(self.coeffs):
            poly[j * s % e] += c
        return Cyclotomic._make(e, _reduce(e, poly))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    # -- display --------------------------------------------------------

    def __repr__(self):
        return f"Cyclotomic({self.e}, {list(self.coeffs)})"

    def __str__(self):
        if not self:
            return "0"
        sym = f"E({self.e})"
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                terms.append((c, str(abs(c))))
            else:
                power = sym if j == 1 else f"{sym}^{j}"
                if abs(c) == 1:
                    terms.append((c, power))
                else:
                    terms.append((c, f"{abs(c)}*{power}"))
        head_sign = "-" if terms[0][0] < 0 else ""
        out = head_sign + terms[0][1]
        for c, text in terms[1:]:
            out += (" - " if c < 0 else " + ") + text
        return out


# the slots' own setters, which the immutability guard of __setattr__ does not cover
_set_e = Cyclotomic.e.__set__
_set_coeffs = Cyclotomic.coeffs.__set__


def as_rational_integer(z: Cyclotomic) -> int:
    """The value as a plain integer; raises if it is not a rational integer."""
    if not z.is_rational():
        raise NonIntegralValueError(
            f"not a rational integer: coefficients {list(z.coeffs)}"
        )
    return z.coeffs[0]


def remainder(z: Cyclotomic, m: int, p: int) -> tuple[int, ...]:
    """The phi(m) coefficients of z's power-basis polynomial modulo x^m - 1 and Phi_m, mod p.

    For m | e the remainder over Z, before the coefficients are taken mod p,
    is not a ring map Z[eps_e] -> Z[eps_m]: for m < e the remainder of a
    product is not the product of the remainders.  Mod p, with e = m p^a, it
    is one (see `reduction`).  A rational c gives (c mod p, 0, ..., 0).
    """
    if z.is_rational():
        return (z.coeffs[0] % p,) + (0,) * (euler_phi(m) - 1)
    return tuple(c % p for c in _reduce(m, list(z.coeffs)))


def conj_weighted_sum(e: int, weights, xs, ys) -> Cyclotomic:
    """The sum of w x conj(y) over the triples (w, x, y), values of order e.

    The products are accumulated as one int polynomial modulo x^e - 1, using
    conj(eps^t) = eps^(-t), and reduced to canonical form once.
    """
    acc = [0] * e
    for w, a, b in zip(weights, xs, ys):
        b_terms = [(t, y) for t, y in enumerate(b.coeffs) if y]
        for s, x in enumerate(a.coeffs):
            if x:
                x *= w
                for t, y in b_terms:
                    acc[(s - t) % e] += x * y
    return Cyclotomic._make(e, _reduce(e, acc))
