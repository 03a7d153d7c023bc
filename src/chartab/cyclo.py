"""Exact arithmetic in cyclotomic fields Q(eps_e), eps_e a primitive e-th root of unity.

A value is stored in the power basis 1, eps, ..., eps^(phi(e)-1) as a tuple of
phi(e) rationals, eagerly reduced modulo the e-th cyclotomic polynomial.  That
makes the representation a normal form: two values are equal iff their
coefficient tuples are equal, a value is rational iff only coefficient 0 is
nonzero, and it is an algebraic integer iff every coefficient is a rational
integer (the ring of integers of Q(eps_e) has the power basis).

Cyclotomic polynomials are computed by exact division of x^e - 1 by the
product of the cyclotomic polynomials of the proper divisors of e, so no
factorization machinery is needed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import divisors, euler_phi
from .errors import FormatError, NonIntegralValueError, OrderMismatchError

Rational = Fraction


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of num by monic den over Z; remainder must vanish."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        out[i - dn] = c
        if c:
            for j, d in enumerate(den):
                num[i - dn + j] -= c * d
    if any(num[:dn]):
        raise AssertionError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Integer coefficients of the e-th cyclotomic polynomial, constant term first.

    The result is monic of degree phi(e): the minimal polynomial of a
    primitive e-th root of unity.
    """
    if e < 1:
        raise ValueError(f"order must be positive, got {e}")
    poly = [-1] + [0] * (e - 1) + [1]  # x^e - 1
    for d in divisors(e):
        if d != e:
            poly = _poly_divide_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _eps_power_table(e: int) -> tuple[tuple[int, ...], ...]:
    """Canonical integer coefficient vectors of eps^j for j = 0 .. e-1."""
    d = euler_phi(e)
    phi = cyclotomic_polynomial(e)
    rows: list[tuple[int, ...]] = []
    for j in range(min(d, e)):
        rows.append(tuple(1 if i == j else 0 for i in range(d)))
    for j in range(d, e):
        prev = rows[j - 1]
        shifted = [0] + list(prev[: d - 1])
        top = prev[d - 1]
        if top:
            # x^d = -(phi_0 + phi_1 x + ... + phi_{d-1} x^{d-1})
            for i in range(d):
                shifted[i] -= top * phi[i]
        rows.append(tuple(shifted))
    return tuple(rows)


class Cyclotomic:
    """Immutable element of Q(eps_e) in canonical power-basis form."""

    __slots__ = ("e", "coeffs")

    def __init__(self, e: int, coeffs):
        d = euler_phi(e)
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != d:
            raise ValueError(f"order {e} needs {d} coefficients, got {len(cs)}")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, e: int) -> "Cyclotomic":
        return cls(e, [0] * euler_phi(e))

    @classmethod
    def one(cls, e: int) -> "Cyclotomic":
        return cls.from_rational(e, 1)

    @classmethod
    def from_rational(cls, e: int, r) -> "Cyclotomic":
        cs = [Fraction(0)] * euler_phi(e)
        cs[0] = Fraction(r)
        return cls(e, cs)

    @classmethod
    def from_poly(cls, e: int, coeffs) -> "Cyclotomic":
        """Build from arbitrary coefficients of powers eps^0, eps^1, ... (any length)."""
        table = _eps_power_table(e)
        acc = [Fraction(0)] * euler_phi(e)
        for j, c in enumerate(coeffs):
            c = Fraction(c)
            if c:
                for i, t in enumerate(table[j % e]):
                    if t:
                        acc[i] += c * t
        return cls(e, acc)

    # -- ring operations ----------------------------------------------

    def _check_order(self, other: "Cyclotomic") -> None:
        if self.e != other.e:
            raise OrderMismatchError(
                f"cyclotomic orders differ ({self.e} vs {other.e}); embed first"
            )

    def __add__(self, other):
        if isinstance(other, Cyclotomic):
            self._check_order(other)
            return Cyclotomic(self.e, [a + b for a, b in zip(self.coeffs, other.coeffs)])
        if isinstance(other, (int, Fraction)):
            cs = list(self.coeffs)
            cs[0] += other
            return Cyclotomic(self.e, cs)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.e, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (Cyclotomic, int, Fraction)):
            return self + (-other if isinstance(other, Cyclotomic) else -Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Cyclotomic):
            self._check_order(other)
            a, b = self.coeffs, other.coeffs
            conv = [Fraction(0)] * (2 * len(a) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        if bj:
                            conv[i + j] += ai * bj
            return Cyclotomic.from_poly(self.e, conv)
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.e, [c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are supported")
        out = Cyclotomic.one(self.e)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.e == other.e and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.e, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    # -- structure ----------------------------------------------------

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, the Galois twist eps -> eps^(-1)."""
        return Cyclotomic.from_poly(self.e, _conj_poly(self.coeffs, self.e))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise NonIntegralValueError(f"not a rational number: coefficients {self.coeffs}")
        return self.coeffs[0]

    def is_rational_integer(self) -> bool:
        return self.is_rational() and self.coeffs[0].denominator == 1

    def is_integral(self) -> bool:
        """True iff the value is an algebraic integer (all coefficients integers)."""
        return all(c.denominator == 1 for c in self.coeffs)

    def embed(self, e2: int) -> "Cyclotomic":
        """Rewrite in Q(eps_e2) for a multiple e2 of the current order."""
        if e2 % self.e:
            raise OrderMismatchError(f"{self.e} does not divide {e2}")
        step = e2 // self.e
        conv = [Fraction(0)] * (step * (len(self.coeffs) - 1) + 1)
        for j, c in enumerate(self.coeffs):
            conv[j * step] = c
        return Cyclotomic.from_poly(e2, conv)

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "e": self.e,
            "num": [c.numerator for c in self.coeffs],
            "den": [c.denominator for c in self.coeffs],
        }

    @classmethod
    def from_dict(cls, data: dict, expect_e: int | None = None) -> "Cyclotomic":
        """Deserialize, insisting on canonical form (lowest terms, right length)."""
        try:
            e = data["e"]
            num = data["num"]
            den = data["den"]
        except (TypeError, KeyError) as exc:
            raise FormatError(f"bad cyclotomic record: {data!r}") from exc
        if not isinstance(e, int) or e < 1:
            raise FormatError(f"bad cyclotomic order: {e!r}")
        if expect_e is not None and e != expect_e:
            raise FormatError(f"cyclotomic order {e} where {expect_e} is required")
        d = euler_phi(e)
        if len(num) != d or len(den) != d:
            raise FormatError(f"order {e} needs {d} numerators and denominators")
        coeffs = []
        for n, m in zip(num, den):
            if not isinstance(n, int) or not isinstance(m, int) or m < 1:
                raise FormatError(f"bad coefficient {n}/{m}")
            f = Fraction(n, m)
            if f.numerator != n or f.denominator != m:
                raise FormatError(f"coefficient {n}/{m} is not in lowest terms")
            coeffs.append(f)
        return cls(e, coeffs)

    # -- display --------------------------------------------------------

    def __repr__(self):
        return f"Cyclotomic({self.e}, {[str(c) for c in self.coeffs]})"

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


def _conj_poly(coeffs, e: int) -> list[Fraction]:
    out = [Fraction(0)] * e
    for j, c in enumerate(coeffs):
        out[(e - j) % e] += c
    return out


def root_power(e: int, j: int) -> Cyclotomic:
    """eps_e^j in canonical form (j taken mod e)."""
    if e < 1:
        raise ValueError(f"order must be positive, got {e}")
    return Cyclotomic(e, [Fraction(c) for c in _eps_power_table(e)[j % e]])


def as_rational_integer(z: Cyclotomic) -> int:
    """The value as a plain integer; raises if it is not a rational integer."""
    if not z.is_rational_integer():
        raise NonIntegralValueError(
            f"not a rational integer: coefficients {[str(c) for c in z.coeffs]}"
        )
    return int(z.coeffs[0])
