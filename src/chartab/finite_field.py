"""Prime fields GF(p) and their extensions GF(p^f).

Extension field elements are polynomials of degree < f over GF(p), stored as
coefficient tuples (constant term first) and reduced modulo a fixed monic
irreducible defining polynomial.  The defining polynomial for a given (p, f)
is always the lexicographically smallest monic irreducible, scanning the
constant term upward, so field constructions are reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .arith import is_prime, order_dividing, prime_factors


class PrimeFieldElement:
    """Element of GF(q), q prime; the scalar field of the table computation."""

    __slots__ = ("q", "value")

    def __init__(self, q: int, value: int):
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "value", value % q)

    def __setattr__(self, name, value):
        raise AttributeError("field elements are immutable")

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.q != self.q:
                raise ValueError(f"mixed moduli {self.q} and {other.q}")
            return other.value
        if isinstance(other, int):
            return other % self.q
        return None

    def __add__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else PrimeFieldElement(self.q, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else PrimeFieldElement(self.q, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else PrimeFieldElement(self.q, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else PrimeFieldElement(self.q, self.value * v)

    __rmul__ = __mul__

    def __neg__(self):
        return PrimeFieldElement(self.q, -self.value)

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.q, self.value * pow(v, -1, self.q))

    def __pow__(self, n: int):
        return PrimeFieldElement(self.q, pow(self.value, n, self.q))

    def inverse(self) -> "PrimeFieldElement":
        return PrimeFieldElement(self.q, pow(self.value, -1, self.q))

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.q == other.q and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.q
        return NotImplemented

    def __hash__(self):
        return hash((self.q, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"PrimeFieldElement({self.q}, {self.value})"


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...], poly: tuple[int, ...], p: int):
    f = len(poly) - 1
    conv = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] = (conv[i + j] + ai * bj) % p
    # reduce modulo the monic defining polynomial
    for i in range(len(conv) - 1, f - 1, -1):
        c = conv[i]
        if c:
            conv[i] = 0
            for j in range(f):
                conv[i - f + j] = (conv[i - f + j] - c * poly[j]) % p
    out = conv[:f]
    out += [0] * (f - len(out))
    return tuple(out)


def _poly_divides(d: tuple[int, ...], a: tuple[int, ...], p: int) -> bool:
    """Whether monic d divides a over GF(p)."""
    rem = [c % p for c in a]
    dd = len(d) - 1
    lead_inv = pow(d[-1], -1, p)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] * lead_inv % p
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] = (rem[i - dd + j] - c * d[j]) % p
    return not any(rem[:dd])


@lru_cache(maxsize=None)
def irreducible_polynomial(p: int, f: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree f over GF(p).

    Candidates are scanned with the constant term as the most significant
    position, upward from zero.
    """
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if f < 1:
        raise ValueError(f"degree must be positive, got {f}")
    for tail in product(range(p), repeat=f):
        cand = tail + (1,)
        if cand[0] == 0 and f == 1:
            return cand  # x itself is irreducible
        if cand[0] == 0:
            continue  # divisible by x
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("unreachable: irreducibles of every degree exist")


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    f = len(poly) - 1
    if f == 1:
        return True
    for deg in range(1, f // 2 + 1):
        for tail in product(range(p), repeat=deg):
            d = tail + (1,)
            if _poly_divides(d, poly, p):
                return False
    return True


class ExtensionFieldElement:
    """Element of GF(p^f), as a polynomial of degree < f over GF(p)."""

    __slots__ = ("p", "poly", "coeffs")

    def __init__(self, p: int, poly: tuple[int, ...], coeffs):
        f = len(poly) - 1
        cs = tuple(c % p for c in coeffs)
        if len(cs) != f:
            raise ValueError(f"degree-{f} field needs {f} coefficients, got {len(cs)}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "poly", tuple(poly))
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("field elements are immutable")

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    @classmethod
    def zero(cls, p: int, poly: tuple[int, ...]):
        return cls(p, poly, (0,) * (len(poly) - 1))

    @classmethod
    def one(cls, p: int, poly: tuple[int, ...]):
        return cls.from_int(p, poly, 1)

    @classmethod
    def from_int(cls, p: int, poly: tuple[int, ...], n: int):
        cs = [0] * (len(poly) - 1)
        cs[0] = n % p
        return cls(p, poly, cs)

    def _check(self, other):
        if self.p != other.p or self.poly != other.poly:
            raise ValueError("mixed finite fields")

    def __add__(self, other):
        if not isinstance(other, ExtensionFieldElement):
            return NotImplemented
        self._check(other)
        return ExtensionFieldElement(
            self.p, self.poly, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        if not isinstance(other, ExtensionFieldElement):
            return NotImplemented
        self._check(other)
        return ExtensionFieldElement(
            self.p, self.poly, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return ExtensionFieldElement(self.p, self.poly, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return ExtensionFieldElement(self.p, self.poly, [a * other for a in self.coeffs])
        if not isinstance(other, ExtensionFieldElement):
            return NotImplemented
        self._check(other)
        return ExtensionFieldElement(
            self.p, self.poly, _poly_mul_mod(self.coeffs, other.coeffs, self.poly, self.p)
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not needed here")
        out = ExtensionFieldElement.one(self.p, self.poly)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, ExtensionFieldElement):
            return self.p == other.p and self.poly == other.poly and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == ExtensionFieldElement.from_int(self.p, self.poly, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.poly, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"ExtensionFieldElement(p={self.p}, poly={self.poly}, coeffs={self.coeffs})"

    def multiplicative_order(self) -> int:
        if not self:
            raise ValueError("zero has no multiplicative order")
        return order_dividing(self.p**self.degree - 1, lambda k: self**k == 1)


def field_elements(p: int, poly: tuple[int, ...]):
    """All elements of the field, in lexicographic coefficient order."""
    f = len(poly) - 1
    for tail in product(range(p), repeat=f):
        yield ExtensionFieldElement(p, poly, tail)


@lru_cache(maxsize=None)
def field_generator(p: int, poly: tuple[int, ...]) -> ExtensionFieldElement:
    """First multiplicative generator in lexicographic coefficient order."""
    n = p ** (len(poly) - 1) - 1
    rs = prime_factors(n)
    for el in field_elements(p, poly):
        if el and all(el ** (n // r) != 1 for r in rs):
            return el
    raise AssertionError("unreachable: finite fields have cyclic unit groups")
