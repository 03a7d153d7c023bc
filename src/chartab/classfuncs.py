"""Class functions and multiplicity sequences.

The two distinguished class functions here are the character pi of the group
acting on itself by conjugation, whose value on a class is the centralizer
order, and psi, the sum of the squares of the irreducible characters, which
equals the centralizer order on real classes and vanishes elsewhere.
Multiplicities of irreducibles in powers of pi and psi are computed by the
weighted row-sum formula: since |K_i| c_i = |G|, the inner product
[phi, pi^n] reduces to the sum over classes of c_i^(n-1) phi(g_i), and
[phi, psi^n] to the same sum over the real classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cyclo import Cyclotomic, as_rational_integer
from .errors import ClassDataMismatchError, TableIntegrityError
from .groups import ClassData


@dataclass(frozen=True)
class ClassFunction:
    """One cyclotomic value per conjugacy class; a table row is one of these."""

    values: tuple[Cyclotomic, ...]
    data: ClassData

    def __post_init__(self):
        if len(self.values) != self.data.k:
            raise ValueError(f"expected {self.data.k} values, got {len(self.values)}")

    @cached_property
    def degree(self) -> int:
        """The value at the identity class, as a rational integer."""
        return as_rational_integer(self.values[0])

    def _check(self, other: "ClassFunction") -> None:
        if self.data != other.data:
            raise ClassDataMismatchError("class functions over different class data")

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._check(other)
            return ClassFunction(
                tuple(a * b for a, b in zip(self.values, other.values)), self.data
            )
        if isinstance(other, int):
            return ClassFunction(tuple(v * other for v in self.values), self.data)
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        self._check(other)
        return ClassFunction(
            tuple(a + b for a, b in zip(self.values, other.values)), self.data
        )


def all_ones(data: ClassData) -> ClassFunction:
    return ClassFunction(tuple(Cyclotomic.one(data.exponent) for _ in range(data.k)), data)


def pi_character(data: ClassData) -> ClassFunction:
    """The conjugation character: centralizer order on each class."""
    return ClassFunction(
        tuple(Cyclotomic.from_rational(data.exponent, c) for c in data.centralizer_orders),
        data,
    )


def psi_character(data: ClassData) -> ClassFunction:
    """Sum of the squared irreducible characters: centralizer order on real
    classes and 0 elsewhere, by column orthogonality of g against g^-1.
    """
    return ClassFunction(
        tuple(
            Cyclotomic.from_rational(data.exponent, c if real else 0)
            for c, real in zip(data.centralizer_orders, data.real_flags)
        ),
        data,
    )


def power(a: ClassFunction, n: int) -> ClassFunction:
    """n-th pointwise power; power(a, 0) is the all-ones function."""
    if n < 0:
        raise ValueError(f"power must be non-negative, got {n}")
    out = all_ones(a.data)
    for _ in range(n):
        out = out * a
    return out


def _scaled_inner(phi: ClassFunction, theta: ClassFunction) -> Cyclotomic:
    """|G| [phi, theta] = sum over classes of |K| phi(g_K) conj(theta(g_K)), exactly.

    The products are accumulated as one int polynomial modulo x^e - 1, using
    conj(eps^t) = eps^(-t), and reduced to canonical form once.
    """
    phi._check(theta)
    e = phi.data.exponent
    acc = [0] * e
    for size, a, b in zip(phi.data.sizes, phi.values, theta.values):
        b_terms = [(t, y) for t, y in enumerate(b.coeffs) if y]
        for s, x in enumerate(a.coeffs):
            if x:
                x *= size
                for t, y in b_terms:
                    acc[(s - t) % e] += x * y
    return Cyclotomic.from_poly(e, acc)


def inner(phi: ClassFunction, theta: ClassFunction) -> Cyclotomic:
    """(1/|G|) sum over classes of |K| phi(g_K) conj(theta(g_K)), exactly.

    The division by |G| is exact for characters; otherwise NonIntegralValueError.
    """
    return _scaled_inner(phi, theta) / phi.data.order


def _multiplicity(phi: ClassFunction, n: int, real_only: bool) -> int:
    data = phi.data
    total = Cyclotomic.zero(data.exponent)
    for c, real, v in zip(data.centralizer_orders, data.real_flags, phi.values):
        if real or not real_only:
            total = total + c ** (n - 1) * v
    result = as_rational_integer(total)
    if result < 0:
        raise TableIntegrityError(f"multiplicity {result} is negative (corrupt input)")
    return result


# Largest n for gamma and delta; n sets the work done, and 2000^999 has 3298
# digits, so for a group under the default element cap every multiplicity
# prints within Python's 4300-digit int-to-str limit.
MAX_POWER = 1000


def check_power(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_POWER."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n > MAX_POWER:
        raise ValueError(f"n must be at most {MAX_POWER}, got {n}")


def gamma(n: int, phi: ClassFunction) -> int:
    """Multiplicity of phi in the n-th power of the conjugation character."""
    check_power(n)
    return _multiplicity(phi, n, real_only=False)


def delta(n: int, phi: ClassFunction) -> int:
    """Multiplicity of phi in the n-th power of the squared-character sum."""
    check_power(n)
    return _multiplicity(phi, n, real_only=True)
