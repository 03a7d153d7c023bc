"""Class functions and multiplicity sequences.

The multiplicities are taken in powers of two distinguished class functions:
the character pi of the group acting on itself by conjugation, whose value on
a class is the centralizer order, and psi, the sum of the squares of the
irreducible characters, which equals the centralizer order on real classes
and vanishes elsewhere.  Neither is built: a `ClassFunction` is a table
row, its values alone and no arithmetic; the class data are the table's.
Multiplicities of irreducibles in powers of pi and psi are computed by the
weighted row-sum formula: since |K_i| c_i = |G|, the inner product
[phi, pi^n] reduces to the sum over classes of c_i^(n-1) phi(g_i), and
[phi, psi^n] to the same sum over the real classes.

Only the centralizer order of a class enters that sum, so it equals the sum
over c of c^(n-1) u_c, where u_c is the sum of the values of phi over the
classes with centralizer order c.  The u_c are collapsed once per
(table, row, real_only) and cached.  For a character every u_c is rational:
g -> g^s with s prime to the exponent permutes the classes of each
centralizer order (and the real ones among them), and
phi(g^s) = sigma_s(phi(g)), so each u_c is fixed by every Galois
automorphism.  Each u_c is kept as its int, and every n is then an
evaluation on plain ints.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .cyclo import Cyclotomic, as_rational_integer
from .errors import TableIntegrityError


class ClassFunction(namedtuple("ClassFunction", "values")):
    """One cyclotomic value per conjugacy class: a row of a `CharacterTable`.

    The row holds no class data; the classes it is over are its table's `data`.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        """The value at the identity class, as a rational integer."""
        return as_rational_integer(self.values[0])


# bounded; verify over the catalog holds 122 entries, one per (table, row, real_only)
@lru_cache(maxsize=256)
def _collapse(table, r: int, real_only: bool) -> tuple[tuple[int, int], ...]:
    """The pairs (c, u_c), u_c the values of row r summed over the classes
    (real classes if real_only) of centralizer order c, as an int;
    NonIntegralValueError if one is not rational, which a validated table
    rules out.
    """
    data = table.data
    sums: dict[int, Cyclotomic] = {}
    for c, real, v in zip(data.centralizer_orders, data.real_flags, table.rows[r].values):
        if real or not real_only:
            sums[c] = sums.get(c, 0) + v
    return tuple((c, as_rational_integer(u)) for c, u in sums.items())


def _multiplicities(table, r: int, ns, real_only: bool):
    """Yield [chi, pi^n] ([chi, psi^n] if real_only) for chi row r of the
    table and each n in ns, exactly.

    The values are not checked for sign.
    """
    pairs = _collapse(table, r, real_only)
    for n in ns:
        yield sum(c ** (n - 1) * u for c, u in pairs)


def _nonnegative(values) -> list[int]:
    """The values as a list; TableIntegrityError at the first negative one."""
    out = []
    for result in values:
        if result < 0:
            raise TableIntegrityError(f"multiplicity {result} is negative (corrupt input)")
        out.append(result)
    return out


# Largest n of gamma and delta, and longest sequence of them; n sets the work.
MAX_POWER = 1000
# Every gamma_n(chi) and delta_n(chi) is below |G|^n, as sum_chi gamma_n(chi)
# chi(1) = |G|^n, so each prints within CPython's 4300-digit int-to-str limit
# when |G|^n < 10^4300; under the default element cap, 2000^1000 has 3302.
PRINTABLE_DIGITS = 4300


def check_power(n: int, what: str = "n") -> None:
    """Raise ValueError unless 1 <= n <= MAX_POWER."""
    if n < 1:
        raise ValueError(f"{what} must be at least 1, got {n}")
    if n > MAX_POWER:
        raise ValueError(f"{what} must be at most {MAX_POWER}, got {n}")


def check_printable(n: int, order: int, what: str = "n") -> None:
    """Raise ValueError, naming the largest n the order allows, if
    order^n >= 10^PRINTABLE_DIGITS: an n-th multiplicity might not print."""
    largest = n
    while order ** largest >= 10 ** PRINTABLE_DIGITS:
        largest -= 1
    if largest < n:
        raise ValueError(
            f"{what} must be at most {largest} for order {order}, got {n}: a "
            f"multiplicity could exceed {PRINTABLE_DIGITS} digits"
        )


def gamma(n: int, table, r: int) -> int:
    """Multiplicity of row r of the table in the n-th power of the
    conjugation character."""
    check_power(n)
    return _nonnegative(_multiplicities(table, r, (n,), real_only=False))[0]


def delta(n: int, table, r: int) -> int:
    """Multiplicity of row r of the table in the n-th power of the
    squared-character sum."""
    check_power(n)
    return _nonnegative(_multiplicities(table, r, (n,), real_only=True))[0]
