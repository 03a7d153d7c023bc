"""Recovering class sizes from multiplicity sequences, and defect-0 detection.

The multiplicity of the trivial character in the n-th power of the
conjugation character is sum over classes of (|G|/|K|)^(n-1).  Writing a_i
for the number of classes of size i and C_i = |G|/i, the first terms of that
sequence form a linear system sum_i a_i C_i^(n-1) = seq[n] whose coefficient
matrix is of Vandermonde type in the distinct C_i, hence non-singular.  Class
sizes divide the group order, so the unknowns can be restricted to divisor
sizes, shrinking the system to d(|G|) equations.  The same solve applied to
the real-restricted sequence recovers the sizes of real classes only.
`recover_from_table` alone sets how many terms a table's recovery reads, for
the `recover` command and the `verify` suite: d(|G|) and a verified surplus,
`EXTRA_TERMS` unless the caller asks for another.
"""

from __future__ import annotations

from collections import namedtuple

from .arith import divisors, p_part, require_prime
from .classfuncs import _multiplicities, _nonnegative, check_power, check_printable, delta, gamma
from .errors import InconsistentSequenceError
from .groups import ClassData
from .tables import CharacterTable


# Sequence terms a table's recovery reads beyond d(|G|), each one checked
EXTRA_TERMS = 3


class SizeSpectrum(namedtuple("SizeSpectrum", "order counts")):
    """How many conjugacy classes there are of each size.

    `order` is the group order; `counts` holds (size, count) pairs, ascending
    sizes.
    """

    __slots__ = ()

    @classmethod
    def from_mapping(cls, order: int, mapping: dict[int, int]) -> "SizeSpectrum":
        items = tuple(sorted((s, c) for s, c in mapping.items() if c))
        return cls(order=order, counts=items)

    @classmethod
    def from_sizes(cls, order: int, sizes) -> "SizeSpectrum":
        mapping: dict[int, int] = {}
        for s in sizes:
            mapping[s] = mapping.get(s, 0) + 1
        return cls.from_mapping(order, mapping)

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)


def _solve_vandermonde(nodes: list[int], rhs: list[int]) -> list:
    """Exact solve of sum_i x_i * nodes_i^(n-1) = rhs[n-1] for distinct nodes.

    Lagrange over the master polynomial P(z) = prod_i (z - nodes_i): with
    P_j = P / (z - nodes_j), sum_n [z^n]P_j * rhs[n] = x_j * P_j(nodes_j), and
    P_j(nodes_j) != 0 because the nodes are distinct.  Each P_j comes from P
    by synthetic division, so the solve is O(d^2) int operations.  An integral
    x_j is returned as an int; a Fraction is built only for one that is not.
    """
    d = len(nodes)
    master = [1]  # P, low degree first
    for node in nodes:
        master = [a - node * b for a, b in zip([0, *master], [*master, 0])]
    solution = []
    for node in nodes:
        # the coefficients of P_j from the top, summed against rhs and, by
        # Horner's rule, evaluated at node
        coeff = den = 1
        num = rhs[d - 1]
        for t in range(d - 1, 0, -1):
            coeff = master[t] + node * coeff
            num += coeff * rhs[t - 1]
            den = den * node + coeff
        if num % den:
            from fractions import Fraction  # only an inconsistent sequence needs it

            solution.append(Fraction(num, den))
        else:
            solution.append(num // den)
    return solution


def _recover(seq, order: int, full_cover: bool) -> SizeSpectrum:
    sizes = divisors(order)
    d = len(sizes)
    seq = list(seq)
    if len(seq) < d:
        raise ValueError(
            f"need at least {d} sequence entries for order {order}, got {len(seq)}"
        )
    nodes = [order // s for s in sizes]
    solution = _solve_vandermonde(nodes, seq[:d])
    counts: dict[int, int] = {}
    for size, value in zip(sizes, solution):
        if value.denominator != 1 or value < 0:
            raise InconsistentSequenceError(
                f"no group of order {order} yields this sequence: "
                f"count for size {size} solves to {value}"
            )
        if value:
            counts[size] = value
    for n in range(d + 1, len(seq) + 1):
        predicted = sum(
            count * (order // size) ** (n - 1) for size, count in counts.items()
        )
        if predicted != seq[n - 1]:
            raise InconsistentSequenceError(
                f"surplus equation n={n} fails: expected {predicted}, got {seq[n - 1]}"
            )
    mass = sum(size * count for size, count in counts.items())
    if full_cover and mass != order:
        raise InconsistentSequenceError(
            f"recovered classes cover {mass} elements, not the full order {order}"
        )
    if not full_cover and mass > order:
        raise InconsistentSequenceError(
            f"recovered real classes cover {mass} elements, more than the order {order}"
        )
    return SizeSpectrum.from_mapping(order, counts)


def recover_class_sizes(gamma_seq, order: int) -> SizeSpectrum:
    """Class sizes of a group of the given order from its gamma sequence.

    Entry n (1-based) must be the multiplicity of the trivial character in
    the n-th power of the conjugation character.  Surplus entries beyond the
    divisor count are verified, never fitted.
    """
    return _recover(gamma_seq, order, full_cover=True)


def recover_real_class_sizes(delta_seq, order: int) -> SizeSpectrum:
    """Sizes of the real classes only, from the delta sequence."""
    return _recover(delta_seq, order, full_cover=False)


def _sequence(table: CharacterTable, length: int, real_only: bool) -> list[int]:
    check_power(length, "sequence length")
    return _nonnegative(_multiplicities(table, 0, range(1, length + 1), real_only))


def gamma_sequence(table: CharacterTable, length: int) -> list[int]:
    """[gamma_1(1_G), ..., gamma_length(1_G)] computed from the table's class data."""
    return _sequence(table, length, real_only=False)


def delta_sequence(table: CharacterTable, length: int) -> list[int]:
    return _sequence(table, length, real_only=True)


def recover_from_table(table: CharacterTable, real: bool = False, extra_terms: int = EXTRA_TERMS):
    """(sequence, recovered, actual): the first d(|G|) + extra_terms terms of
    gamma (of delta if real), the spectrum of class sizes (real class sizes)
    solved from them, and the table's own; ValueError before any term is
    computed if there would be more than MAX_POWER or the last might not print.
    """
    data = table.data
    length = len(divisors(data.order)) + extra_terms
    check_power(length, "sequence length")
    check_printable(length, data.order, "sequence length")
    sequence = (delta_sequence if real else gamma_sequence)(table, length)
    recovered = _recover(sequence, data.order, full_cover=not real)
    actual = SizeSpectrum.from_sizes(
        data.order, [s for s, r in zip(data.sizes, data.real_flags) if r or not real]
    )
    return sequence, recovered, actual


def check_defect_power(n: int) -> None:
    """Raise ValueError unless 2 <= n <= MAX_POWER: the residue criterion's n."""
    if n < 2:
        raise ValueError(f"the residue criterion needs n >= 2, got {n}")
    check_power(n)


def defect_zero_direct(data: ClassData, p: int) -> list[int]:
    """Classes whose size carries the full p-part of the group order."""
    require_prime(p)
    return [
        i for i, size in enumerate(data.sizes)
        if p_part(size, p) == p_part(data.order, p)
    ]


class DefectReport(
    namedtuple(
        "DefectReport",
        "p n real residues defect_zero_classes character_side direct_side",
    )
):
    """Both sides of the defect-0 detection for one (p, n, real) choice.

    `residues` holds gamma_n(phi) mod p for each row (delta_n when real);
    `character_side` says some residue is nonzero, and `direct_side` that
    some (real) class has p-defect 0.
    """

    __slots__ = ()


def defect_zero_by_characters(
    table: CharacterTable,
    p: int,
    n: int,
    real: bool = False,
) -> DefectReport:
    """Compare the residue criterion with the direct size test for defect 0."""
    direct = defect_zero_direct(table.data, p)  # raises unless p is prime
    check_defect_power(n)
    fn = delta if real else gamma
    residues = tuple(fn(n, table, r) % p for r in range(len(table.rows)))
    if real:
        direct = [i for i in direct if table.data.real_flags[i]]
    return DefectReport(
        p=p,
        n=n,
        real=real,
        residues=residues,
        defect_zero_classes=tuple(direct),
        character_side=any(residues),
        direct_side=bool(direct),
    )
