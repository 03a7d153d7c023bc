"""Recovering class sizes from multiplicity sequences, and defect-0 detection.

The multiplicity of the trivial character in the n-th power of the
conjugation character is sum over classes of (|G|/|K|)^(n-1).  Writing a_i
for the number of classes of size i and C_i = |G|/i, the first terms of that
sequence form a linear system sum_i a_i C_i^(n-1) = seq[n] whose coefficient
matrix is of Vandermonde type in the distinct C_i, hence non-singular.  Class
sizes divide the group order, so the unknowns can be restricted to divisor
sizes, shrinking the system to d(|G|) equations.  The same solve applied to
the real-restricted sequence recovers the sizes of real classes only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import divisors, is_prime, p_part
from .classfuncs import MAX_POWER, delta, gamma
from .errors import InconsistentSequenceError
from .groups import ClassData
from .tables import CharacterTable


class SizeSpectrum(NamedTuple):
    """How many conjugacy classes there are of each size."""

    order: int
    counts: tuple[tuple[int, int], ...]  # (size, count), ascending sizes

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

    def total_elements(self) -> int:
        return sum(size * count for size, count in self.counts)

    def class_count(self) -> int:
        return sum(count for _, count in self.counts)


def _solve_vandermonde(nodes: list[int], rhs: list[int]) -> list[Fraction]:
    """Exact solve of sum_i x_i * nodes_i^(n-1) = rhs[n-1] for distinct nodes.

    The Bjorck-Pereyra recurrence (Bjorck and Pereyra 1970; Golub and Van
    Loan, Algorithm 4.6.2) in O(d^2) operations: the first sweep is integer
    only, the second divides by differences of distinct nodes.
    """
    d = len(nodes)
    x = list(rhs)
    for k in range(d - 1):
        for i in range(d - 1, k, -1):
            x[i] -= nodes[k] * x[i - 1]
    for k in range(d - 2, -1, -1):
        for i in range(k + 1, d):
            x[i] = Fraction(x[i], nodes[i] - nodes[i - k - 1])
        for i in range(k, d - 1):
            x[i] -= x[i + 1]
    return [Fraction(v) for v in x]


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
            counts[size] = int(value)
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


def _sequence(fn, table: CharacterTable, length: int) -> list[int]:
    if length > MAX_POWER:
        raise ValueError(f"sequence length must be at most {MAX_POWER}, got {length}")
    return [fn(n, table.rows[0]) for n in range(1, length + 1)]


def gamma_sequence(table: CharacterTable, length: int) -> list[int]:
    """[gamma_1(1_G), ..., gamma_length(1_G)] computed from the table's class data."""
    return _sequence(gamma, table, length)


def delta_sequence(table: CharacterTable, length: int) -> list[int]:
    return _sequence(delta, table, length)


def defect_zero_direct(data: ClassData, p: int) -> list[int]:
    """Classes whose size carries the full p-part of the group order."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return [
        i for i, size in enumerate(data.sizes)
        if p_part(size, p) == p_part(data.order, p)
    ]


class DefectReport(NamedTuple):
    """Both sides of the defect-0 detection for one (p, n, real) choice."""

    p: int
    n: int
    real: bool
    residues: tuple[int, ...]         # gamma_n(phi) mod p (delta_n when real)
    defect_zero_classes: tuple[int, ...]
    character_side: bool              # some residue is nonzero
    direct_side: bool                 # some (real) class has p-defect 0

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "real": self.real,
            "residues_mod_p": list(self.residues),
            "defect_zero_classes": list(self.defect_zero_classes),
            "verdicts": {
                "character_side": self.character_side,
                "direct_side": self.direct_side,
                "agree": self.character_side == self.direct_side,
            },
        }


def defect_zero_by_characters(
    table: CharacterTable,
    p: int,
    n: int,
    real: bool = False,
) -> DefectReport:
    """Compare the residue criterion with the direct size test for defect 0."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 2:
        raise ValueError(f"the residue criterion needs n >= 2, got {n}")
    fn = delta if real else gamma
    residues = tuple(fn(n, row) % p for row in table.rows)
    direct = defect_zero_direct(table.data, p)
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
