"""Congruences of character values modulo a maximal ideal over p.

Reducing character values mod M (see `reduction`) gives two congruence
criteria: a class consists of p-elements iff chi(g) = chi(1) mod M for every
irreducible chi, and chi lies in the principal p-block iff its central
character values |K| chi(g_K) / chi(1) are congruent to |K| mod M on every
class.  On top of the block structure sits a Strunkov-style counting quantity
gamma(psi): the multiplicity of psi in pi^3 times the sum of the principal
block characters, which expands to the full triple sum over |chi1 chi2|^2
|chi3|^2 phi because the squared absolute values of all n-fold character
products add up to pi^n pointwise.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import is_prime, p_part
from .classfuncs import ClassFunction, inner, pi_character, power
from .cyclo import Cyclotomic, as_rational_integer
from .errors import TableIntegrityError
from .reduction import ReductionMap, build_reduction, reduce_mod_M
from .tables import CharacterTable


def p_element_differences(table: CharacterTable) -> tuple[tuple[Cyclotomic, ...], ...]:
    """chi(g_K) - chi(1) for every class K (outer) and row chi (inner).

    The p-element test reduces these mod M.  They do not depend on p or on
    the root, so a caller testing several classes, primes or roots computes
    them once and passes them to `is_p_element`.
    """
    return tuple(
        tuple(row.values[i] - row.degree for row in table.rows)
        for i in range(table.data.k)
    )


def is_p_element(
    class_index: int,
    p: int,
    table: CharacterTable,
    rmap: ReductionMap,
    differences: tuple[tuple[Cyclotomic, ...], ...] | None = None,
) -> bool:
    """Whether the class consists of p-elements, by the congruence criterion.

    `differences` is `p_element_differences(table)`, computed here when not
    given.  The verdict is checked against the direct test (the
    representative's order is a power of p); disagreement would falsify the
    criterion and raises immediately.
    """
    if differences is None:
        differences = p_element_differences(table)
    congruent = all(not any(reduce_mod_M(d, rmap)) for d in differences[class_index])
    order = table.data.rep_orders[class_index]
    direct = p_part(order, p) == order
    if congruent != direct:
        raise TableIntegrityError(
            f"congruence and order tests disagree on class {class_index} for p={p}"
        )
    return congruent


def central_character(chi: ClassFunction, class_index: int) -> Cyclotomic:
    """|K| chi(g_K) / chi(1); NonIntegralValueError unless chi(1) divides |K| chi(g_K)."""
    return chi.values[class_index] * chi.data.sizes[class_index] / chi.degree


def block_differences(table: CharacterTable) -> tuple[tuple[Cyclotomic, ...], ...]:
    """|K| chi(g_K) / chi(1) - |K| for every row chi (outer) and class K (inner).

    The principal-block test reduces these mod M.  Like
    `p_element_differences` they depend on neither p nor the root.
    """
    sizes = table.data.sizes
    return tuple(
        tuple(central_character(row, i) - size for i, size in enumerate(sizes))
        for row in table.rows
    )


class BlockReport(NamedTuple):
    """Principal-block membership verdicts for every irreducible character."""

    p: int
    members: tuple[int, ...]          # row indices in the principal block
    member_flags: tuple[bool, ...]
    failures: tuple[tuple[int, int], ...]  # (row, class) congruence witnesses

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "members": list(self.members),
            "member_flags": list(self.member_flags),
            "failure_witnesses": [list(pair) for pair in self.failures],
        }


def principal_block_members(
    table: CharacterTable,
    p: int,
    rmap: ReductionMap | None = None,
    differences: tuple[tuple[Cyclotomic, ...], ...] | None = None,
) -> BlockReport:
    """Characters whose central character is congruent to the class sizes mod M.

    `differences` is `block_differences(table)`, computed here when not given.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if rmap is None:
        rmap = build_reduction(table.data.exponent, p)
    if differences is None:
        differences = block_differences(table)
    flags = []
    failures = []
    for r, row_diffs in enumerate(differences):
        member = True
        for i, diff in enumerate(row_diffs):
            if any(reduce_mod_M(diff, rmap)):
                member = False
                failures.append((r, i))
        flags.append(member)
    if not flags[0]:
        raise TableIntegrityError("the trivial character left the principal block")
    return BlockReport(
        p=p,
        members=tuple(r for r, m in enumerate(flags) if m),
        member_flags=tuple(flags),
        failures=tuple(failures),
    )


def strunkov_analog_gamma(
    table: CharacterTable,
    p: int,
    psi: ClassFunction,
    block: tuple[int, ...] | None = None,
) -> int:
    """Multiplicity of psi in pi^3 times the sum of the block characters.

    This equals the sum over chi1, chi2, chi3 and phi in the block of
    [psi, |chi1 chi2|^2 |chi3|^2 phi], because the inner sums over chi1, chi2
    and chi3 factor pointwise into pi^3.
    """
    if block is None:
        block = principal_block_members(table, p).members
    if not block:
        raise ValueError("the character block must not be empty")
    block_sum = sum((table.rows[r] for r in block[1:]), table.rows[block[0]])
    target = power(pi_character(table.data), 3) * block_sum
    return as_rational_integer(inner(psi, target))


class AltNormalizerReport(NamedTuple):
    """Divisibility of gamma(psi) by several candidate normalizing quantities.

    Purely exploratory: the report records which divisibility statements hold
    for each irreducible psi and asserts nothing about them.
    """

    p: int
    block: tuple[int, ...]
    gamma_values: tuple[int, ...]
    p_times_order_p_part: int
    block_degree_sum: int            # sum of phi(1)^2 over the block
    block_degree_sum_p_part: int
    divisible_by_p_times_p_part: tuple[bool, ...]
    divisible_by_degree_sum: tuple[bool, ...]
    divisible_by_degree_sum_p_part: tuple[bool, ...]

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "block": list(self.block),
            "gamma_values": list(self.gamma_values),
            "normalizers": {
                "p_times_order_p_part": self.p_times_order_p_part,
                "block_degree_sum": self.block_degree_sum,
                "block_degree_sum_p_part": self.block_degree_sum_p_part,
            },
            "divisibility": {
                "p_times_order_p_part": list(self.divisible_by_p_times_p_part),
                "block_degree_sum": list(self.divisible_by_degree_sum),
                "block_degree_sum_p_part": list(self.divisible_by_degree_sum_p_part),
            },
        }


def alt_normalizer_report(table: CharacterTable, p: int) -> AltNormalizerReport:
    """gamma(psi) for every irreducible psi, against three candidate normalizers."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    block = principal_block_members(table, p).members
    values = tuple(strunkov_analog_gamma(table, p, row, block=block) for row in table.rows)
    bound = p * p_part(table.data.order, p)
    degree_sum = sum(table.rows[r].degree ** 2 for r in block)
    degree_sum_p = p_part(degree_sum, p)
    return AltNormalizerReport(
        p=p,
        block=block,
        gamma_values=values,
        p_times_order_p_part=bound,
        block_degree_sum=degree_sum,
        block_degree_sum_p_part=degree_sum_p,
        divisible_by_p_times_p_part=tuple(v % bound == 0 for v in values),
        divisible_by_degree_sum=tuple(v % degree_sum == 0 for v in values),
        divisible_by_degree_sum_p_part=tuple(v % degree_sum_p == 0 for v in values),
    )
