"""Congruences of character values modulo the maximal ideals over p.

Reducing character values mod a maximal ideal M over p gives two criteria: a
class consists of p-elements iff chi(g) = chi(1) mod M for every irreducible
chi, and chi lies in the principal p-block iff its central character values
|K| chi(g_K) / chi(1) are congruent to |K| mod M on every class.  Neither
depends on M.  The Galois group of Q(eps_e) permutes the irreducible
characters and acts transitively on the ideals over p, so the p-element
criterion, quantified over every chi, holds mod one M iff it holds mod every
M.  The principal block is the same mod every M, because Osima's linkage of
blocks by the p-regular inner products sum chi(x) psi(x^-1) is rational
(Navarro, Characters and Blocks of Finite Groups, ch. 3).  So both criteria
are decided mod the radical of p, the intersection of all M, by the
`ReductionMap` (see `reduction`), which every congruence here takes as its
one input that picks p.  The map is a ring homomorphism, so both compare
images and form no differences; a failure witness is a (row, class) pair
whose images differ, one that fails mod some M over p.  The central
characters do not depend on p and are computed once per table.

On top of the block structure sits a Strunkov-style counting quantity
gamma(psi): the multiplicity of psi in pi^3 times the sum of the principal
block characters, which expands to the full triple sum over |chi1 chi2|^2
|chi3|^2 phi because the squared absolute values of all n-fold character
products add up to pi^n pointwise.  `alt_normalizer_report` gives these
values beside three candidate normalizers and records no verdict:
`chartab.cli`, which alone renders this module's reports, works out which
normalizer divides which value.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .arith import p_part
from .cyclo import Cyclotomic, as_rational_integer, conj_weighted_sum
from .errors import TableIntegrityError
from .reduction import ReductionMap, reduce_mod_M
from .tables import CharacterTable


def p_element_flags(table: CharacterTable, rmap: ReductionMap) -> tuple[bool, ...]:
    """Whether each class consists of p-elements, by the congruence criterion.

    Class K passes when chi(g_K) = chi(1) mod M for every row chi.  The map is
    a ring homomorphism, so the images of chi(g_K) and chi(1) are compared
    and no difference is formed.  Each verdict is checked against the direct
    test (the representative's order is a power of p); disagreement would
    falsify the criterion and raises immediately.
    """
    p = rmap.p
    degrees = [reduce_mod_M(row.values[0], rmap) for row in table.rows]
    flags = []
    for i, order in enumerate(table.data.rep_orders):
        congruent = all(
            reduce_mod_M(row.values[i], rmap) == degree
            for row, degree in zip(table.rows, degrees)
        )
        if congruent != (p_part(order, p) == order):
            raise TableIntegrityError(
                f"congruence and order tests disagree on class {i} for p={p}"
            )
        flags.append(congruent)
    return tuple(flags)


def central_character(table: CharacterTable, r: int, class_index: int) -> Cyclotomic:
    """|K| chi(g_K) / chi(1) for chi row r of the table; NonIntegralValueError
    unless chi(1) divides |K| chi(g_K)."""
    chi = table.rows[r]
    return chi.values[class_index] * table.data.sizes[class_index] / chi.degree


@lru_cache(maxsize=32)  # bounded; verify over the catalog holds 13 entries
def _central_characters(table: CharacterTable) -> tuple[tuple[Cyclotomic, ...], ...]:
    """central_character(table, r, K) for every row r (outer) and class K (inner).

    They do not depend on p, so each table computes them once for every map
    it is reduced under.
    """
    return tuple(
        tuple(central_character(table, r, i) for i in range(table.data.k))
        for r in range(len(table.rows))
    )


class BlockReport(namedtuple("BlockReport", "p members member_flags failures")):
    """Principal-block membership verdicts for every irreducible character.

    `members` holds the row indices in the principal block, `member_flags`
    one bool per row, and `failures` the (row, class) congruence witnesses.
    """

    __slots__ = ()


def principal_block_members(table: CharacterTable, rmap: ReductionMap) -> BlockReport:
    """Characters whose central character is congruent to the class sizes mod M.

    Membership is the same mod every M over p; `failures` lists the (row,
    class) pairs that fail mod some M.
    """
    p = rmap.p
    sizes = [reduce_mod_M(Cyclotomic(rmap.e, [size]), rmap) for size in table.data.sizes]
    flags = []
    failures = []
    for r, central in enumerate(_central_characters(table)):
        member = True
        for i, (value, size) in enumerate(zip(central, sizes)):
            if reduce_mod_M(value, rmap) != size:
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


def strunkov_analog_gamma(table: CharacterTable, psi_row: int, block: tuple[int, ...]) -> int:
    """Multiplicity of psi, row psi_row of the table, in pi^3 times the sum of
    the block characters.

    This equals the sum over chi1, chi2, chi3 and phi in the block of
    [psi, |chi1 chi2|^2 |chi3|^2 phi], because the inner sums over chi1, chi2
    and chi3 factor pointwise into pi^3.  With B(g) the sum of the block
    characters at g and |K| c_K = |G|, it is the sum over classes of
    c_K^2 B(g_K) conj(psi(g_K)), a rational integer, hence its own conjugate.
    """
    if not block:
        raise ValueError("the character block must not be empty")
    data = table.data
    columns = zip(*(table.rows[r].values for r in block))
    block_sum = [sum(col[1:], col[0]) for col in columns]
    weights = [c * c for c in data.centralizer_orders]
    psi = table.rows[psi_row].values
    return as_rational_integer(conj_weighted_sum(data.exponent, weights, block_sum, psi))


class AltNormalizerReport(
    namedtuple(
        "AltNormalizerReport",
        "p block gamma_values p_times_order_p_part block_degree_sum"
        " block_degree_sum_p_part",
    )
):
    """gamma(psi) for every irreducible psi beside three candidate normalizers.

    Purely exploratory: which normalizers divide which values is read off
    `gamma_values`, and the report asserts nothing about it.
    `block_degree_sum` is the sum of phi(1)^2 over the block.
    """

    __slots__ = ()


def alt_normalizer_report(table: CharacterTable, rmap: ReductionMap) -> AltNormalizerReport:
    """gamma(psi) for every irreducible psi, with the principal block mod M,
    against three candidate normalizers."""
    p = rmap.p
    block = principal_block_members(table, rmap).members
    values = tuple(strunkov_analog_gamma(table, r, block) for r in range(len(table.rows)))
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
    )
