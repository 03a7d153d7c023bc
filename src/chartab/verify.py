"""One-shot verification suite over the group catalog.

Runs every exact check the package promises, in a fixed order, and reports
one result line per (group, check).  Used by the `verify` CLI subcommand; the
pytest suite covers the same ground with finer-grained assertions.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import divisors, prime_factors
from .blocks import (
    alt_normalizer_report,
    is_p_element,
    principal_block_members,
    strunkov_analog_gamma,
)
from .classfuncs import delta, gamma
from .cyclo import Cyclotomic, as_rational_integer
from .duality import (
    SizeSpectrum,
    defect_zero_by_characters,
    delta_sequence,
    gamma_sequence,
    recover_class_sizes,
    recover_real_class_sizes,
)
from .errors import TableIntegrityError
from .groups import (
    _COMMUTATOR_CAPS,
    ConjugacyData,
    Group,
    class_matrix,
    conjugacy_data,
    count_commutator_solutions,
    enumerate_group,
    load_catalog,
)
from .reduction import build_reduction, candidate_roots
from .tables import CharacterTable, compute_table, dixon_prime


class CheckResult(NamedTuple):
    group: str
    check: str
    ok: bool
    detail: str = ""

    def as_dict(self) -> dict:
        out = {"group": self.group, "check": self.check, "ok": self.ok}
        if self.detail:
            out["detail"] = self.detail
        return out


def _check_class_structure(group: Group, cd: ConjugacyData, table: CharacterTable) -> str:
    sizes = cd.data.sizes
    for i in range(cd.k):
        for j, coeffs in enumerate(class_matrix(cd, i)):
            lhs = sum(a * s for a, s in zip(coeffs, sizes))
            if lhs != sizes[i] * sizes[j]:
                return f"class multiplication counting identity fails at ({i}, {j})"
    return ""


def _check_determinism(group: Group, cd: ConjugacyData, table: CharacterTable) -> str:
    spec = load_catalog()[group.name]
    again = enumerate_group(spec)
    if again.elements != group.elements:
        return "element ordering changed between runs"
    cd2 = conjugacy_data(again)
    if (cd2.class_of, cd2.data) != (cd.class_of, cd.data):
        return "class data changed between runs"
    return ""


def _check_table(group: Group, cd: ConjugacyData, table: CharacterTable) -> str:
    # compute_table has already validated the table; what is left to check is
    # that a different Dixon prime gives the same table
    q1 = dixon_prime(group.exponent, group.order)
    q2 = dixon_prime(group.exponent, group.order, above=q1)
    if compute_table(group, cd, prime=q2) != table:
        return f"table changed between primes {q1} and {q2}"
    return ""


def _check_identities(group: Group, cd: ConjugacyData, table: CharacterTable) -> str:
    # an orthonormal integral table need not consist of characters: a negative
    # multiplicity is the one identity failure validate_table lets through, and
    # gamma and delta raise TableIntegrityError on it
    for i, row in enumerate(table.rows):
        for n in range(1, 6):
            try:
                gamma(n, row)
                delta(n, row)
            except TableIntegrityError:
                return f"negative multiplicity for row {i} at n={n}"
    return ""


def _check_recovery(group: Group, cd: ConjugacyData, table: CharacterTable) -> str:
    d = len(divisors(group.order))
    seq = gamma_sequence(table, d + 3)
    actual = SizeSpectrum.from_sizes(group.order, cd.data.sizes)
    for length in range(d, d + 4):
        if recover_class_sizes(seq[:length], group.order) != actual:
            return f"class-size recovery failed with {length} terms"
    dseq = delta_sequence(table, d + 3)
    real_actual = SizeSpectrum.from_sizes(
        group.order, [s for s, r in zip(cd.data.sizes, cd.data.real_flags) if r]
    )
    for length in range(d, d + 4):
        if recover_real_class_sizes(dseq[:length], group.order) != real_actual:
            return f"real class-size recovery failed with {length} terms"
    return ""


def _check_defect(group: Group, cd: ConjugacyData, table: CharacterTable) -> str:
    for p in prime_factors(group.order):
        for n in (2, 3):
            for real in (False, True):
                report = defect_zero_by_characters(table, p, n, real)
                if report.character_side != report.direct_side:
                    return f"biconditional fails for p={p}, n={n}, real={real}"
    return ""


def _check_congruences(group: Group, cd: ConjugacyData, table: CharacterTable) -> str:
    for p in prime_factors(group.order):
        rmap = build_reduction(group.exponent, p)
        for i in range(cd.k):
            is_p_element(i, p, table, rmap)  # raises on criterion disagreement
        block = principal_block_members(table, p)
        if not block.members or not block.member_flags[0]:
            return f"principal block broken for p={p}"
        if rmap.m <= 12:
            for eta in candidate_roots(group.exponent, p):
                variant = rmap._replace(eta=eta)
                pel = [is_p_element(i, p, table, variant) for i in range(cd.k)]
                if pel != [is_p_element(i, p, table, rmap) for i in range(cd.k)]:
                    return f"p-element verdicts depend on the root choice for p={p}"
                if (
                    principal_block_members(table, p, variant).member_flags
                    != block.member_flags
                ):
                    return f"block membership depends on the root choice for p={p}"
    return ""


def _check_commutator_oracle(group: Group, cd: ConjugacyData, table: CharacterTable) -> str:
    for n, cap in _COMMUTATOR_CAPS.items():
        if group.order > cap:
            continue
        for c, rep in enumerate(cd.representatives):
            brute = count_commutator_solutions(group, group.elements[rep], n)
            # |G|^(2n-1) sum_chi chi(g) / chi(1)^(2n-1), with |G| / chi(1) an int
            total = Cyclotomic.zero(group.exponent)
            for row in table.rows:
                total = total + row.values[c] * (group.order // row.degree) ** (2 * n - 1)
            formula = as_rational_integer(total)
            if brute != formula:
                return f"commutator count mismatch at class {c}, n={n}"
    return ""


def _check_counterexample(group: Group, cd: ConjugacyData, table: CharacterTable) -> str:
    # the S3 / p=3 block-sum computation; exploratory elsewhere
    if group.name != "S3":
        return ""
    values = [strunkov_analog_gamma(table, 3, row) for row in table.rows]
    if sorted(values) != [153, 153, 279]:
        return f"block-sum values changed: {values}"
    if any(v % 9 for v in values):
        return "block-sum values are not all divisible by 9"
    alt_normalizer_report(table, 3)  # must at least build
    return ""


_CHECKS = (
    ("class-structure", _check_class_structure),
    ("determinism", _check_determinism),
    ("table-integrity", _check_table),
    ("identities", _check_identities),
    ("size-recovery", _check_recovery),
    ("defect-biconditional", _check_defect),
    ("mod-M-congruences", _check_congruences),
    ("commutator-oracle", _check_commutator_oracle),
    ("block-counterexample", _check_counterexample),
)


def verify_catalog(names=None) -> list[CheckResult]:
    """Run every check over the named groups (default: the whole catalog)."""
    specs = load_catalog()
    if names is None:
        names = list(specs)
    results = []
    for name in names:
        group = enumerate_group(specs[name])
        cd = conjugacy_data(group)
        table = compute_table(group, cd)
        for check_name, fn in _CHECKS:
            try:
                detail = fn(group, cd, table)
            except Exception as exc:  # a raising check is a failing check
                detail = f"{type(exc).__name__}: {exc}"
            results.append(
                CheckResult(group=name, check=check_name, ok=not detail, detail=detail)
            )
    return results
