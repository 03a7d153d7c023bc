"""One-shot verification suite over the group catalog.

Runs every exact check the package promises, in a fixed order, and reports
one result line per (group, check).  Used by the `verify` CLI subcommand; the
pytest suite covers the same ground with finer-grained assertions.
"""

from __future__ import annotations

from collections import namedtuple

from .arith import prime_factors
from .blocks import alt_normalizer_report, p_element_flags, principal_block_members
from .classfuncs import _multiplicities
from .cyclo import Cyclotomic, conj_weighted_sum
from .duality import EXTRA_TERMS, defect_zero_by_characters, recover_from_table
from .errors import InconsistentSequenceError, UnknownGroupError
from .groups import (
    ConjugacyData,
    GroupSpec,
    class_matrix,
    commutator_counts,
    conjugacy_data,
    enumerate_group,
    load_catalog,
)
from .dixon import _build_table
from .reduction import build_reduction
from .tables import CharacterTable, compute_table, dixon_prime


class CheckResult(namedtuple("CheckResult", "group check ok detail", defaults=("",))):
    """One check of the suite on one group; `detail` says why it failed."""

    __slots__ = ()


def _check_class_structure(spec: GroupSpec, cd: ConjugacyData, table: CharacterTable) -> str:
    sizes = cd.data.sizes
    for i in range(cd.k):
        for j, coeffs in enumerate(class_matrix(cd, i)):
            lhs = sum(a * s for a, s in zip(coeffs, sizes))
            if lhs != sizes[i] * sizes[j]:
                return f"class multiplication counting identity fails at ({i}, {j})"
    return ""


def _check_determinism(spec: GroupSpec, cd: ConjugacyData, table: CharacterTable) -> str:
    # the spec itself, not a catalog lookup, so spec-file groups are checked too
    again = enumerate_group(spec)
    if again.elements != cd.group.elements:
        return "element ordering changed between runs"
    cd2 = conjugacy_data(again)
    if (cd2.class_of, cd2.data) != (cd.class_of, cd.data):
        return "class data changed between runs"
    return ""


def _check_table(spec: GroupSpec, cd: ConjugacyData, table: CharacterTable) -> str:
    # the set-up built and validated the table at the least Dixon prime q1;
    # what is left to check is that the next one, q2, gives the same rows.
    # They are compared unvalidated: equal to a valid table's rows they are
    # valid, else the row fails
    data = table.data
    q1 = dixon_prime(data.exponent, data.order)
    q2 = dixon_prime(data.exponent, data.order, above=q1)
    if _build_table(cd, q2) != table.rows:
        return f"table changed between primes {q1} and {q2}"
    return ""


def _check_identities(spec: GroupSpec, cd: ConjugacyData, table: CharacterTable) -> str:
    # an orthonormal integral table need not consist of characters: a negative
    # multiplicity is the one identity failure validate_table lets through
    ns = range(1, 6)
    for i in range(len(table.rows)):
        gammas = _multiplicities(table, i, ns, False)
        deltas = _multiplicities(table, i, ns, True)
        for n in ns:
            if next(gammas) < 0 or next(deltas) < 0:
                return f"negative multiplicity for row {i} at n={n}"
    return ""


def _check_recovery(spec: GroupSpec, cd: ConjugacyData, table: CharacterTable) -> str:
    # the recovery solves on the first d = d(|G|) terms and only checks the
    # surplus, so one success with the whole surplus means the same spectrum
    # with any shorter one; on failure each length from d up is recovered
    # again, to name the first
    for label, real in (("class-size", False), ("real class-size", True)):
        try:
            _, recovered, actual = recover_from_table(table, real)
            if recovered == actual:
                continue
        except InconsistentSequenceError:
            pass
        for extra_terms in range(EXTRA_TERMS + 1):
            seq, recovered, actual = recover_from_table(table, real, extra_terms)
            if recovered != actual:
                return f"{label} recovery failed with {len(seq)} terms"
    return ""


def _check_defect(spec: GroupSpec, cd: ConjugacyData, table: CharacterTable) -> str:
    """The defect-0 biconditional for every p | |G| and every n >= 2.

    For n >= 2, [phi, pi^n] = sum_K c_K^(n-1) phi(g_K) over the classes K.
    The terms with p | c_K lie in pZ[eps]; for the others c_K^(p-1) = 1 mod p
    (Fermat), so the sums at n and n + p - 1 differ by an element of
    pZ[eps] meet Z = pZ.  The residues mod p are thus periodic in n >= 2 with
    period dividing p - 1, and n = 2, ..., p cover every n >= 2; the same
    holds for [phi, psi^n] over the real classes.
    """
    for p in prime_factors(table.data.order):
        for n in range(2, p + 1):
            for real in (False, True):
                report = defect_zero_by_characters(table, p, n, real)
                if report.character_side != report.direct_side:
                    return f"biconditional fails for p={p}, n={n}, real={real}"
    return ""


def _check_congruences(spec: GroupSpec, cd: ConjugacyData, table: CharacterTable) -> str:
    for p in prime_factors(table.data.order):
        rmap = build_reduction(table.data.exponent, p)
        # p_element_flags raises on criterion disagreement, and
        # principal_block_members if the trivial character leaves the block
        p_element_flags(table, rmap)
        principal_block_members(table, rmap)
    return ""


def _check_commutator_oracle(spec: GroupSpec, cd: ConjugacyData, table: CharacterTable) -> str:
    # N_n(g) = sum_chi chi(g) (|G| / chi(1))^(2n-1), one ring sum per column
    order, e = table.data.order, table.data.exponent
    ones = [Cyclotomic(e, [1])] * len(table.rows)
    columns = list(zip(*(row.values for row in table.rows)))
    for n, counts in enumerate(commutator_counts(cd, 2), start=1):
        weights = [(order // row.degree) ** (2 * n - 1) for row in table.rows]
        for c, (count, column) in enumerate(zip(counts, columns)):
            if conj_weighted_sum(e, weights, column, ones) != count:
                return f"commutator count mismatch at class {c}, n={n}"
    return ""


def _check_counterexample(spec: GroupSpec, cd: ConjugacyData, table: CharacterTable) -> str:
    # the S3 / p=3 block-sum computation; exploratory elsewhere
    if table.group_name != "S3":
        return ""
    report = alt_normalizer_report(table, build_reduction(table.data.exponent, 3))
    values = list(report.gamma_values)
    if sorted(values) != [153, 153, 279]:
        return f"block-sum values changed: {values}"
    return ""


# Each check gets the spec the group was enumerated from, its classes (which
# hold the group) and its table, and returns "" or what failed.
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
        if name not in specs:
            raise UnknownGroupError(name)
        spec = specs[name]
        try:
            cd = conjugacy_data(enumerate_group(spec))
            table = compute_table(cd, dixon_prime(cd.data.exponent, cd.data.order))
            failed = ""
        except Exception as exc:  # a group that cannot be set up fails every check
            failed = f"{type(exc).__name__}: {exc}"
        for check_name, fn in _CHECKS:
            try:
                detail = failed or fn(spec, cd, table)
            except Exception as exc:  # a raising check is a failing check
                detail = f"{type(exc).__name__}: {exc}"
            results.append(
                CheckResult(group=name, check=check_name, ok=not detail, detail=detail)
            )
    return results
