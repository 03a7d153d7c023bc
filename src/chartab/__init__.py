"""chartab: exact character tables of small permutation groups.

The package computes irreducible character tables over cyclotomic integers
(no floating point anywhere), recovers conjugacy class sizes from the
multiplicities of the trivial character in powers of the conjugation
character, detects p-defect-0 classes through residues of those
multiplicities, and checks congruence criteria for p-elements and the
principal p-block modulo a maximal ideal over p.
"""

from .blocks import (
    AltNormalizerReport,
    BlockReport,
    alt_normalizer_report,
    central_character,
    is_p_element,
    principal_block_members,
    strunkov_analog_gamma,
)
from .classfuncs import (
    ClassFunction,
    all_ones,
    delta,
    gamma,
    inner,
    pi_character,
    power,
    psi_character,
)
from .cyclo import (
    Cyclotomic,
    Rational,
    as_rational_integer,
    cyclotomic_polynomial,
    root_power,
)
from .duality import (
    DefectReport,
    SizeSpectrum,
    defect_zero_by_characters,
    defect_zero_direct,
    delta_sequence,
    gamma_sequence,
    recover_class_sizes,
    recover_real_class_sizes,
)
from .errors import (
    CapExceededError,
    ChartabError,
    ClassDataMismatchError,
    CycleSyntaxError,
    EigensplitError,
    FormatError,
    InconsistentSequenceError,
    NonIntegralValueError,
    OrderMismatchError,
    TableIntegrityError,
    UnknownGroupError,
)
from .finite_field import ExtensionFieldElement, irreducible_polynomial
from .groups import (
    ClassData,
    ConjugacyData,
    Group,
    GroupSpec,
    Permutation,
    catalog_group,
    class_matrix,
    conjugacy_data,
    count_commutator_solutions,
    enumerate_group,
    load_catalog,
    parse_cycles,
    real_classes,
)
from .reduction import ReductionMap, build_reduction, candidate_roots, reduce_mod_M
from .tables import (
    CharacterTable,
    compute_table,
    dixon_prime,
    load_table,
    save_table,
    verify_orthogonality,
)
from .verify import CheckResult, verify_catalog

__version__ = "0.1.0"
