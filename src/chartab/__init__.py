"""chartab: exact character tables of small permutation groups.

The package computes irreducible character tables over cyclotomic integers
(no floating point anywhere), recovers conjugacy class sizes from the
multiplicities of the trivial character in powers of the conjugation
character, detects p-defect-0 classes through residues of those
multiplicities, and checks congruence criteria for p-elements and the
principal p-block modulo a maximal ideal over p.

The exported names (`__all__`) are imported from their modules on first use
(PEP 562), so `import chartab` loads no submodule and a command pays only
for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "blocks": (
        "AltNormalizerReport", "BlockReport", "alt_normalizer_report",
        "central_character", "is_p_element", "principal_block_members",
        "strunkov_analog_gamma",
    ),
    "classfuncs": (
        "ClassFunction", "all_ones", "delta", "gamma", "inner", "pi_character",
        "power", "psi_character",
    ),
    "cyclo": ("Cyclotomic", "as_rational_integer", "cyclotomic_polynomial", "root_power"),
    "duality": (
        "DefectReport", "SizeSpectrum", "defect_zero_by_characters",
        "defect_zero_direct", "delta_sequence", "gamma_sequence",
        "recover_class_sizes", "recover_real_class_sizes",
    ),
    "errors": (
        "CapExceededError", "ChartabError", "ClassDataMismatchError",
        "CycleSyntaxError", "EigensplitError", "FormatError",
        "InconsistentSequenceError", "NonIntegralValueError", "OrderMismatchError",
        "TableIntegrityError", "UnknownGroupError",
    ),
    "finite_field": ("ExtensionFieldElement", "irreducible_polynomial"),
    "groups": (
        "ClassData", "ConjugacyData", "Group", "GroupSpec", "catalog_group",
        "class_matrix", "conjugacy_data", "count_commutator_solutions",
        "cycle_string", "enumerate_group", "load_catalog", "parse_cycles",
        "real_classes",
    ),
    "reduction": ("ReductionMap", "build_reduction", "candidate_roots", "reduce_mod_M"),
    "tables": (
        "CharacterTable", "compute_table", "dixon_prime", "load_table",
        "save_table", "verify_orthogonality",
    ),
    "verify": ("CheckResult", "verify_catalog"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
