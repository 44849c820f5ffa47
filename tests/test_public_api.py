"""The public surface: qeclab.__all__ and each module's __all__, pinned.

A name that disappears or appears fails here, so a change to the API is a
deliberate edit of these lists, recorded with the change that makes it.
"""

import importlib

import pytest

PUBLIC = {
    "qeclab": [
        "ChannelError", "Cocycle", "CodeError", "CodeReport", "CodeSpace", "ErrorModel",
        "FiniteGroup", "GroupValidationError", "KLResult", "KrausChannel", "ModelError",
        "Phase", "PhaseFunction", "ProjectiveErrorModel", "ProjectiveRep",
        "SearchError", "Subgroup", "build_recovery", "channel_from_model", "classify",
        "clifford_code", "coboundary", "code_dimension_formula", "conjugate_rep",
        "cyclic", "d4_character_table", "d4_expected_table", "detectable_set",
        "dihedral", "dihedral_xp_model", "direct_product", "em_from_pem",
        "enumerate_weak_stabilizer_codes", "existence_phase", "family_c2_x_d2n",
        "family_odd", "find_trivializing_phase", "frobenius_dims", "gen_pauli_model",
        "group_from_mul_table", "hom_space", "induce", "inertia_group",
        "is_partitioning", "kl_correctable", "kl_detectable", "logical_group",
        "mackey_character_defect", "make_rep", "max_ambient_dim", "max_group_order",
        "pem_from_em", "perm_product_model", "permutation_semidirect", "product_code",
        "product_model", "q3_probe", "rep_from_phase_function", "stabilizer_code",
        "stabilizer_group", "stabilizer_to_clifford", "symmetric", "verify_recovery",
        "weak_stabilizer_code",
    ],
    "qeclab.channels": [
        "ChannelError", "KLResult", "KrausChannel", "build_recovery",
        "channel_from_model", "kl_correctable", "kl_detectable", "verify_recovery",
    ],
    "qeclab.cocycles": [
        "Cocycle", "Phase", "PhaseFunction", "PhaseSnapError", "coboundary",
        "find_trivializing_phase", "snap_phase",
    ],
    "qeclab.codes": [
        "CodeError", "CodeReport", "CodeSpace", "classify", "clifford_code",
        "code_dimension_formula", "detectable_set", "existence_phase",
        "is_partitioning", "logical_group", "product_code", "stabilizer_code",
        "stabilizer_group", "stabilizer_to_clifford", "weak_stabilizer_code",
    ],
    "qeclab.groups": [
        "FiniteGroup", "Subgroup", "cyclic", "dihedral", "direct_product",
        "group_from_mul_table", "inversion_semidirect", "max_group_order",
        "permutation_semidirect", "symmetric",
    ],
    "qeclab.models": [
        "D4_COLUMN_NAMES", "ErrorModel", "ModelError", "ProjectiveErrorModel",
        "clock_shift", "d4_character_table", "d4_expected_table", "dihedral_xp_model",
        "em_from_pem", "family_c2_x_d2n", "family_odd", "gen_pauli_model",
        "max_ambient_dim", "pem_from_em", "perm_product_model", "product_model", "zeta",
    ],
    "qeclab.projreps": [
        "Character", "MakeRepError", "ProjectiveRep", "character", "conjugate_rep",
        "frobenius_dims", "hom_space", "induce", "inertia_group", "inner_product",
        "is_irreducible", "is_projectively_faithful", "mackey_character_defect",
        "make_rep", "rep_from_phase_function", "restrict", "tensor",
    ],
    "qeclab.search": [
        "SearchError", "enumerate_weak_stabilizer_codes", "q3_probe",
    ],
}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_are_pinned(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert sorted(mod.__all__) == PUBLIC[module]
    assert all(hasattr(mod, name) for name in mod.__all__)
