from __future__ import annotations

import rankops

PUBLIC_NAMES = {
    # orders
    "AltId", "WeakOrder", "TierSignature", "OrderError", "EmptyOrder", "EmptyTier",
    "DuplicateAlternative", "NotComplete", "NotTransitive", "UnknownAlternative",
    "NotASubset", "NotABijection", "SingleTier", "CloneAlreadyPresent",
    "SourceTierWouldVanish", "TargetTierAbsent", "EmptyGround", "label_key",
    "from_tiers", "from_pairs", "enumerate_weak_orders", "enumerate_linear_orders",
    "ordered_bell", "weak_order_to_json", "weak_order_from_json",
    # operators
    "Position", "PositionAssignment", "PositionOperator", "Domain", "NotLinear",
    "NegativeCoefficient", "UnknownOperator", "sequential", "dense", "dense_via_chain",
    "standard", "modified", "fractional", "quotient", "affine", "plus_n", "list_index",
    "dense_over_tier_count", "make_affine_operator", "get_operator", "REGISTRY",
    "OPERATOR_NAMES",
    # axioms
    "Axiom", "Verdict", "Witness", "AxiomReport", "ExpectedCell", "EXPECTED_MATRIX",
    "Implication", "IMPLICATIONS", "engine_ground", "check_equality", "check_neutrality",
    "check_sequentiality", "check_truncation", "check_duplication",
    "check_ud_independency", "check_monotonicity", "run_axiom_reports", "replay_witness",
    "build_verification_document",
    "__version__",
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 67
    assert len(rankops.__all__) == len(set(rankops.__all__))
    assert set(rankops.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(rankops, name), name

