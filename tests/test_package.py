from __future__ import annotations

import ast
from pathlib import Path

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
    "Implication", "IMPLICATIONS", "engine_ground", "check", "run_axiom_reports",
    "replay_witness", "build_verification_document",
    "__version__",
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 61
    assert len(rankops.__all__) == len(set(rankops.__all__))
    assert set(rankops.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(rankops, name), name



def test_child_processes_are_spawned_only_through_support():
    """A test that builds its own command line or environment would bypass
    ``support.run``'s warnings as errors and timeout.  The two names are
    spelled in halves so that this file does not match itself."""
    forbidden = ("sys" ".executable", "PYTHON" "PATH")
    tests = Path(__file__).resolve().parent
    offenders = [
        (path.name, name)
        for path in sorted(tests.glob("*.py"))
        if path.name != "support.py"
        for name in forbidden
        if name in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_no_module_imports_a_private_name_from_a_sibling():
    """A ``_``-prefixed name is its own module's business; a sibling that
    needs it should get a public name instead."""
    package = Path(rankops.__file__).resolve().parent
    offenders = [
        (path.name, node.module, alias.name)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("rankops"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert offenders == []
