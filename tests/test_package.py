from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest
import support

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


def test_star_import_binds_exactly_the_public_names():
    namespace: dict[str, object] = {}
    exec("from rankops import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def test_engine_names_are_the_engine_modules_own():
    assert rankops.check is rankops.axioms.check
    assert rankops.EXPECTED_MATRIX is rankops.axioms.EXPECTED_MATRIX
    with pytest.raises(AttributeError, match="module 'rankops' has no attribute 'nope'"):
        getattr(rankops, "nope")


def test_engine_module_is_the_first_attribute_touched():
    """In a fresh interpreter, where ``import rankops`` has not loaded the
    engine, ``rankops.axioms`` loads it and is that module."""
    script = (
        "import sys, rankops\n"
        "assert 'rankops.axioms' not in sys.modules\n"
        "assert rankops.axioms is sys.modules['rankops.axioms']\n"
        "assert rankops.axioms.__name__ == 'rankops.axioms'\n"
    )
    result = support.run([*support.PYTHON, "-c", script])
    assert result.returncode == 0, result.stderr


def _loads_engine(args: list[str], stdin: str = "") -> bool:
    """Whether ``python -m rankops args`` imports ``rankops.axioms``, as
    ``-X importtime`` lists the modules it imports."""
    result = support.run([*support.PYTHON, "-X", "importtime", "-m", "rankops", *args], input=stdin)
    assert result.returncode == 0, result.stderr
    assert re.search(r"\|\s*rankops\.cli$", result.stderr, re.MULTILINE), result.stderr
    return bool(re.search(r"\|\s*rankops\.axioms$", result.stderr, re.MULTILINE))


@pytest.mark.parametrize(
    "args, stdin",
    [
        (["rank", "--method", "dense"], "a,1\nb,2\nc,2\n"),
        (["rank", "--method", "fractional", "--input-format", "json-tiers"], '{"tiers": [["a"], ["b", "c"]]}'),
        (["enumerate", "3", "--count-only"], ""),
        (["enumerate", "3"], ""),
    ],
    ids=["rank-csv", "rank-json-tiers", "enumerate-count", "enumerate-list"],
)
def test_commands_that_need_no_engine_do_not_load_it(args, stdin):
    assert not _loads_engine(args, stdin)


def test_verify_loads_the_engine():
    assert _loads_engine(["verify", "--max-n", "3"])


def test_importing_the_package_does_not_load_the_engine():
    result = support.run([*support.PYTHON, "-c", "import sys, rankops; print('rankops.axioms' in sys.modules)"])
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


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
