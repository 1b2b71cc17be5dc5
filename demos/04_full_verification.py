#!/usr/bin/env python3
# The full verification pass: every registered operator against every
# property, plus the implication instances between properties.
#
# The dense rank is the only registered operator passing all seven checks.
# Each foil breaks a precisely chosen subset, so no other registered
# operator passes {sequentiality, duplication} or {sequentiality,
# truncation, ud-independency}. The paper proves that each bundle singles
# out the dense rank among all position operators; that is not checked here.

from rankops import build_verification_document

MAX_N = 4

# One engine run: the document holds both the matrix and the implications.
document, ok = build_verification_document(MAX_N)
axioms = document["axioms"]
by_operator: dict[str, dict[str, str]] = {}
for cell in document["matrix"]:
    by_operator.setdefault(cell["operator"], {})[cell["axiom"]] = cell["observed"]

short = {"pass": "yes", "fail": "NO", "not-applicable": "n/a"}
width = max(len(name) for name in by_operator)
header = " ".join(f"{axiom[:6]:>6}" for axiom in axioms)
print(f"{'operator':<{width}} {header}")
for name, verdicts in by_operator.items():
    row = " ".join(f"{short[verdicts[axiom]]:>6}" for axiom in axioms)
    print(f"{name:<{width}} {row}")

print()
statuses = [row["status"] for row in document["implications"]]
print(
    f"implication instances at n <= {MAX_N}: "
    f"{statuses.count('consistent')} consistent, {statuses.count('vacuous')} vacuous, "
    f"{statuses.count('violated')} violated"
)
print(f"matrix fully reproduced: {'yes' if document['matrixMatchesExpected'] else 'NO'}")
raise SystemExit(0 if ok else 1)
