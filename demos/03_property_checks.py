#!/usr/bin/env python3
# Checking invariance properties of rank operators by brute force.
#
# A check quantifies over every weak order up to a size bound and either
# confirms the property or returns the first counterexample it meets. The
# counterexample is a small, replayable scenario: the base order, the
# transformed order, and the position that moved.

from rankops import REGISTRY, Axiom, check, replay_witness

# The dense rank survives cloning: positions describe tiers, and cloning
# creates no tier.
report = check(REGISTRY["dense"], Axiom.DUPLICATION, 5)
print(f"dense / duplication:   {report.verdict.value}  ({report.cases_checked} cases)")

# The competition rank does not: a clone pushes everyone below it down.
report = check(REGISTRY["standard"], Axiom.DUPLICATION, 5)
print(f"standard / duplication: {report.verdict.value} ({report.cases_checked} cases)")
witness = report.witness
print("  base:       ", witness.base)
print("  after clone:", witness.transformed)
print(f"  {witness.subject} moved {witness.before} -> {witness.after}")
print("  replayable: ", replay_witness(REGISTRY["standard"], Axiom.DUPLICATION, witness))

# Vertical moves tell the same story.
print()
report = check(REGISTRY["fractional"], Axiom.UD_INDEPENDENCY, 4)
print(f"fractional / ud-independency: {report.verdict.value}")
witness = report.witness
print("  base:      ", witness.base)
print("  after move:", witness.transformed)
print(f"  bystander {witness.subject} moved {witness.before} -> {witness.after}")

# Rescaling the dense rank by the tier count keeps cloning harmless but
# breaks truncation: deleting the bottom tier changes the divisor.
print()
report = check(REGISTRY["dense-over-tiercount"], Axiom.TRUNCATION, 3)
witness = report.witness
print(f"dense-over-tiercount / truncation: {report.verdict.value}")
print(f"  {witness.subject} in {witness.base} moved {witness.before} -> {witness.after}")
