"""Run the benchmark twice over and compare the two sets against its bounds.

Usage, from the root of a checkout:

    python3 bench/steadiness.py --first-seed 1 --out steadiness.json

It runs two sets, one after the other.  Each set runs every workload ten
times with ``--trace 0``, each run with its own seed, counting up from
``--first-seed``, workloads interleaved so that a slow spell of the host
hits them alike.  For every end-to-end metric of every workload it prints
each set's median and quartiles and the spread, the distance between the
quartiles as a share of the median.  A set passes when every spread stays
within the metric's bound in ``BENCHMARK.json``; the two sets agree when
no median differs from the first set's, either way, by more than the
bound, every output is correct and every run fails the same share of its
operations.  The exit code is 0 when everything passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETS = 2
RUNS = 10


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-500:]}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first;
    below 0 when it is better."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write every result here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    seed = args.first_seed
    for set_index in range(SETS):
        for workload in workloads:
            results[workload].append([])
        for _ in range(RUNS):
            for workload in workloads:
                result = run_once(spec["command"], workload, seed, spec["run_seconds"])
                results[workload][set_index].append({"seed": seed, **result})
                print(f"set {set_index + 1} {workload} seed {seed}: {json.dumps(result)}", flush=True)
            seed += 1

    ok = True
    summary: dict[str, dict] = {}
    print(f"\n{'workload':14} {'metric':12} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} bound")
    for workload in workloads:
        summary[workload] = {}
        for name, metric in metrics.items():
            sets = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in results[workload]]
            for index, stats in enumerate(sets, start=1):
                flag = ""
                if stats["spread"] > metric["bound"]:
                    flag, ok = "  SPREAD ABOVE BOUND", False
                elif stats["spread"] > metric["bound"] / 3:
                    flag = "  spread above a third of the bound"
                print(
                    f"{workload:14} {name:12} {index:>3} {stats['median']:>10.4f} {stats['q1']:>10.4f}"
                    f" {stats['q3']:>10.4f} {stats['spread']:>7.2%} {metric['bound']:.2f}{flag}"
                )
            change = worse_by(sets[0]["median"], sets[1]["median"], metric["better"])
            flag = ""
            if abs(change) > metric["bound"]:
                flag, ok = "  BEYOND BOUND", False
            print(f"{workload:14} {name:12} set 2 median worse than set 1 by {change:+.2%}{flag}")
            summary[workload][name] = {"sets": sets, "worse_by": change}
        shares = {Fraction(r["failed"], r["attempted"]) for runs in results[workload] for r in runs}
        incorrect = sum(not r["correct"] for runs in results[workload] for r in runs)
        ok = ok and len(shares) == 1 and not incorrect
        print(f"{workload:14} failed shares {sorted(map(str, shares))}; runs with wrong output: {incorrect}")
    if args.out:
        Path(args.out).write_text(json.dumps({"results": results, "summary": summary}, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
