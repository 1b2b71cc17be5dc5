"""Benchmark for the rankops CLI: end-to-end runs, or one traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-n5 --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client: one ``python -m rankops``
invocation at a time, with ``PYTHONPATH=src``.  Inputs are generated from
``--seed`` into ``.bench_work/`` and removed afterwards.  Every output is
checked against a computation made apart from the program (``checks.py``).

With ``--trace 0`` the run reports the end-to-end metrics: the median
wall time of one invocation, the median peak RSS, and ``setup_s``, the
median wall time of the same subcommand on its smallest valid input,
sampled at even intervals through the run.  Bytecode is cached as a user's
installation caches it: the untimed first invocation of a run compiles
into the run's own cache directory, and every later one reads from it.
With ``--trace 1`` it calls
``rankops.cli.main`` in process instead, alternating untraced calls with
calls traced by ``tracing.py``, and reports the per-layer metrics and the
tracing overhead.

Operations run in whole rounds, for about ``--seconds``: a round starts
only if it would end less than half a round late.  On ``rank-distinct``
every round starts with the huge-exponent input, under a time limit; it
is the one operation counted in ``failed`` while the program cannot parse
it in time.  A round holds the same operations in every run, so the share
of failed operations does not depend on the seed or the run length.  The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
import inputs
import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

SETUP_SAMPLES = 9
# The fixed program should parse the huge-exponent input, or reject it, in
# a few tenths of a second, as long as it takes to start; today it runs for
# minutes.
HUGE_LIMIT_S = 1.0
# Timed operations per round on rank-distinct, after the one huge-exponent
# attempt: enough that the attempt is a small part of the run.
DISTINCT_OPS_PER_ROUND = 6
# Any other operation that runs this long is killed and counted as failed,
# so that a run always ends.
OP_LIMIT_S = 100.0

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {**tracing.metric_units(checks.AXIOMS), "trace.overhead_s": "s"}


@dataclass
class Outcome:
    """One CLI invocation: exit code (None if killed), output and cost."""

    returncode: int | None
    stdout: str
    stderr: str
    wall_s: float = 0.0
    rss_mib: float = 0.0
    report: str = ""


def child_env(work: Path) -> dict[str, str]:
    """The caller's environment without its Python settings, so that the
    caller cannot change what is measured, and bytecode cached in ``work``."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    return {**env, "PYTHONPATH": str(SRC), "PYTHONPYCACHEPREFIX": str(work / "pycache")}


def run_cli(args: list[str], work: Path, limit: float) -> Outcome:
    """Spawn ``python -m rankops``, wait for it and reap it with its rusage."""
    out_path, err_path = work / "stdout", work / "stderr"
    env = child_env(work)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "rankops", *args],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
        )
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                killed = not poller.poll(limit * 1000)
                if killed:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = perf_counter() - start
            finally:
                os.close(pidfd)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Outcome(
        None if killed else proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        wall,
        usage.ru_maxrss / 1024,
    )


def call_main(args: list[str], main: Callable[[list[str]], int]) -> Outcome:
    """Call the CLI entry point in this process, capturing its output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        wall = perf_counter() - start
    return Outcome(code, stdout.getvalue(), stderr.getvalue(), wall)


@dataclass
class Operation:
    """One CLI invocation, the exit codes that count as success, and the
    check of its output."""

    args: list[str]
    check: Callable[[Outcome], None]
    report: Path | None = None
    ok_codes: tuple[int, ...] = (0,)
    limit: float = OP_LIMIT_S

    def run(self, work: Path) -> Outcome:
        return self._collect(lambda: run_cli(self.args, work, self.limit))

    def call(self, main: Callable[[list[str]], int]) -> Outcome:
        return self._collect(lambda: call_main(self.args, main))

    def _collect(self, invoke: Callable[[], Outcome]) -> Outcome:
        # A report left by an earlier call must not pass for this one's.
        if self.report is not None:
            self.report.unlink(missing_ok=True)
        outcome = invoke()
        if self.report is not None and self.report.exists():
            outcome.report = self.report.read_text(encoding="utf-8")
        return outcome


@dataclass
class Workload:
    """The timed operation, its set-up counterpart on the smallest valid
    input, and what else each round runs."""

    op: Operation
    setup: Operation
    ops_per_round: int = 1
    huge: Operation | None = None


def _rank_check(expected, method: str, output_format: str, linear: bool = False):
    def check(outcome: Outcome) -> None:
        if outcome.returncode != 0:
            raise checks.CheckFailed(f"rank exited with {outcome.returncode}: {outcome.stderr[-200:]!r}")
        if output_format == "json":
            checks.check_rank_json(outcome.stdout, expected, method)
        else:
            checks.check_rank_csv(outcome.stdout, expected)
        if linear:
            checks.check_linear_positions(outcome.stdout)

    return check


def _verify_op(report: Path, max_n: int) -> Operation:
    return Operation(
        ["verify", "--max-n", str(max_n), "--report", str(report)],
        lambda outcome: checks.check_verify(outcome.returncode, outcome.report, max_n),
        report,
    )


def _huge_check(outcome: Outcome) -> None:
    checks.check_huge(outcome.returncode, outcome.stdout, outcome.stderr, inputs.HUGE_EXPONENT_ORDER)


def build_workload(name: str, seed: int, work: Path) -> Workload:
    if name == "verify-n5":
        # max-n 3 is the smallest bound at which every expectation holds.
        return Workload(_verify_op(work / "report.json", 5), _verify_op(work / "setup.json", 3))
    one_row = "a,1\n"
    (work / "one.csv").write_text(one_row, encoding="utf-8")
    if name == "rank-distinct":
        text, flags, method, output_format = inputs.distinct_csv(seed), [], "dense", "csv"
    else:
        text, method, output_format = inputs.ties_csv(seed), "fractional", "json"
        flags = ["--output-format", "json", "--tie-epsilon", inputs.TIES_EPSILON]
    data = work / f"{name}.csv"
    data.write_text(text, encoding="utf-8")
    epsilon = inputs.TIES_EPSILON if flags else "0"
    workload = Workload(
        Operation(
            ["rank", "--method", method, *flags, str(data)],
            _rank_check(
                checks.expected_ranking(text, method, epsilon),
                method,
                output_format,
                linear=name == "rank-distinct",
            ),
        ),
        Operation(
            ["rank", "--method", method, *flags, str(work / "one.csv")],
            _rank_check(checks.expected_ranking(one_row, method, epsilon), method, output_format),
        ),
    )
    if name == "rank-distinct":
        huge = work / "huge.csv"
        huge.write_text(inputs.HUGE_EXPONENT_CSV, encoding="utf-8")
        # Every round: the huge-exponent input, then the timed operations,
        # so the failed share is exactly 1/7 however many rounds run.
        workload.ops_per_round = DISTINCT_OPS_PER_ROUND
        workload.huge = Operation(
            ["rank", "--method", "dense", str(huge)], _huge_check, ok_codes=(0, 2), limit=HUGE_LIMIT_S
        )
    return workload


WORKLOADS = ("verify-n5", "rank-distinct", "rank-ties")


class Tally:
    """Operations attempted and failed, and outputs found wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self._verified: set[tuple] = set()

    def check(self, outcome: Outcome, operation: Operation, label: str) -> bool:
        """Check an output; identical outputs are checked once."""
        key = (outcome.returncode, outcome.stdout, outcome.stderr, outcome.report)
        if key in self._verified:
            return True
        try:
            operation.check(outcome)
        except checks.CheckFailed as exc:
            self.wrong.append(f"{label}: {exc}")
            return False
        self._verified.add(key)
        return True

    def count(self, outcome: Outcome, operation: Operation, label: str) -> bool:
        """Count one operation.  An unexpected exit code (or a kill at the
        time limit) fails it; a wrong output otherwise makes the run
        incorrect."""
        self.attempted += 1
        if outcome.returncode not in operation.ok_codes:
            self.failed += 1
            print(f"bench: {label} failed with exit code {outcome.returncode}", file=sys.stderr)
            return False
        return self.check(outcome, operation, label)


def run_rounds(seconds: float, one_round: Callable[[], None], done: Callable[[], bool]) -> None:
    """Run whole rounds while the next one, if it lasts as long as the last,
    would end less than half a round after ``seconds``; in any case until
    ``done()``."""
    start = perf_counter()
    while True:
        round_start = perf_counter()
        one_round()
        now = perf_counter()
        if now - start + (now - round_start) / 2 > seconds and done():
            return


def end_to_end(workload: Workload, work: Path, seconds: float, tally: Tally) -> dict[str, float]:
    # The first invocation warms the file cache and writes the bytecode
    # cache; it is not timed.
    tally.check(workload.setup.run(work), workload.setup, "setup")
    setup: list[float] = []
    walls: list[float] = []
    rss: list[float] = []
    start = perf_counter()

    def take_setup_samples(until: float) -> None:
        # Set-up samples are spread evenly over the run, so that a slow
        # spell of the host cannot move all of them.
        while len(setup) < SETUP_SAMPLES and len(setup) * seconds / SETUP_SAMPLES <= until:
            outcome = workload.setup.run(work)
            tally.check(outcome, workload.setup, "setup")
            setup.append(outcome.wall_s)

    def one_round() -> None:
        if workload.huge is not None:
            tally.count(workload.huge.run(work), workload.huge, "huge-exponent input")
        for _ in range(workload.ops_per_round):
            take_setup_samples(perf_counter() - start)
            outcome = workload.op.run(work)
            if tally.count(outcome, workload.op, "operation"):
                walls.append(outcome.wall_s)
                rss.append(outcome.rss_mib)

    run_rounds(seconds, one_round, done=lambda: True)
    take_setup_samples(float("inf"))
    if not walls:
        tally.wrong.append("no operation succeeded")
        return dict.fromkeys(END_TO_END_UNITS, 0.0)
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }


def per_layer(workload: Workload, work: Path, seconds: float, tally: Tally) -> dict[str, float]:
    sys.path.insert(0, str(SRC))
    sys.pycache_prefix = str(work / "pycache")
    from rankops import axioms, cli

    if tuple(axiom.value for axiom in axioms.Axiom) != checks.AXIOMS:
        tally.wrong.append("the program checks other axioms than the benchmark knows")
        return dict.fromkeys(PER_LAYER_UNITS, 0.0)
    # Warm both paths on the smallest input, so that the first timed call
    # pays no one-off cost that the later ones do not.
    tally.check(workload.setup.call(cli.main), workload.setup, "setup")
    with tracing.traced(tracing.Tracer()):
        tally.check(workload.setup.call(cli.main), workload.setup, "setup")
    calls = 0
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []

    def one_round() -> None:
        nonlocal calls
        if workload.huge is not None:
            tally.count(workload.huge.run(work), workload.huge, "huge-exponent input")
        for _ in range(workload.ops_per_round):
            calls += 1
            if calls % 2:
                outcome = workload.op.call(cli.main)
                if tally.count(outcome, workload.op, "untraced call"):
                    untraced.append(outcome.wall_s)
                continue
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                outcome = workload.op.call(cli.main)
            if tally.count(outcome, workload.op, "traced call"):
                traced.append(outcome.wall_s)
                layers.append(tracer.metrics(checks.AXIOMS))
                if outcome.report:
                    try:
                        checks.check_traced_cases(outcome.report, layers[-1])
                    except checks.CheckFailed as exc:
                        tally.wrong.append(f"traced call: {exc}")

    run_rounds(seconds, one_round, done=lambda: calls >= 2)
    if not (layers and untraced):
        tally.wrong.append("no traced and untraced pair succeeded")
        return dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rankops" / "__main__.py").is_file():
        print(f"bench: no rankops sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    tally = Tally()
    try:
        workload = build_workload(args.workload, args.seed, work)
        measure = per_layer if args.trace else end_to_end
        values = measure(workload, work, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    for problem in tally.wrong[:20]:
        print(f"bench: wrong output: {problem}", file=sys.stderr)
    units = END_TO_END_UNITS if not args.trace else PER_LAYER_UNITS
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
