"""Per-layer timing of an in-process CLI call, wrapped from outside.

``traced(tracer)`` rebinds the public entry points of ``rankops`` in the
modules that call them (``axioms`` and ``cli`` imported some by name) to
timing wrappers, and restores the originals on exit.  The program is not
edited.  Each wrapper is a span: its duration is added to a metric, and
to its parent span's child time, so a span's self time is its duration
minus the spans directly inside it.  Book-keeping done by a wrapper after
its span closes is charged to the span's parent as child time, not as
self time.

Layer names follow the modules: ``cli``, ``axioms``, ``operators`` and
``orders``.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter
from typing import Sequence

TRANSFORMS = ("relabel", "duplicate", "ud_move", "truncate_bottom")


class Tracer:
    """Totals for one traced call: seconds and counts per metric."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.evaluated: set = set()
        # One cell per open span: the time covered by spans directly inside it.
        self._stack: list[list[float]] = [[0.0]]

    def span(self, fn, metric: str, count: str | None = None, self_metric: str | None = None):
        stack, seconds, counts = self._stack, self.seconds, self.counts

        def wrapper(*args, **kwargs):
            inner = [0.0]
            stack.append(inner)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                seconds[metric] += elapsed
                if self_metric is not None:
                    seconds[self_metric] += elapsed - inner[0]
                if count is not None:
                    counts[count] += 1
                stack[-1][0] += perf_counter() - start

        return wrapper

    def generator_span(self, fn, metric: str, count: str):
        """Time each step of a generator; the consumer's work between steps
        stays outside the span."""
        step = self.span(next, metric)
        counts = self.counts

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                try:
                    item = step(items)
                except StopIteration:
                    return
                counts[count] += 1
                yield item

        return wrapper

    def operator_call(self, call):
        stack, seconds, counts, evaluated = self._stack, self.seconds, self.counts, self.evaluated

        def wrapper(op, order):
            start = perf_counter()
            try:
                return call(op, order)
            finally:
                seconds["operators.evaluate_s"] += perf_counter() - start
                counts["operators.evaluations"] += 1
                evaluated.add((op.name, order))
                stack[-1][0] += perf_counter() - start

        return wrapper

    def checker(self, fn, axiom: str):
        timed = self.span(fn, f"axioms.check_s.{axiom}", self_metric="axioms.self_s")

        def wrapper(op, max_n):
            report = timed(op, max_n)
            self.counts[f"axioms.cases.{axiom}"] += report.cases_checked
            return report

        return wrapper

    def constructor(self, init):
        counts = self.counts

        def wrapper(order, *args, **kwargs):
            counts["orders.constructed"] += 1
            init(order, *args, **kwargs)

        return wrapper

    def metrics(self, axioms: Sequence[str]) -> dict[str, float]:
        """Every per-layer metric of this call; layers it never entered read 0."""
        values: dict[str, float] = {}
        for name, unit in metric_units(axioms).items():
            values[name] = self.counts[name] if unit == "count" else self.seconds[name]
        evaluations = self.counts["operators.evaluations"]
        values["operators.distinct_ratio"] = len(self.evaluated) / evaluations if evaluations else 0.0
        return values


def metric_units(axioms: Sequence[str]) -> dict[str, str]:
    """Every metric a Tracer reports, in report order, with its unit."""
    units = {f"axioms.check_s.{axiom}": "s" for axiom in axioms}
    units.update({f"axioms.cases.{axiom}": "count" for axiom in axioms})
    units.update(
        {
            "axioms.self_s": "s",
            "axioms.document_s": "s",
            "operators.evaluate_s": "s",
            "operators.evaluations": "count",
            "operators.distinct_ratio": "ratio",
            "orders.enumerate_s": "s",
            "orders.enumerated": "count",
            "orders.transform_s": "s",
            "orders.transforms": "count",
            "orders.constructed": "count",
            "orders.from_tiers_s": "s",
            "cli.main_s": "s",
            "cli.self_s": "s",
        }
    )
    return units


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install ``tracer``'s wrappers on the rankops modules for the block."""
    from rankops import axioms, cli, operators, orders

    saved: list[tuple[object, str, object]] = []

    def rebind(owner, name: str, value) -> None:
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    weak_order = orders.WeakOrder
    rebind(weak_order, "__init__", tracer.constructor(weak_order.__init__))
    for name in TRANSFORMS:
        rebind(
            weak_order,
            name,
            tracer.span(getattr(weak_order, name), "orders.transform_s", "orders.transforms"),
        )
    for name in ("enumerate_weak_orders", "enumerate_linear_orders"):
        wrapped = tracer.generator_span(getattr(orders, name), "orders.enumerate_s", "orders.enumerated")
        for module in (orders, axioms, cli):
            if hasattr(module, name):
                rebind(module, name, wrapped)
    from_tiers = tracer.span(orders.from_tiers, "orders.from_tiers_s")
    rebind(orders, "from_tiers", from_tiers)
    rebind(cli, "from_tiers", from_tiers)
    rebind(operators.PositionOperator, "__call__", tracer.operator_call(operators.PositionOperator.__call__))
    document = tracer.span(axioms.build_verification_document, "axioms.document_s")
    rebind(axioms, "build_verification_document", document)
    rebind(cli, "build_verification_document", document)
    checkers = dict(axioms.CHECKERS)
    for axiom, fn in checkers.items():
        axioms.CHECKERS[axiom] = tracer.checker(fn, axiom.value)
    rebind(cli, "main", tracer.span(cli.main, "cli.main_s", self_metric="cli.self_s"))
    try:
        yield
    finally:
        axioms.CHECKERS.update(checkers)
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)
