"""Verification gate, error counts and in-memory spans for one workload process.

Every call the benchmark makes into phasepoint goes through ``Recorder.call``
under a name ``<layer>.<function>``. With tracing on, each call becomes a span
(name, start, end, parent span, op id) kept in memory; with tracing off the
call only counts exceptions. Outputs are judged by ``check`` and ``expect``,
which fail on NaN and inf: a residual passes only when ``residual <= tol`` and
it is finite, so NaN never reads as a pass (the ``max(worst, x)`` idiom would
drop it).
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("symplectic", "qops", "metaplectic", "wigner", "oracle", "cli")
BENCH = "bench"  # the benchmark's own work: input handling and output checks
MAX_REPORTED_FAILURES = 5


class Recorder:
    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.errors = dict.fromkeys(LAYERS, 0)
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.notes: dict[str, list[float]] = defaultdict(list)
        self.op_id = 0
        self.op_ok = True
        self.setup_failures = 0
        self._stack: list[int] = []
        self._counted: BaseException | None = None
        self._reported = 0

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call into the library under ``name``, counting an exception against its layer."""
        with self.span(name):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.fail(name.split(".")[0], f"{name} raised {exc!r}")
                self._counted = exc
                raise

    def note(self, key: str, value: float) -> None:
        if self.tracing:
            self.notes[key].append(float(value))

    # -- the gate ----------------------------------------------------------

    def fail(self, layer: str, message: str) -> None:
        if layer in self.errors:
            self.errors[layer] += 1
        self.op_ok = False
        if self._reported < MAX_REPORTED_FAILURES:
            self._reported += 1
            print(f"perfbench: op {self.op_id} failed [{layer}]: {message}", file=sys.stderr)

    def check(self, layer: str, what: str, residual, tol: float) -> bool:
        """Pass only a finite residual at or below ``tol``."""
        value = float(residual)
        ok = math.isfinite(value) and value <= tol
        if not ok:
            self.fail(layer, f"{what}: residual {value!r} exceeds tolerance {tol!r}")
        elif layer == "metaplectic":
            self.note("metaplectic.residual", value)
            self.note("metaplectic.margin", _decades(tol, value))
        return ok

    def expect(self, layer: str, what: str, ok: bool) -> bool:
        if not ok:
            self.fail(layer, f"{what}: expectation not met")
        return bool(ok)

    # -- ops ---------------------------------------------------------------

    def run_op(self, label: str, layer: str, op) -> bool:
        """Run one op; any exception or failed check marks it failed."""
        self.op_id += 1
        self.op_ok = True
        with self.span(f"{BENCH}.{label}"):
            try:
                op()
            except Exception as exc:
                if exc is not self._counted:
                    self.fail(layer, "".join(traceback.format_exception_only(exc)).strip())
        self._counted = None
        return self.op_ok

    # -- aggregation -------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time covered by its direct child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(LAYERS + (BENCH,), 0.0)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            totals[name.split(".")[0]] += (end - start) - inner
        return totals


def _decades(tol: float, residual: float) -> float:
    """Orders of magnitude between a passing residual and its tolerance."""
    return math.log10(tol / max(residual, sys.float_info.min))
