"""Per-layer spans and counters, recorded from the benchmark's own files.

``install`` replaces public btaudit functions at the module attribute their
callers look them up under (for example ``btaudit.robustness.refit_without``,
which ``check_pair`` calls). Nothing under ``src/`` is edited. A span's self
time is its duration minus the time of the spans it encloses, so the self
times of all spans plus the unattributed remainder add up to the audit time.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Spans kept in memory: per-name call counts, busy and self time, durations."""

    def __init__(self):
        self.enabled = False
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self._stack: list[list[float]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.busy.clear()
        self.self_time.clear()
        self.durations.clear()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += took
                self.calls[name] += 1
                self.busy[name] += took
                self.self_time[name] += took - frame[0]
                self.durations[name].append(took)

        traced.__wrapped__ = fn
        return traced


class FitLedger:
    """Counts fits and refits where they happen, with their failures.

    An attempt fails when it returns ``converged=False`` or raises FitError or
    SingularHessianError. Failures are counted, never retried away.
    """

    def __init__(self, errors: tuple[type[BaseException], ...]):
        self.errors = errors
        self.attempted = 0
        self.failed = 0
        self.refits = 0
        self.refit_unconverged = 0
        self.refit_iters = 0

    def record(self, converged: bool) -> None:
        self.attempted += 1
        self.failed += not converged

    def wrap_refit(self, fn):
        def counted(*args, **kwargs):
            self.refits += 1
            try:
                result = fn(*args, **kwargs)
            except self.errors:
                self.record(False)
                raise
            self.record(result.converged)
            self.refit_unconverged += not result.converged
            self.refit_iters += result.iterations
            return result

        counted.__wrapped__ = fn
        return counted


# (module, attribute, span name). Each attribute is the name its callers use.
TRACED = (
    ("btaudit.robustness", "check_pair", "robustness.check"),
    ("btaudit.robustness", "select_drop_set", "robustness.select"),
    ("btaudit.robustness", "pair_influence", "influence.pair_influence"),
    ("btaudit.influence", "hessian_factor", "influence.factor"),
    ("btaudit.robustness", "refit_without", "btmodel.refit"),
    ("btaudit.oracle", "brute_force_pair", "oracle.brute_force"),
    ("btaudit.oracle", "finite_difference_influence", "oracle.fd"),
    ("btaudit.report", "render_topk_report", "report.render"),
    ("btaudit.report", "render_min_drop_report", "report.render"),
    ("btaudit.report", "write_csv", "report.write"),
)


def install(tracer: Tracer, ledger: FitLedger) -> None:
    """Wrap the refit boundary with the ledger, then every traced name with spans."""
    import importlib

    robustness = importlib.import_module("btaudit.robustness")
    robustness.refit_without = ledger.wrap_refit(robustness.refit_without)
    for module_name, attr, span in TRACED:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(span, getattr(module, attr)))
