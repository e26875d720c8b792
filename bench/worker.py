"""One workload process: set up, run the audit passes, verify, report.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread and ``src`` on
PYTHONPATH. Prints ``ready`` once the base fit is ready (the parent times
set-up up to that line), then one JSON line with its results. The audit is
timed only around btaudit's top-level calls. Untraced runs wrap only the
refit boundary, with a counter and no clock; span tracing is installed only
for traced runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

t_start = time.perf_counter()
import btaudit  # noqa: E402
import btaudit.influence  # noqa: E402
import btaudit.oracle  # noqa: E402
import btaudit.report  # noqa: E402
import btaudit.robustness  # noqa: E402
import_s = time.perf_counter() - t_start

from spans import FitLedger, Tracer, install  # noqa: E402

TOPK_KS = tuple(range(1, 11))
TOPK_BUDGETS = (btaudit.DropBudget(count=1), btaudit.DropBudget(alpha=1e-4))
MINDROP_PAIRS = 4
MINDROP_MAX_BUDGET = 30
ORACLE_BUDGETS = (1, 2, 3)


def load(workload: str, inp: Path):
    """Ingest the workload's files and fit each base; returns [(name, arena, fit)]."""
    schema = btaudit.IngestSchema.from_file(inp / "schema.json")
    files = sorted(inp.glob("arena*.csv")) + sorted(inp.glob("arena*.jsonl"))
    if not files:
        raise SystemExit(f"no input files in {inp}")
    t0 = time.perf_counter()
    arenas = [(f.name, btaudit.ingest(f, schema)) for f in files]
    t1 = time.perf_counter()
    fits = [(name, arena, btaudit.fit(arena)) for name, arena in arenas]
    t2 = time.perf_counter()
    rows = sum(a.n_matchups for _, a in arenas)
    iters = sum(bt.iterations for _, _, bt in fits)
    return fits, {"import_s": import_s, "ingest_s": t1 - t0, "fit_s": t2 - t1,
                  "rows": rows, "fit_iters": iters}


class Audit:
    """The workload's audit calls.

    Each call returns (units of work, verdict record, non-robust verdicts). A
    unit is a pair checked (top-k), a budget up to the verified answer
    (min-drop) or a fit the oracle sweep makes (oracle sweep): work the
    verdicts require, so a faster way to the same verdicts shows as less time
    per unit.
    """

    def __init__(self, workload: str, fits, out: Path, ledger: FitLedger):
        self.workload = workload
        self.fits = fits
        self.out = out
        self.ledger = ledger
        self.implied_refits = 0
        self.report_bytes = 0
        self.oracle = {"flips": 0, "misses": 0, "refits": 0}
        self.fd_max_rel_err = 0.0

    def calls(self):
        """One audit pass as a list of zero-argument calls, each with a fresh fit cache."""
        calls = []
        for name, arena, bt in self.fits:
            bt = _fresh(bt)
            if self.workload == "oracle-sweep":
                calls.append(self._oracle_call(name, arena, bt))
            elif self.workload == "topk":
                calls += [self._topk_call(name, arena, bt, k, b) for k in TOPK_KS for b in TOPK_BUDGETS]
            else:
                order = btaudit.ranking(bt).order
                calls += [self._mindrop_call(name, arena, bt, order[r], order[r + 1])
                          for r in range(MINDROP_PAIRS)]
        return calls

    def _topk_call(self, name, arena, bt, k, budget):
        def call():
            rob, rep = btaudit.robustness, btaudit.report
            tk = rob.check_topk(arena, bt, k, budget)
            stem = self.out / f"topk_k{k}_{budget.label().replace('=', '')}"
            text = rep.render_topk_report(tk, arena, bt, dataset=name)
            stem.with_suffix(".txt").write_text(text, encoding="utf-8")
            csv_path = stem.parent / (stem.name + "_pairs.csv")
            rep.write_csv(csv_path, ["leader", "challenger", "gap_before", "verdict",
                                     "predicted_flip", "refit_performed", "dropped_count"],
                          rep.topk_pair_rows(tk))
            self.report_bytes += len(text) + csv_path.stat().st_size
            self.implied_refits += sum(r.refit_performed for r in tk.per_pair)
            record = {"call": f"k={k} {budget.label()}", "robust": tk.robust,
                      "pairs_checked": tk.pairs_checked, "pairs_total": tk.pairs_total,
                      "pair": tk.offending_pair, "dropped": list(tk.dropped)}
            flips = [r for r in tk.per_pair if r.verdict == "non-robust"]
            return tk.pairs_checked, record, [(arena, bt, r) for r in flips]
        return call

    def _mindrop_call(self, name, arena, bt, a, b):
        def call():
            result = btaudit.robustness.min_drop_search(arena, bt, a, b, max_budget=MINDROP_MAX_BUDGET)
            names = arena.models.names
            text = btaudit.report.render_min_drop_report(
                result, arena, bt, dataset=name, max_budget=MINDROP_MAX_BUDGET)
            stem = f"{Path(name).stem}_mindrop_{names[a]}_vs_{names[b]}"
            (self.out / f"{stem}.txt").write_text(text, encoding="utf-8")
            self.report_bytes += len(text)
            rep = result.report
            if rep is not None and rep.dropped:
                self.implied_refits += result.budgets_tried
            record = {"arena": name, "call": f"{names[a]} vs {names[b]}", "found": result.found,
                      "count": result.count, "budgets_tried": result.budgets_tried,
                      "dropped": list(rep.dropped) if result.found else []}
            return result.budgets_tried, record, [(arena, bt, rep)] if result.found else []
        return call

    def _oracle_call(self, name, arena, bt):
        def call():
            rob, ora = btaudit.robustness, btaudit.oracle
            first, second = btaudit.ranking(bt).order[:2]
            # One enumeration up to the largest budget answers every smaller budget:
            # a flip within budget b exists iff the minimal flipping subset has size <= b.
            truth = ora.brute_force_pair(arena, first, second, max(ORACLE_BUDGETS))
            enumerated = truth.refits_performed
            self.oracle["refits"] += enumerated
            verdicts, flips = [], []
            for budget in ORACLE_BUDGETS:
                rep = rob.check_pair(arena, bt, first, second, btaudit.DropBudget(count=budget),
                                     always_refit=True)
                flip_exists = truth.flip_exists and len(truth.minimal_subset) <= budget
                self.implied_refits += rep.refit_performed
                self.oracle["flips"] += flip_exists
                if rep.verdict == "non-robust":
                    if not flip_exists:
                        raise VerificationError(
                            f"{name} budget {budget}: non-robust verdict not confirmed by enumeration")
                    flips.append((arena, bt, rep))
                elif flip_exists and rep.verdict == "robust":
                    self.oracle["misses"] += 1
                verdicts.append([budget, rep.verdict, list(rep.dropped), flip_exists])
            target = int(btaudit.ranking(bt).order[0]) or 1
            predicted = float(btaudit.influence.influence_scores(bt, target)[0])
            try:
                fd = ora.finite_difference_influence(arena, bt, target, 0)
            except btaudit.FitError:
                self.ledger.record(False)  # counted as a failed op; the sweep goes on
            else:
                self.ledger.record(True)
                # Reported, not gated: at the oracle's default step the central difference
                # is not a reliable reference on ridge-bounded, near-separated arenas.
                # |fd| is floored at 1e-5, as in the acceptance suite.
                rel = abs(predicted - fd) / max(abs(fd), 1e-5)
                self.fd_max_rel_err = max(self.fd_max_rel_err, rel)
            # Fits: the oracle's base fit and enumerated refits, each check's
            # refit, and the two finite-difference fits.
            fits = 1 + enumerated + len(ORACLE_BUDGETS) + 2
            return fits, {"call": name, "verdicts": verdicts}, flips
        return call


class VerificationError(RuntimeError):
    """An output of the program failed a correctness check."""


def _fresh(bt):
    """The same fit with an empty cache, so every pass pays for its own factorization."""
    return dataclasses.replace(bt, _cache={})


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16]


def verify_flips(flips) -> int:
    """Re-verify each non-robust verdict with an independent refit on its indices."""
    for arena, bt, rep in flips:
        refit = btaudit.btmodel.refit_without(arena, bt.options, list(rep.dropped))
        after = (float(refit.scores[rep.pair[0]]), float(refit.scores[rep.pair[1]]))
        if not after[0] < after[1]:
            raise VerificationError(f"pair {rep.pair_names}: refit on the reported indices does not flip")
        if after != rep.scores_after:
            raise VerificationError(f"pair {rep.pair_names}: scores_after not reproduced bit for bit")
    return len(flips)


def first_cycle_counts(audit: Audit, ledger: FitLedger) -> dict:
    """Operation counts once the first cycle over the input is done.

    Later cycles repeat the same operations with the same results, so these
    counts depend on the seed alone, not on how many cycles the time allowed.
    """
    return {"ops_attempted": ledger.attempted, "ops_failed": ledger.failed, "oracle": dict(audit.oracle)}


def call_loop(audit: Audit, ledger: FitLedger, seconds: float):
    """Untraced closed loop: the audit calls one after another, cycling over the
    input until the time is up, and at least one full cycle.

    Each call's time is the median over the cycles that reached it, so a slow
    spell of the machine moves no call's figure much, and a partial last cycle
    adds samples without changing the mix of work. Returns the timing entry,
    the first cycle's counts and its non-robust verdicts.
    """
    durations, units, records, flips = [], [], [], []
    counts = None
    cycles = 0
    deadline = time.perf_counter() + seconds
    while counts is None or time.perf_counter() < deadline:
        for i, call in enumerate(audit.calls()):
            if counts is not None and time.perf_counter() >= deadline:
                break
            start = time.perf_counter()
            n_units, record, call_flips = call()
            took = time.perf_counter() - start
            if counts is None:
                durations.append([took])
                units.append(n_units)
                records.append(record)
                flips.extend(call_flips)
            elif record != records[i]:
                raise VerificationError(f"call {i} gave another verdict on a later cycle over the same input")
            else:
                durations[i].append(took)
        else:
            cycles += 1
        if counts is None:
            counts = first_cycle_counts(audit, ledger)
    medians = [statistics.median(d) for d in durations]
    entry = {"audit_s": sum(medians), "unit_ms": 1e3 * sum(medians) / sum(units),
             "cycles": cycles, "calls": len(medians), "samples": sum(map(len, durations)),
             "digest": _digest(records), "records": records}
    return entry, counts, flips


def one_pass(audit: Audit, tracer: Tracer | None):
    """Run every audit call once, one after another (a closed loop with one caller).

    Returns the pass entry and the non-robust verdicts. The entry's ``unit_ms`` is
    the pass time per unit of work the pass's verdicts required.
    """
    records, flips, units = [], [], 0
    if tracer is not None:
        tracer.reset()
        tracer.enabled = True
    calls = audit.calls()
    pass_start = time.perf_counter()
    for call in calls:
        n_units, record, call_flips = call()
        units += n_units
        records.append(record)
        flips.extend(call_flips)
    audit_s = time.perf_counter() - pass_start
    entry = {"audit_s": audit_s, "unit_ms": 1e3 * audit_s / units, "digest": _digest(records),
             "records": records}
    if tracer is not None:
        tracer.enabled = False
        entry["spans"] = {name: (tracer.calls[name], tracer.busy[name], tracer.self_time[name],
                                 list(tracer.durations[name])) for name in tracer.calls}
    return entry, flips


def _tail(values) -> float:
    """Highest percentile with at least ten samples beyond it (the maximum below 20 samples)."""
    values = sorted(values)
    if len(values) < 20:
        return values[-1] if values else 0.0
    return values[len(values) - 11]


def layer_metrics(setup, audit, ledger, counts, plain, traced, verified) -> dict:
    """Per-layer figures for one pass: medians over traced passes, counts per pass."""
    n_passes = len(plain) + len(traced)

    def span(name, field):
        return statistics.median(p["spans"].get(name, (0, 0.0, 0.0, []))[field] for p in traced)

    def durations(name):
        return [d for p in traced for d in p["spans"].get(name, (0, 0, 0, []))[3]]

    refits = ledger.refits / n_passes
    records = plain[0]["records"]
    oracle = {k: v / n_passes for k, v in audit.oracle.items()}
    traced_s = statistics.median(p["audit_s"] for p in traced)
    plain_s = statistics.median(p["audit_s"] for p in plain[1:] or plain)
    top_level = ("robustness.check", "oracle.brute_force", "oracle.fd", "report.render", "report.write")
    attributed = sum(span(name, 1) for name in top_level)
    bf_s = span("oracle.brute_force", 1)
    return {
        "arena.ingest_s": setup["ingest_s"],
        "arena.rows_per_s": setup["rows"] / setup["ingest_s"],
        "btmodel.fit_s": setup["fit_s"],
        "btmodel.fit_iters": setup["fit_iters"],
        "btmodel.refit_calls": span("btmodel.refit", 0),
        "btmodel.refit_s": span("btmodel.refit", 1),
        "btmodel.refit_iters": ledger.refit_iters / n_passes,
        "btmodel.refit_p50_ms": 1e3 * statistics.median(durations("btmodel.refit") or [0.0]),
        "btmodel.refit_tail_ms": 1e3 * _tail(durations("btmodel.refit")),
        "btmodel.refit_unconverged": ledger.refit_unconverged / n_passes,
        "influence.factor_s": span("influence.factor", 1),
        "influence.pair_influence_calls": span("influence.pair_influence", 0),
        "influence.pair_influence_s": span("influence.pair_influence", 1),
        "robustness.select_calls": span("robustness.select", 0),
        "robustness.select_s": span("robustness.select", 1),
        "robustness.check_calls": span("robustness.check", 0),
        "robustness.check_self_s": span("robustness.check", 2),
        "robustness.check_p50_ms": 1e3 * statistics.median(durations("robustness.check") or [0.0]),
        "robustness.check_tail_ms": 1e3 * _tail(durations("robustness.check")),
        "robustness.topk_pairs_checked": sum(r.get("pairs_checked", 0) for r in records),
        "robustness.topk_pairs_total": sum(r.get("pairs_total", 0) for r in records),
        "robustness.refit_yield": verified / refits if refits else 0.0,
        "oracle.brute_force_calls": span("oracle.brute_force", 0),
        "oracle.brute_force_s": bf_s,
        "oracle.brute_force_refits": oracle["refits"],
        "oracle.refits_per_s": oracle["refits"] / bf_s if bf_s else 0.0,
        "oracle.fd_s": span("oracle.fd", 1),
        "oracle.fd_max_rel_err": audit.fd_max_rel_err,
        "oracle.miss_ratio": oracle["misses"] / oracle["flips"] if oracle["flips"] else 0.0,
        "oracle.flip_base": oracle["flips"],
        "report.render_s": span("report.render", 1) + span("report.write", 1),
        "report.bytes": audit.report_bytes / n_passes,
        "audit.pass_s": plain_s,
        "audit.ops_attempted": counts["ops_attempted"],
        "audit.failed_ops_ratio": counts["ops_failed"] / counts["ops_attempted"],
        "trace.audit_s": traced_s,
        "trace.unattributed_s": traced_s - attributed,
        "trace.overhead_ratio": traced_s / plain_s,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--input", required=True, type=Path)
    ap.add_argument("--role", choices=("setup", "main"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    fits, setup = load(args.workload, args.input)
    print("ready", flush=True)
    if args.role == "setup":
        print(json.dumps({"setup": setup}), flush=True)
        return 0

    ledger = FitLedger((btaudit.FitError, btaudit.SingularHessianError))
    for _, _, bt in fits:
        ledger.record(bt.converged)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        robustness = btaudit.robustness
        robustness.refit_without = ledger.wrap_refit(robustness.refit_without)
    else:
        install(tracer, ledger)
    out = args.input / "reports"
    out.mkdir(exist_ok=True)
    audit = Audit(args.workload, fits, out, ledger)

    if tracer is None:
        first, counts, flips = call_loop(audit, ledger, args.seconds)
    else:
        # Whole passes, so the spans of a pass can be read together. Traced and
        # untraced passes alternate after the first, so drift and warm-up hit
        # neither side alone, and the tracing overhead is measured in-process.
        first, flips = one_pass(audit, None)
        counts = first_cycle_counts(audit, ledger)
        plain, traced = [first], []
        deadline = time.perf_counter() + args.seconds - first["audit_s"]
        while not traced or time.perf_counter() < deadline:
            traced.append(one_pass(audit, tracer)[0])
            if time.perf_counter() >= deadline:
                break
            plain.append(one_pass(audit, None)[0])
        if any(p["digest"] != first["digest"] for p in plain + traced):
            raise VerificationError("verdicts differ between passes over the same input")
        # The first pass pays one-off warm-up costs; it is left out when there are others.
        first = dict(first, audit_s=statistics.median(p["audit_s"] for p in plain[1:] or plain),
                     unit_ms=statistics.median(p["unit_ms"] for p in plain[1:] or plain))
    if ledger.refits < audit.implied_refits:
        raise VerificationError(
            f"the wrapped refit boundary saw {ledger.refits} refits but the results imply "
            f"{audit.implied_refits}; refits now bypass btaudit.robustness.refit_without")
    verified = verify_flips(flips)
    result = dict(counts, setup=setup, verified_flips=verified,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  **{k: first[k] for k in ("audit_s", "unit_ms", "digest", "records")})
    if tracer is not None:
        result["layers"] = layer_metrics(setup, audit, ledger, counts, plain, traced, verified)
    else:
        result.update({k: first[k] for k in ("cycles", "calls", "samples")})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except VerificationError as exc:
        print(json.dumps({"error": str(exc)}), flush=True)
        sys.exit(3)
