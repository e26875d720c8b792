"""btaudit benchmark: one workload, one seed, end-to-end or per-layer figures.

    python3 bench/run.py --workload topk --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark generates its inputs from the
seed, starts fresh single-threaded worker processes that import btaudit from
``src``, checks the verdicts, prints every metric by name with its unit and
sample count, and ends with one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from a traced run that also times the real
``btaudit`` command line on the same input. A failed check prints the
reason, reports no timings and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Set before numpy loads, so neither this process nor its children start BLAS threads.
os.environ.update({var: "1" for var in THREAD_VARS})

import numpy as np  # noqa: E402

import inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# Arena sizes where every base fit converged on the seeds tried at this commit. A few
# seeds still stall one min-drop refit (seed 34: 1 of 390 operations); that is counted
# as a failed operation, not avoided.
TOPK_SIZE = (60, 20_000)
MINDROP_SIZE = (60, 10_000)
MINDROP_ARENAS = 10
ORACLE_ARENAS = 252
SETUP_SAMPLES = 7
CHILD_TIMEOUT = 120
WORKLOADS = ("topk", "mindrop", "oracle-sweep")


class BenchError(RuntimeError):
    """The run is invalid: a check failed or a process misbehaved."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    return env


def make_inputs(workload: str, seed: int, where: Path) -> dict:
    """Write the workload's files; returns {file name: sha256}."""
    if where.exists():
        shutil.rmtree(where)
    where.mkdir(parents=True)
    if workload == "topk":
        inputs.write_csv(where / "arena.csv", inputs.big_arena(seed, *TOPK_SIZE))
        inputs.write_schema(where / "schema.json", "csv")
    elif workload == "mindrop":
        # Several arenas per run: the cost of a refit differs from arena to arena.
        for i in range(MINDROP_ARENAS):
            arena_seed = seed + 1_000_000 * i
            inputs.write_jsonl(where / f"arena{i}.jsonl", inputs.big_arena(arena_seed, *MINDROP_SIZE),
                               arena_seed)
        inputs.write_schema(where / "schema.json", "jsonl", meta_columns=("prompt",))
    else:
        for i in range(ORACLE_ARENAS):
            inputs.write_csv(where / f"arena{i:03d}.csv", inputs.tiny_arena(seed, i))
        inputs.write_schema(where / "schema.json", "csv")
    return {p.name: inputs.sha256(p) for p in sorted(where.iterdir())}


def run_child(argv: list[str], env: dict, timed_line: str | None = None):
    """Run a child to completion; returns (seconds to ``timed_line`` or exit, stdout lines, code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    marked = None
    lines = []
    try:
        if timed_line is not None:
            if not select.select([proc.stdout], [], [], CHILD_TIMEOUT)[0]:
                raise subprocess.TimeoutExpired(argv, CHILD_TIMEOUT)
            first = proc.stdout.readline()
            marked = time.perf_counter() - start
            lines.append(first.rstrip("\n"))
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(argv[:4])} ran past {CHILD_TIMEOUT}s") from None
    lines += out.splitlines()
    took = time.perf_counter() - start
    if timed_line is not None and lines[0] != timed_line:
        raise BenchError(f"worker failed before set-up finished: {err.strip()[-2000:]}")
    return (marked if marked is not None else took), lines, proc.returncode, err


def start_worker(workload: str, where: Path, role: str, seconds: float, trace: int, env: dict):
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--input", str(where),
            "--role", role, "--seconds", str(seconds), "--trace", str(trace)]
    setup_s, lines, code, err = run_child(argv, env, timed_line="ready")
    result = json.loads(lines[-1]) if len(lines) > 1 else {}
    if code != 0 or "error" in result:
        raise BenchError(result.get("error") or f"worker exited {code}: {err.strip()[-2000:]}")
    return setup_s, result


def cli_checks(workload: str, seed: int, where: Path, main: dict, env: dict) -> dict:
    """Time the real command line on the same input and compare its verdicts."""
    base = [sys.executable, "-m", "btaudit.cli"]
    imports = [run_child([sys.executable, "-c", "import btaudit"], env)[0] for _ in range(3)]
    out = where / "cli"
    if workload == "topk":
        argv = base + ["check-topk", str(where / "arena.csv"), "--schema", str(where / "schema.json"),
                       "--out", str(out)]
        # Calls are labelled "k=<k> <count|alpha>=<value>", as the command line prints them.
        labels = [r["call"].split() for r in main["records"]]
        for k in dict.fromkeys(k for k, _ in labels):
            argv += ["--k", k[2:]]
        for budget in dict.fromkeys(b for _, b in labels):
            argv += ["--" + budget.split("=")[0], budget.split("=")[1]]
        wall, lines, code, _ = run_child(argv, env)
        expected = sorted(f"{r['call']}: {'robust' if r['robust'] else 'non-robust'} "
                          f"({r['pairs_checked']}/{r['pairs_total']} pairs)" for r in main["records"])
        agrees = sorted(lines) == expected and code == (0 if all(r["robust"] for r in main["records"]) else 2)
    elif workload == "mindrop":
        first = main["records"][0]
        a, b = first["call"].split(" vs ")
        argv = base + ["min-drop", str(where / "arena0.jsonl"), a, b, "--schema", str(where / "schema.json"),
                       "--max-budget", "30", "--out", str(out)]
        wall, lines, code, _ = run_child(argv, env)
        if first["found"]:
            agrees = code == 2 and lines[0].startswith(f"non-robust: {first['count']} of ")
        else:
            agrees = code == 0 and lines[0] == "not found within budget 30"
    else:
        argv = base + ["selftest", "--seed", str(seed), "--arenas", "20"]
        wall, lines, code, _ = run_child(argv, env)
        agrees = code == 0 and lines[-1].endswith("(ok)") and "all confirmed" in lines[0]
    if not agrees:
        raise BenchError(f"command line disagrees with the library run: {' '.join(argv[3:5])} -> {lines}")
    return {"cli.import_s": statistics.median(imports), "cli.wall_s": wall, "cli.agrees": 1.0}


def quantile_summary(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q[0]:.6g} q3={q[2]:.6g}"


def timing_summary(main: dict) -> str:
    """Sample counts behind the audit timings: per-call medians (untraced) or passes (traced)."""
    if "calls" in main:
        return f"median per call over {main['samples']} calls timed, {main['calls']} per cycle, " \
               f"{main['cycles']} full cycles"
    return "median over untraced passes of a traced run"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "btaudit" / "__init__.py").is_file():
        print(f"error: no btaudit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = child_env()
    where = WORK / f"{args.workload}-{args.seed}"
    hashes = make_inputs(args.workload, args.seed, where)
    try:
        # Byte-compile once, so no set-up sample pays for it.
        run_child([sys.executable, "-c", "import btaudit.cli"], env)
        # Set-up samples before and after the main worker, so they span the run.
        setups = [start_worker(args.workload, where, "setup", 0, 0, env)[0] for _ in range(SETUP_SAMPLES // 2)]
        main_setup, main = start_worker(args.workload, where, "main", args.seconds, args.trace, env)
        setups.append(main_setup)
        setups += [start_worker(args.workload, where, "setup", 0, 0, env)[0]
                   for _ in range(SETUP_SAMPLES - len(setups))]
        layers = {}
        if args.trace:
            layers = dict(main["layers"], **cli_checks(args.workload, args.seed, where, main, env))
    except BenchError as exc:
        print(f"INVALID RUN: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        # Every run makes its inputs again from the seed; keep no copies behind.
        shutil.rmtree(where, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"python {platform.python_version()} numpy {np.__version__} nproc {os.cpu_count()} "
          f"threads {','.join(f'{v}=1' for v in THREAD_VARS)}")
    for name, digest in hashes.items():
        print(f"input {name} sha256 {digest}")
    print(f"verdict digest {main['digest']} ({len(main['records'])} calls, "
          f"{main['verified_flips']} non-robust verdicts re-verified)")
    attempted, failed = main["ops_attempted"], main["ops_failed"]
    e2e = {
        "setup_s": (statistics.median(setups), quantile_summary(setups)),
        "audit_unit_ms": (main["unit_ms"], timing_summary(main)),
        "peak_rss_mb": (main["peak_rss_mb"], "n=1"),
    }
    units_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (value, spread) in e2e.items():
        print(f"metric {name} = {value:.6g} {units_of[name]} ({spread})")
    print(f"metric audit_s = {main['audit_s']:.6g} s ({timing_summary(main)}; not gated)")
    print(f"metric failed_ops_ratio = {failed / attempted:.6g} (base ops_attempted={attempted})")
    flips = main["oracle"]["flips"]
    if flips:
        print(f"metric oracle_miss_ratio = {main['oracle']['misses'] / flips:.6g} "
              f"(base: {flips:g} budgets where the oracle finds a flip)")
    for name, value in layers.items():
        print(f"layer {name} = {value:.6g} {units_of[name]}")
    values = layers if args.trace else {k: v for k, (v, _) in e2e.items()}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
