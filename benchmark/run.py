"""gopp benchmark: one workload per call, result as the last line of stdout.

    python3 benchmark/run.py --workload solve_n1000 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the result holds the end-to-end
metrics; with ``--trace 1`` every timed pass runs twice on the same inputs,
once traced and once not, and the result holds the per-layer metrics.  The
line before the result is a JSON report: the machine, every end-to-end
figure (``failed_fraction`` too), the tail percentile used, the checks and
the verdict of every input.  Spans of a traced run are written under
``.bench_build/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3  # untraced runs; a traced run reports no setup_s and sets up once
TAIL_MIN_BEYOND = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# BLAS threads per workload; a workload not named here runs with the threads
# as found.  Where every matrix is small (nd = 300) a second BLAS thread only
# adds synchronisation: one thread is faster there, and on a shared host the
# wait for the second core is the largest source of run-to-run spread.
BLAS_THREADS = {"phase_n100": 1, "bm_p7": 1}
# End-to-end metrics reported on every workload: name -> unit.
END_TO_END = {
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "units_per_s": "1/s",
    "certified_fraction": "frac",
    "df_truth_p50": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def tail(samples: list[float], min_beyond: int = TAIL_MIN_BEYOND) -> dict:
    """The highest nearest-rank percentile with at least ``min_beyond`` samples above it.

    With fewer than ``min_beyond + 1`` samples no percentile qualifies; the
    maximum is returned and ``rule_met`` is false.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= min_beyond:
        return {"value": xs[-1], "percentile": 100.0, "samples": n, "beyond": 0, "rule_met": False}
    rank = n - min_beyond
    return {
        "value": xs[rank - 1],
        "percentile": 100.0 * rank / n,
        "samples": n,
        "beyond": n - rank,
        "rule_met": True,
    }


def git_sha(root: Path) -> str:
    """HEAD's commit read from the .git directory, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(found: dict) -> dict:
    """The machine and BLAS set-up; ``found`` holds the thread variables as found."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        **found,
        "threads_used": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": git_sha(ROOT),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, import_s: float,
        found: dict) -> tuple:
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Unit

    workload = WORKLOADS[workload_name]()
    workdir = ROOT / ".bench_build" / "gopp" / f"{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(1 if trace else SETUP_REPS):
            t0 = time.perf_counter()
            workload.setup(seed, workdir)
            setups.append(time.perf_counter() - t0)

        tracer = Tracer() if trace else None
        units: list[Unit] = []
        untraced_s = traced_s = 0.0
        measured = 0.0
        passes = 0

        def timed_pass(index: int, traced: bool) -> float:
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.recording(index):
                        raw = workload.run_pass(index)
                else:
                    raw = workload.run_pass(index)
            except Exception as exc:  # a raising unit is a failed unit, not a crashed run
                elapsed = time.perf_counter() - t0
                units.append(Unit(elapsed, ok=False, why=f"raised {exc!r}"))
                return elapsed
            elapsed = time.perf_counter() - t0
            units.extend(workload.check(raw))
            return elapsed

        traced_units = 0
        # Whole cycles over a workload's fixed inputs, so every run covers the same ones.
        while measured < seconds or passes % workload.cycle:
            if trace:
                # Same inputs traced and untraced, alternating which goes first.
                order = (False, True) if passes % 2 == 0 else (True, False)
                for traced in order:
                    before = len(units)
                    elapsed = timed_pass(passes, traced)
                    if traced:
                        traced_s += elapsed
                        traced_units += len(units) - before
                    else:
                        untraced_s += elapsed
                    measured += elapsed
            else:
                measured += timed_pass(passes, False)
            passes += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = workload.workload_checks(units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [u for u in units if not u.ok]
    times = [u.seconds for u in units if u.ok]
    dfs = [u.df_truth for u in units if u.ok]
    tail_info = tail(times) if times else None
    by_input: dict = {}  # input -> verdict counts, median unit time and residual
    for u in units:
        per_key = by_input.setdefault(u.key or "unknown", {"s": [], "r": []})
        label = u.verdict if u.ok else "failed"
        per_key[label] = per_key.get(label, 0) + 1
        per_key["s"].append(u.seconds)
        per_key["r"].append(u.residual)
    for per_key in by_input.values():
        per_key["median_s"] = statistics.median(per_key.pop("s"))
        residuals = [x for x in per_key.pop("r") if math.isfinite(x)]
        if residuals:
            per_key["median_residual"] = statistics.median(residuals)
    figures = {
        "instance_p50_s": statistics.median(times) if times else None,
        "instance_tail_s": tail_info["value"] if tail_info else None,
        "units_per_s": len(units) / measured,
        "certified_fraction": sum(u.certified for u in units) / len(units),
        "failed_fraction": len(failed) / len(units),
        "df_truth_p50": statistics.median(dfs) if dfs else None,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": import_s + statistics.median(setups),
    }
    correct = not failed and all(checks.values()) and bool(times)
    report = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine(found),
        "passes": passes,
        "measured_s": measured,
        "end_to_end": figures,
        "tail": tail_info,
        "setup_reps_s": setups,
        "import_s": import_s,
        "checks": checks,
        "failures": [u.why for u in failed[:20]],
        "inputs": by_input,
    }
    if trace:
        overhead = traced_s / untraced_s - 1.0
        metrics = layer_metrics(tracer, traced_units, overhead)
        spans_path = ROOT / ".bench_build" / "gopp" / f"spans-{workload_name}-{seed}.jsonl"
        tracer.write(spans_path)
        report.update(spans=str(spans_path.relative_to(ROOT)), absent=sorted(tracer.absent),
                      traced_units=traced_units)
    else:
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END.items()}
        correct = correct and all(m["value"] is not None for m in metrics.values())
    result = {"correct": correct, "attempted": len(units), "failed": len(failed), "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve_n1000", "phase_n100", "bm_p7"))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gopp" / "__init__.py").is_file():
        print(f"benchmark: no gopp sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    found = {k: os.environ.get(k) for k in THREAD_VARS}
    if args.workload in BLAS_THREADS:  # read by OpenBLAS when numpy is first imported
        for k in THREAD_VARS:
            os.environ[k] = str(BLAS_THREADS[args.workload])
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import gopp  # numpy and every gopp module; counted in set-up time

    if not Path(gopp.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"benchmark: imported gopp from {gopp.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_start
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s,
                         found)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
