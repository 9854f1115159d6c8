"""The benchmark's entry point runs every workload end to end on the current sources.

Each workload's set-up calls the package the way the benchmark does, so a
renamed or removed name it needs fails here and not only in a benchmark run.
Each workload also runs traced (``--trace 1``), which wraps the traced layers
(``gopp.gpm.gpm_step``, ``gopp.certificate.build_lambda``, ...) and so calls
them through a wrapper that untraced runs never use.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve_n1000", "phase_n100", "bm_p7")


def _run_all(trace: int) -> dict:
    """{workload: (exit code, stdout, stderr)} of one short run of each, all started at once."""
    procs = {
        w: subprocess.Popen(
            [sys.executable, "benchmark/run.py", "--workload", w, "--seed", "1",
             "--seconds", "0.2", "--trace", str(trace)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for w in WORKLOADS
    }
    try:
        outputs = {w: p.communicate(timeout=120) for w, p in procs.items()}
        return {w: (procs[w].returncode, *outputs[w]) for w in WORKLOADS}
    finally:
        for p in procs.values():
            p.kill()
            p.wait()


@pytest.fixture(scope="module")
def runs():
    return _run_all(trace=0)


@pytest.fixture(scope="module")
def traced_runs():
    return _run_all(trace=1)


def _assert_correct(run):
    code, out, err = run
    assert code == 0, err
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct(runs, workload):
    _assert_correct(runs[workload])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_runs_correct(traced_runs, workload):
    _assert_correct(traced_runs[workload])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_names_are_all_found(traced_runs, workload):
    # A traced name the package no longer has drops its layer metrics silently.
    # gopp.bm.objective is the one stale name in benchmark/tracing.py.
    report = json.loads(traced_runs[workload][1].splitlines()[-2])
    assert report["absent"] == ["gopp.bm.objective"]
