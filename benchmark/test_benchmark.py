"""Tests of the benchmark's own logic: python3 -m pytest benchmark -q"""
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, covered, layer_metrics, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def spec():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert covered((0.0, 10.0), [(8.0, 12.0), (-1.0, 1.0)]) == 3.0
    assert covered((0.0, 10.0), []) == 0.0


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span("a", 0.0, 10.0),
        Span("b", 1.0, 4.0, parent=0),
        Span("c", 2.0, 3.0, parent=1),
        Span("b", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_count_nested_layer_once_and_per_unit():
    tracer = Tracer(wrapped=())
    tracer.layers_seen = {"gpm.solve", "linops.polar_blockwise", "bm.retract", "bm.solve_bm"}
    tracer.spans = [
        Span("gpm.solve", 0.0, 8.0, attrs={"iterations": 3}),
        Span("linops.polar_blockwise", 1.0, 3.0, parent=0),
        Span("linops.polar_blockwise", 1.5, 2.5, parent=1),
        Span("gpm.solve", 10.0, 12.0, attrs={"iterations": 5}),
    ]
    out = layer_metrics(tracer, units=2, overhead_frac=0.01)
    assert out["linops.polar_blockwise_s"]["value"] == 1.0  # (3 - 1) / 2 units
    assert out["linops.polar_blockwise_calls"]["value"] == 1.0
    assert out["gpm.solve_self_s"]["value"] == (6.0 + 2.0) / 2
    assert out["gpm.iterations"]["value"] == 4.0
    assert out["bm.accept_ratio"]["value"] == 0.0  # no retract calls
    assert out["trace.overhead_frac"]["value"] == 0.01
    assert "certificate.certify_s" not in out  # never wrapped: absent


def test_missing_name_is_absent_and_originals_restored():
    import gopp.gpm

    original = gopp.gpm.gpm_step
    tracer = Tracer(wrapped=(
        ("gopp.gpm", "gpm_step", "gpm.step", None),
        ("gopp.gpm", "no_such_function", "gpm.gone", None),
    ))
    with tracer.recording(0):
        assert gopp.gpm.gpm_step is not original
    assert gopp.gpm.gpm_step is original
    assert tracer.absent == {"gopp.gpm.no_such_function"}
    assert tracer.layers_seen == {"gpm.step"}


def test_tracing_records_spans_at_looked_up_names():
    import gopp.certificate
    from gopp.bench import generate_instance
    from gopp.model import build_gram
    from gopp.linops import StiefelStack

    inst = generate_instance("uniform_cube", 5, 6, 2, 0.0, seed=0)
    gram = build_gram(inst.observed, center_first=False)
    tracer = Tracer(wrapped=tuple(w for w in tracing.WRAPPED if w[0] == "gopp.certificate"))
    with tracer.recording(7):
        gopp.certificate.certify(gram, StiefelStack.identity(5, 2))
    names = [s.name for s in tracer.spans]
    assert names == ["certificate.build_lambda"] + ["linops.lambda_kth_smallest"] * 2
    assert all(s.parent == -1 and s.unit == 7 and s.end >= s.start for s in tracer.spans)


@pytest.mark.parametrize(
    "n, index, percentile, rule_met",
    [(5, 4, 100.0, False), (10, 9, 100.0, False), (11, 0, 100.0 / 11, True), (100, 89, 90.0, True)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, index, percentile, rule_met):
    samples = [float(i) for i in range(n)][::-1]
    got = run.tail(samples)
    assert got["value"] == float(index)
    assert got["percentile"] == pytest.approx(percentile)
    assert got["rule_met"] is rule_met
    assert got["samples"] == n
    assert got["beyond"] == (n - 1 - index)
    if rule_met:
        assert got["beyond"] >= 10


def test_rate_test_accepts_seed_rate_and_rejects_regressions():
    assert workloads.rate_plausible(183, 200, 0.9, at_least=True)
    assert not workloads.rate_plausible(150, 200, 0.9, at_least=True)
    assert workloads.rate_plausible(0, 100, 0.1, at_least=False)
    assert not workloads.rate_plausible(30, 100, 0.1, at_least=False)


def test_factor_residual_matches_dense_certificate():
    from gopp.bench import generate_instance
    from gopp.certificate import certify
    from gopp.gpm import GpmConfig, solve
    from gopp.model import build_data_matrix, build_gram

    inst = generate_instance("uniform_cube", 20, 10, 3, 0.5, seed=3)
    gram = build_gram(inst.observed, center_first=False)
    report = solve(gram, GpmConfig(tol=1e-3), d_for_init=build_data_matrix(inst.observed))
    cert = certify(gram, report.solution)
    d_mat = build_data_matrix(inst.observed)
    got = workloads.factor_residual(d_mat, report.solution.blocks)
    assert got == pytest.approx(cert.stationarity_residual, rel=1e-8, abs=1e-12)
    df = workloads.df_normalized(report.solution.blocks, inst.rotations.blocks)
    from gopp.linops import df as df_program
    assert df * math.sqrt(60) == pytest.approx(df_program(report.solution, inst.rotations), abs=1e-10)


def test_frame_leaves_iterations_and_verdict_unchanged():
    """solve_n1000 varies its inputs by a rotation of every cloud only."""
    from gopp.bench import generate_instance
    from gopp.certificate import certify
    from gopp.gpm import GpmConfig, solve
    from gopp.model import PointCloud, PointCloudSet, build_data_matrix, build_gram

    base = generate_instance("uniform_cube", 60, 25, 3, 0.6, seed=2)
    rng = np.random.default_rng(5)
    rots = workloads.haar_rotations(rng, 60, 3)
    assert np.allclose(rots @ rots.transpose(0, 2, 1), np.eye(3), atol=1e-12)
    points = rots @ np.stack([c.points for c in base.observed.clouds])
    framed = PointCloudSet(tuple(PointCloud(p) for p in points))
    outcomes = []
    for clouds in (base.observed, framed):
        gram = build_gram(clouds, center_first=True)
        report = solve(gram, GpmConfig(), d_for_init=build_data_matrix(clouds))
        cert = certify(gram, report.solution)
        outcomes.append((report.iterations, cert.verdict, cert.stationarity_residual))
    assert outcomes[0][:2] == outcomes[1][:2]
    assert outcomes[0][2] == pytest.approx(outcomes[1][2], rel=1e-4)


def test_metric_names_match_benchmark_json():
    doc = spec()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in doc[key]]
    names += [w["name"] for w in doc["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _, _) in tracing.PER_LAYER.items()
    }
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }


def test_every_layer_source_names_a_wrapped_layer():
    layers = {layer for _, _, layer, _ in tracing.WRAPPED}
    for _, _, source, _ in tracing.PER_LAYER.values():
        layer = source.split(":")[1]
        assert not layer or layer in layers


def test_blas_threads_name_workloads():
    assert set(run.BLAS_THREADS) <= set(workloads.WORKLOADS)
    assert all(isinstance(n, int) and n >= 1 for n in run.BLAS_THREADS.values())
