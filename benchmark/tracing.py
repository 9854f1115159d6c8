"""Span tracing of gopp's layers, installed from outside the program.

Each traced layer is a public function replaced, for the duration of a traced
unit, at the module attribute its caller looks up (``gopp.gpm.polar_blockwise``
is what ``gpm_step`` calls, ``gopp.bm.polar_blockwise`` what ``retract``
calls).  Spans (name, start, end, parent, unit) stay in memory and are
written out once the run ends.  A name missing after a refactor is recorded
as absent and its metrics are left out of the result, never a crash.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _verdict(cert) -> dict:
    return {"verdict": cert.verdict.value}


def _iterations(report) -> dict:
    return {"iterations": report.iterations}


def _gram_bytes(gram) -> dict:
    return {"gram_bytes": (gram.n * gram.d) ** 2 * 8}


def _trial(result) -> dict:
    return {"timeout": bool(result.timeout)}


# (module, attribute its callers look up, layer name, attributes read from the result)
WRAPPED = (
    ("gopp.cli", "main", "cli.main", None),
    ("gopp.cli", "read_cloud_set", "model.read_cloud_set", None),
    ("gopp.cli", "build_gram", "model.build_gram", _gram_bytes),
    ("gopp.bench", "build_gram", "model.build_gram", _gram_bytes),
    ("gopp.cli", "solve", "gpm.solve", _iterations),
    ("gopp.bench", "solve", "gpm.solve", _iterations),
    ("gopp.gpm", "spectral_init", "gpm.spectral_init", None),
    ("gopp.gpm", "gpm_step", "gpm.step", None),
    ("gopp.gpm", "objective", "gpm.objective", None),
    ("gopp.bm", "objective", "gpm.objective", None),
    ("gopp.gpm", "polar_blockwise", "linops.polar_blockwise", None),
    ("gopp.bm", "polar_blockwise", "linops.polar_blockwise", None),
    ("gopp.gpm", "top_d_left_singular", "linops.top_d_left_singular", None),
    ("gopp.bench", "df", "linops.df", None),
    ("gopp.cli", "certify", "certificate.certify", _verdict),
    ("gopp.bench", "certify", "certificate.certify", _verdict),
    ("gopp.certificate", "build_lambda", "certificate.build_lambda", None),
    ("gopp.certificate", "lambda_kth_smallest", "linops.lambda_kth_smallest", None),
    ("gopp.bm", "solve_bm", "bm.solve_bm", _iterations),
    ("gopp.bm", "retract", "bm.retract", None),
    ("gopp.bm", "riemannian_gradient", "bm.riemannian_gradient", None),
    ("gopp.bench", "generate_instance", "bench.generate_instance", None),
    ("gopp.bench", "run_trial", "bench.run_trial", _trial),
)

NUMERICAL_ERRORS = ("NumericalError", "LinAlgError")

# Per-layer metric -> (unit, better, source, the end-to-end metric it should move).
# A source is "<kind>:<layer>".  Times, calls and iterations are per traced
# unit; event counts are totals over the traced units.
PER_LAYER = {
    "certificate.certify_s": ("s", "lower", "inclusive:certificate.certify", "instance_p50_s: ~85% on solve_n1000, ~30% on phase_n100, none on bm_p7"),
    "certificate.certify_self_s": ("s", "lower", "self:certificate.certify", "instance_p50_s on solve_n1000 and phase_n100 (dense Lambda - C and residual)"),
    "certificate.build_lambda_s": ("s", "lower", "inclusive:certificate.build_lambda", "instance_p50_s on solve_n1000 and phase_n100"),
    "linops.lambda_kth_smallest_s": ("s", "lower", "inclusive:linops.lambda_kth_smallest", "instance_p50_s on solve_n1000 (dense eigvalsh) and phase_n100"),
    "linops.lambda_kth_smallest_calls": ("count", "lower", "calls:linops.lambda_kth_smallest", "instance_p50_s on solve_n1000 and phase_n100; 2 per certify today"),
    "gpm.solve_self_s": ("s", "lower", "self:gpm.solve", "instance_p50_s on solve_n1000 (nd x nd residual, gauge fix), less on phase_n100"),
    "gpm.objective_s": ("s", "lower", "inclusive:gpm.objective", "instance_p50_s on solve_n1000, phase_n100 and bm_p7"),
    "gpm.step_s": ("s", "lower", "inclusive:gpm.step", "instance_p50_s on solve_n1000 and phase_n100"),
    "gpm.iterations": ("count", "lower", "iterations:gpm.solve", "instance_p50_s on solve_n1000 and phase_n100"),
    "gpm.spectral_init_s": ("s", "lower", "inclusive:gpm.spectral_init", "instance_p50_s on solve_n1000"),
    "model.build_gram_s": ("s", "lower", "inclusive:model.build_gram", "instance_p50_s on solve_n1000, little on phase_n100"),
    "model.gram_bytes": ("bytes", "lower", "gram_bytes:model.build_gram", "peak_rss_mb on solve_n1000; computed as (nd)^2 * 8"),
    "model.read_cloud_set_s": ("s", "lower", "inclusive:model.read_cloud_set", "instance_p50_s on solve_n1000 only"),
    "cli.main_self_s": ("s", "lower", "self:cli.main", "instance_p50_s on solve_n1000 only (argument parsing, JSON emit)"),
    "linops.polar_blockwise_s": ("s", "lower", "inclusive:linops.polar_blockwise", "units_per_s on phase_n100 and bm_p7, small share on solve_n1000"),
    "linops.polar_blockwise_calls": ("count", "lower", "calls:linops.polar_blockwise", "units_per_s on phase_n100 and bm_p7"),
    "linops.top_d_left_singular_s": ("s", "lower", "inclusive:linops.top_d_left_singular", "units_per_s on solve_n1000 (spectral init)"),
    "linops.df_s": ("s", "lower", "inclusive:linops.df", "units_per_s on phase_n100"),
    "bm.solve_bm_self_s": ("s", "lower", "self:bm.solve_bm", "instance_p50_s on bm_p7 only (nd x nd residual per step)"),
    "bm.iterations": ("count", "lower", "iterations:bm.solve_bm", "instance_p50_s on bm_p7 only"),
    "bm.retract_calls": ("count", "lower", "calls:bm.retract", "instance_p50_s on bm_p7 only"),
    "bm.accept_ratio": ("ratio", "higher", "accept_ratio:bm.retract", "instance_p50_s on bm_p7 only; ascent iterations per retract call"),
    "bm.retract_s": ("s", "lower", "inclusive:bm.retract", "instance_p50_s on bm_p7 only"),
    "bm.riemannian_gradient_s": ("s", "lower", "inclusive:bm.riemannian_gradient", "instance_p50_s on bm_p7 only"),
    "bench.run_trial_self_s": ("s", "lower", "self:bench.run_trial", "instance_p50_s on phase_n100"),
    "bench.generate_instance_s": ("s", "lower", "inclusive:bench.generate_instance", "units_per_s on phase_n100"),
    "bench.timeouts": ("count", "lower", "timeouts:bench.run_trial", "failed_fraction on every workload"),
    "bench.numerical_errors": ("count", "lower", "numerical_errors:", "failed_fraction on every workload"),
    "certificate.verdict.certified": ("count", "higher", "verdict.certified_unique_global:certificate.certify", "certified_fraction on every workload"),
    "certificate.verdict.not_stationary": ("count", "lower", "verdict.not_stationary:certificate.certify", "certified_fraction on every workload"),
    "certificate.verdict.not_certified": ("count", "lower", "verdict.stationary_not_certified:certificate.certify", "certified_fraction on every workload"),
    "trace.overhead_frac": ("frac", "lower", "overhead:", "none: traced over untraced unit time, minus 1"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    unit: int = -1
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Keeps the spans of the units run inside :meth:`recording`."""

    def __init__(self, wrapped=WRAPPED):
        self.wrapped = wrapped
        self.spans: list[Span] = []
        self.layers_seen: set[str] = set()
        self.absent: set[str] = set()  # "module.attr" names not found
        self._stack: list[int] = []
        self._unit = -1

    def _wrap(self, original, layer, on_result):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(layer, time.perf_counter(), parent=parent, unit=self._unit)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                span.attrs.update(on_result(result))
            return result

        return traced

    @contextlib.contextmanager
    def recording(self, unit: int):
        """Trace everything run inside the block as unit ``unit``."""
        patches = []
        for module_name, attr, layer, on_result in self.wrapped:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.add(f"{module_name}.{attr}")
                continue
            self.layers_seen.add(layer)
            setattr(module, attr, self._wrap(original, layer, on_result))
            patches.append((module, attr, original))
        self._unit = unit
        try:
            yield
        finally:
            self._unit = -1
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.unit, s.attrs]) + "\n")


def covered(interval, children) -> float:
    """Length of the part of ``interval`` that the union of ``children`` covers."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered((s.start, s.end), children.get(i, ()))
        for i, s in enumerate(spans)
    ]


def layer_metrics(tracer: Tracer, units: int, overhead_frac: float) -> dict:
    """Per-layer metrics over ``units`` traced units; absent layers are left out."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_layer = defaultdict(lambda: {"inclusive": 0.0, "self": 0.0, "calls": 0, "attrs": []})
    for i, s in enumerate(spans):
        agg = by_layer[s.name]
        agg["calls"] += 1
        agg["self"] += selfs[i]
        agg["attrs"].append(s.attrs)
        # A layer nested in itself counts once in its inclusive time.
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            agg["inclusive"] += s.end - s.start
    per_unit = max(units, 1)
    out = {}
    for metric, (unit, _better, source, _moves) in PER_LAYER.items():
        kind, layer = source.split(":")
        if layer and layer not in tracer.layers_seen:
            continue
        agg = by_layer[layer]
        if kind in ("inclusive", "self", "calls"):
            value = agg[kind] / per_unit
        elif kind == "iterations":
            value = sum(a.get("iterations", 0) for a in agg["attrs"]) / per_unit
        elif kind.startswith("verdict."):
            value = sum(a.get("verdict") == kind[len("verdict."):] for a in agg["attrs"])
        elif kind == "accept_ratio":
            iters = sum(a.get("iterations", 0) for a in by_layer["bm.solve_bm"]["attrs"])
            value = iters / agg["calls"] if agg["calls"] else 0.0
        elif kind == "gram_bytes":
            value = max((a["gram_bytes"] for a in agg["attrs"] if "gram_bytes" in a), default=0)
        elif kind == "timeouts":
            value = sum(bool(a.get("timeout")) for a in agg["attrs"])
        elif kind == "numerical_errors":
            value = sum(
                s.attrs.get("error") in NUMERICAL_ERRORS
                for s in spans
                if s.name in ("gpm.solve", "bm.solve_bm", "certificate.certify")
            )
        else:  # overhead
            value = overhead_frac
        out[metric] = {"value": value, "unit": unit}
    return out
