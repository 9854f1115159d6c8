"""Synthetic instances and the Monte Carlo phase-transition harness.

Each grid cell (n, m, d, sigma) runs a fixed number of trials; a trial
succeeds exactly when the solver reports convergence and the dual
certificate passes: stationarity residual below 1e-6, lambda_{d+1} strictly
positive and lambda_min >= -1e-6.  Results are deterministic
given the base seed: per-trial seeds are split by XORing the base with a
64-bit hash of the cell coordinates and trial index.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields

import numpy as np

from .bm import BmConfig, solve_bm
from .certificate import certify
from .gpm import GpmConfig, NumericalError, check_time_limit, solve
from .linops import RotationStack, StiefelStack, df
from .model import PointCloud, PointCloudSet, SyntheticInstance, build_gram

CLOUD_MODELS = ("uniform_cube", "standard_normal")
METHODS = ("gpm_spectral", "gpm_random", "bm")
CROSSING_LEVEL = 0.5  # the success fraction whose crossing sigma gopp phase reports

def _check_cell(n: int, m: int, d: int, sigma: float) -> None:
    """An instance's shape and noise level: d >= 1, m >= d + 1, n >= 2, finite sigma >= 0."""
    if d < 1 or m < d + 1 or n < 2:
        raise ValueError(f"need d >= 1, m >= d+1 and n >= 2 clouds, got d={d}, m={m}, n={n}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")


@dataclass(frozen=True)
class PhaseGrid:
    cloud_model: str = "uniform_cube"
    d: int = 3
    m_list: tuple = (25,)
    n_list: tuple = (100,)
    sigma_list: tuple = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)
    trials_per_cell: int = 20
    base_seed: int = 0
    time_limit_s: float | None = 60.0

    def __post_init__(self):
        if self.cloud_model not in CLOUD_MODELS:
            raise ValueError(f"cloud_model must be one of {CLOUD_MODELS}")
        if not (self.m_list and self.n_list and self.sigma_list):
            raise ValueError("m_list, n_list, sigma_list must be non-empty")
        for n, m, sigma in itertools.product(self.n_list, self.m_list, self.sigma_list):
            _check_cell(n, m, self.d, sigma)
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be >= 1")
        check_time_limit(self.time_limit_s)


@dataclass
class TrialResult:
    n: int
    m: int
    d: int
    sigma: float
    seed: int
    gpm_converged: bool
    certified: bool
    iterations: int
    df_to_truth: float
    runtime_ms: float
    timeout: bool = False
    method: str = "gpm_random"  # the default method of run_trial, phase_diagram and gopp phase


@dataclass
class CellSummary:
    model: str
    n: int
    m: int
    d: int
    sigma: float
    trials: int
    successes: int
    mean_iters: float
    mean_df_truth: float
    timeouts: int

    @property
    def success_fraction(self) -> float:
        return self.successes / self.trials

    def csv_row(self) -> str:
        return ",".join(map(str, astuple(self)))


PHASE_CSV_HEADER = ",".join(f.name for f in fields(CellSummary))


def generate_instance(
    model: str,
    n: int,
    m: int,
    d: int,
    sigma: float,
    with_shifts: bool = False,
    seed: int = 0,
    haar_rotations: bool = False,
) -> SyntheticInstance:
    """Draw a reproducible instance: cloud, rotations, shifts, Gaussian noise.

    The latent cloud's columns are Unif[-1,1]^d or N(0, I_d); ground-truth
    transforms default to the identity (noise rotation-invariance), with
    Haar-random orthogonal blocks as an option.
    """
    if model not in CLOUD_MODELS:
        raise ValueError(f"model must be one of {CLOUD_MODELS}")
    _check_cell(n, m, d, sigma)
    rng = np.random.default_rng(seed)
    if model == "uniform_cube":
        a = rng.uniform(-1.0, 1.0, size=(d, m))
    else:
        a = rng.standard_normal((d, m))
    if haar_rotations:
        u, _, vt = np.linalg.svd(rng.standard_normal((n, d, d)))
        rots = u @ vt
    else:
        rots = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    shifts = rng.standard_normal((n, d)) if with_shifts else np.zeros((n, d))
    noise = rng.standard_normal((n, d, m))
    observed = rots @ (a - shifts[:, :, None]) + sigma * noise
    return SyntheticInstance(
        truth=PointCloud(a),
        rotations=RotationStack(rots),
        shifts=shifts,
        sigma=float(sigma),
        observed=PointCloudSet.from_array(observed),
        seed=seed,
        noise=noise,
        cloud_model=model,
    )


def _truth_stack(instance: SyntheticInstance, p: int) -> StiefelStack:
    blocks = instance.rotations.blocks
    if p == instance.d:
        return instance.rotations
    padded = np.zeros((instance.n, instance.d, p))
    padded[:, :, : instance.d] = blocks
    return StiefelStack(padded)


def _check_method(method: str, p: int | None) -> None:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if p is not None and method != "bm":
        raise ValueError(f"p={p} applies only to method 'bm', not {method!r}")


def run_trial(
    instance: SyntheticInstance,
    method: str = TrialResult.method,
    p: int | None = None,
    time_limit_s: float | None = PhaseGrid.time_limit_s,
) -> TrialResult:
    """Solve one instance and certify the outcome.

    gpm_spectral seeds from the Gram matrix's factor, centred only for an
    instance with shifts.  Solver aborts (NumericalError, and LinAlgError
    from a non-converging eigh or SVD) are recorded as failed trials.
    """
    _check_method(method, p)
    has_shifts = bool(np.any(instance.shifts))
    gram = build_gram(instance.observed, center_first=has_shifts)
    t0 = time.perf_counter()
    try:
        if method == "bm":
            cfg = BmConfig(p=p, seed=instance.seed, time_limit_s=time_limit_s)
            report = solve_bm(gram, cfg)
        else:
            init = "spectral" if method == "gpm_spectral" else "random"
            # The 1e-6 stopping tolerance is part of the measured protocol:
            # a tighter stop shifts the empirical phase transition upward.
            cfg = GpmConfig(init=init, seed=instance.seed, time_limit_s=time_limit_s)
            report = solve(gram, cfg)
        cert = certify(gram, report.solution)
        converged = report.converged
        certified = converged and cert.certified
        iterations = report.iterations
        truth = _truth_stack(instance, report.solution.p)
        df_truth = df(report.solution, truth)
        timeout = report.timed_out
    except (NumericalError, np.linalg.LinAlgError):
        converged = certified = False
        iterations = 0
        df_truth = math.nan
        timeout = False
    runtime_ms = 1000.0 * (time.perf_counter() - t0)
    return TrialResult(
        n=instance.n,
        m=instance.m,
        d=instance.d,
        sigma=instance.sigma,
        seed=instance.seed,
        gpm_converged=converged,
        certified=certified,
        iterations=iterations,
        df_to_truth=df_truth,
        runtime_ms=runtime_ms,
        timeout=timeout,
        method=method,
    )


def trial_seed(base_seed: int, n: int, m: int, sigma: float, trial: int) -> int:
    """Deterministic per-trial seed: base XOR 64-bit hash of cell coordinates."""
    key = f"{n}|{m}|{float(sigma)!r}|{trial}".encode()
    mix = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")
    return (base_seed ^ mix) & (2**63 - 1)


def _run_cell(args) -> CellSummary:
    grid, method, p, n, m, sigma = args
    results = []
    for trial in range(grid.trials_per_cell):
        seed = trial_seed(grid.base_seed, n, m, sigma, trial)
        instance = generate_instance(grid.cloud_model, n, m, grid.d, sigma, seed=seed)
        results.append(
            run_trial(instance, method=method, p=p, time_limit_s=grid.time_limit_s)
        )
    finite_df = [r.df_to_truth for r in results if math.isfinite(r.df_to_truth)]
    return CellSummary(
        model=grid.cloud_model,
        n=n,
        m=m,
        d=grid.d,
        sigma=sigma,
        trials=len(results),
        successes=sum(r.certified for r in results),
        mean_iters=float(np.mean([r.iterations for r in results])),
        mean_df_truth=float(np.mean(finite_df)) if finite_df else math.nan,
        timeouts=sum(r.timeout for r in results),
    )


def phase_diagram(
    grid: PhaseGrid,
    method: str = TrialResult.method,
    p: int | None = None,
    workers: int = 1,
) -> list[CellSummary]:
    """One summary row per (n, m, sigma) cell, in deterministic grid order."""
    _check_method(method, p)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cells = [
        (grid, method, p, n, m, sigma)
        for n in grid.n_list
        for m in grid.m_list
        for sigma in grid.sigma_list
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cell, cells))
    return [_run_cell(cell) for cell in cells]


def write_phase_csv(path, rows: list[CellSummary]) -> None:
    with open(path, "w") as fh:
        fh.write(PHASE_CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")


def crossing_sigma(rows: list[CellSummary]) -> float | None:
    """Linear-interpolated sigma at which the success fraction crosses CROSSING_LEVEL."""
    pts = sorted((r.sigma, r.success_fraction) for r in rows)
    for (s0, f0), (s1, f1) in zip(pts, pts[1:]):
        if (f0 - CROSSING_LEVEL) * (f1 - CROSSING_LEVEL) <= 0 and f0 != f1:
            return s0 + (f0 - CROSSING_LEVEL) * (s1 - s0) / (f0 - f1)
    return None
