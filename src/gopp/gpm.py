"""Generalized power method: spectral start, fixed-point iteration, rate fit.

The iteration is S <- blockwise-polar(C S); one product C S per iterate
gives both the step and the objective.  It starts from a given stack when the
caller passes one, else from the spectral or a random start.  Stopping uses
the Gram-image residual ||S_next S_next^T - S S^T||_F <= tol, from a thin QR
(:func:`gram_change`); the reported solution is gauge-fixed so its first
block is [I_d | 0].
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .linops import (
    RankDeficiencyWarning,
    RotationStack,
    StiefelStack,
    df,
    gram_change,
    polar_blockwise,
    top_d_left_singular,
)
from .model import GramMatrix

INIT_MODES = ("spectral", "random")


class NumericalError(RuntimeError):
    """The solver produced non-finite values and aborted."""


@dataclass(frozen=True)
class GpmConfig:
    tol: float = 1e-6
    max_iter: int = 1000
    init: str = "spectral"
    seed: int = 0
    keep_iterates: bool = False
    time_limit_s: float | None = None

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}, got {self.init!r}")
        check_time_limit(self.time_limit_s)


def check_time_limit(time_limit_s: float | None) -> None:
    """A time limit is None (no limit) or a positive number of seconds."""
    if time_limit_s is not None and not time_limit_s > 0:
        raise ValueError(f"time_limit_s must be None or positive, got {time_limit_s}")


@dataclass
class SolveReport:
    """Iteration trace and candidate solution; one shape for both solvers.

    residual_history holds the quantity the solver's stop rule compares with
    its tolerance: the Gram change ||S' S'^T - S S^T||_F of each power step
    for :func:`solve`, the Riemannian gradient norm at each iterate for
    :func:`gopp.bm.solve_bm`.  The report holds no certificate; the CLI
    appends one to the JSON it emits.
    """

    solution: StiefelStack
    iterations: int
    residual_history: list[float]
    objective_history: list[float]
    converged: bool
    iterates: list[StiefelStack] | None = None
    timed_out: bool = False

    @property
    def singular_values_of_s(self) -> list[float]:
        return [float(v) for v in np.linalg.svd(self.solution.stacked, compute_uv=False)]

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "converged": self.converged,
            "timed_out": self.timed_out,
            "iterations": self.iterations,
            "residual_history": [float(r) for r in self.residual_history],
            "objective_history": [float(o) for o in self.objective_history],
            "solution": {
                "n": self.solution.n,
                "d": self.solution.d,
                "p": self.solution.p,
                "blocks_row_major": self.solution.blocks.reshape(self.solution.n, -1).tolist(),
            },
            "p": self.solution.p,
            "singular_values_of_S": self.singular_values_of_s,
        }


def objective(c: GramMatrix, s: StiefelStack) -> float:
    """<C, S S^T> = Tr(S^T C S)."""
    ss = s.stacked
    return float(np.sum((c @ ss) * ss))


def spectral_init(d_mat: np.ndarray, n: int) -> RotationStack:
    """Blockwise polar rounding of the top-d left singular basis of D (nd x m)."""
    d_mat = np.asarray(d_mat, dtype=float)
    if d_mat.shape[0] % n != 0:
        raise ValueError(f"{d_mat.shape[0]} rows do not split into {n} blocks")
    d = d_mat.shape[0] // n
    u = top_d_left_singular(d_mat, d)
    return polar_blockwise(u.reshape(n, d, d))


def random_init(n: int, d: int, rng: np.random.Generator, p: int | None = None) -> StiefelStack:
    """Blockwise polar of i.i.d. standard normal blocks."""
    p = d if p is None else p
    return polar_blockwise(rng.standard_normal((n, d, p)))


def gpm_step(cs: np.ndarray, s: StiefelStack) -> StiefelStack:
    """One power step: blockwise polar of the block product cs = C S (nd x p)."""
    if not np.all(np.isfinite(cs)):
        raise NumericalError("non-finite block product C S")
    return polar_blockwise(cs.reshape(s.n, s.d, s.p))


def gauge_fix(s: StiefelStack) -> StiefelStack:
    """Right-multiply by an orthogonal Q so block 1 becomes [I_d | 0] (removes the gauge).

    Block 1 = U [I_d | 0] V^T (full SVD) gives Q^T = V^T with its first d rows
    times U; at p = d that is polar(block 1)^T.
    """
    u, _, qt = np.linalg.svd(s.blocks[0])
    qt[: s.d] = u @ qt[: s.d]
    return StiefelStack(s.blocks @ qt.T)


def solve(
    c: GramMatrix,
    config: GpmConfig = GpmConfig(),
    d_for_init: np.ndarray | None = None,
    s_init: StiefelStack | None = None,
) -> SolveReport:
    """Run the power method to a fixed point of S = polar_blockwise(C S).

    A given s_init, of n blocks of d x p with any p >= d, is the start and
    config.init is not read; otherwise config.init picks the spectral start
    (from d_for_init) or a random one (from config.seed).  Reaching max_iter
    is not an exception: the report comes back with converged=False and the
    partial history.
    """
    n, d = c.n, c.d
    if s_init is not None:
        if (s_init.n, s_init.d) != (n, d):
            raise ValueError("s_init stack does not match (n, d)")
        s = s_init
    elif config.init == "spectral":
        if d_for_init is None:
            raise ValueError("spectral init needs the stacked data matrix D")
        s = spectral_init(d_for_init, n)
    else:
        s = random_init(n, d, np.random.default_rng(config.seed))
    start = time.monotonic()
    residual_history: list[float] = []
    cs = c @ s.stacked
    objective_history = [float(np.sum(cs * s.stacked))]
    iterates = [s] if config.keep_iterates else None
    converged = timed_out = False
    for iterations in range(1, config.max_iter + 1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            s_next = gpm_step(cs, s)
        residual = gram_change(s.stacked, s_next.stacked)
        s = s_next
        cs = c @ s.stacked
        residual_history.append(residual)
        objective_history.append(float(np.sum(cs * s.stacked)))
        if iterates is not None:
            iterates.append(s)
        if residual <= config.tol:
            converged = True
            break
        if config.time_limit_s is not None and time.monotonic() - start > config.time_limit_s:
            timed_out = True
            break
    return SolveReport(
        solution=gauge_fix(s),
        iterations=iterations,
        residual_history=residual_history,
        objective_history=objective_history,
        converged=converged,
        iterates=iterates,
        timed_out=timed_out,
    )


# d_F values below this floor are treated as numerical zero in the rate fit.
RATE_FLOOR = 1e-12
RATE_WINDOW = 10  # the rate fit uses the last RATE_WINDOW iterates above the floor


def estimate_rate(report: SolveReport, reference: StiefelStack) -> float:
    """Empirical linear rate: LS slope of log d_F(S^t, reference) (final window).

    Returns 0 by convention when the trajectory sits at the numerical floor
    from the start (exact fixed point).
    """
    if report.iterates is None:
        raise ValueError("rate estimation needs keep_iterates=True in the config")
    scale = math.sqrt(reference.n * reference.d)
    dists = np.array([df(s, reference) for s in report.iterates])
    above = np.flatnonzero(dists > RATE_FLOOR * scale)
    if len(above) < 3:
        # Floored (almost) immediately: exact fixed point, rate 0 by convention.
        return 0.0
    idx = above[-RATE_WINDOW:]
    slope = np.polyfit(idx.astype(float), np.log(dists[idx]), 1)[0]
    return float(np.exp(slope))
