"""Low-rank factorized ascent on the block Stiefel manifold St(d,p)^n.

Maximizes <C, S S^T> by Riemannian gradient ascent with polar retraction:
alternating Barzilai-Borwein trial steps, a grow rule where they are
undefined, and Armijo backtracking as the only line search.  Each trial
point is one blockwise polar of S + step * grad, which cannot lose rank
since grad is tangent.  At p = d this is the original orthogonal-block
problem; at p = nd it attains the convex relaxation's value.
C enters only through its norms and one product ``c @ S`` per point.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .gpm import NumericalError, SolveReport, check_time_limit, random_init
from .linops import RankDeficiencyWarning, StiefelStack, polar_blockwise
from .model import GramMatrix

EPS = float(np.finfo(float).eps)
ARMIJO_C = 1e-4  # sufficient-increase constant of the line search
BACKTRACK = 0.5  # step shrink factor of the line search


@dataclass(frozen=True)
class BmConfig:
    p: int | None = None  # columns per block, >= d; None takes 2d+1, the benign-landscape regime
    grad_tol: float = 1e-8  # stop when ||grad|| <= grad_tol * ||C||_F
    max_iter: int = 5000
    seed: int = 0
    time_limit_s: float | None = None

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        check_time_limit(self.time_limit_s)


def tangent_project_stack(s: StiefelStack, g: np.ndarray) -> np.ndarray:
    """Blockwise projection onto the tangent space at S: g_i - sym(g_i S_i^T) S_i."""
    sym = 0.5 * (g @ s.blocks.transpose(0, 2, 1) + s.blocks @ g.transpose(0, 2, 1))
    return g - sym @ s.blocks


def riemannian_gradient(c: GramMatrix, s: StiefelStack) -> np.ndarray:
    """Tangent projection of sum_j C_ij S_j (half the ambient gradient).

    Vanishes exactly at first-order critical points; kept at this
    normalization so its norm is directly comparable with the stationarity
    residual of the dual certificate.
    """
    g = (c @ s.stacked).reshape(s.n, s.d, s.p)
    return tangent_project_stack(s, g)


def retract(s: StiefelStack, t: np.ndarray, step: float) -> StiefelStack:
    """Polar retraction of S + step * T back onto the manifold; T must be tangent at S.

    For T tangent at S, (S_i + step T_i)(S_i + step T_i)^T = I + step^2 T_i T_i^T
    has no eigenvalue below 1, so no block can lose rank.  A non-tangent T
    can empty a block; :func:`polar_blockwise` then warns
    :class:`RankDeficiencyWarning`.
    """
    if step < 0:
        raise ValueError("step must be nonnegative")
    if step == 0.0:
        return s
    return polar_blockwise(s.blocks + step * t)


def solve_bm(
    c: GramMatrix,
    config: BmConfig,
    init: StiefelStack | None = None,
) -> SolveReport:
    """Gradient ascent on St(d,p)^n; stops at small Riemannian gradient.

    The first trial step is 1/||C||_2.  After that, with s = S_new - S and
    y = grad(S_new) - grad(S) (ambient differences of the blocks), trial
    steps alternate between BB1 <s,s>/|<s,y>| and BB2 |<s,y>|/<y,y>
    (Barzilai and Borwein, IMA J. Numer. Anal., 1988; on the Stiefel
    manifold, Wen and Yin, Math. Program., 2013).  Where <s,y> = 0 or the BB
    value is not finite and positive, the trial step is instead the last
    accepted step over BACKTRACK, capped at 1e6 times the last trial step.
    Every trial step backtracks by BACKTRACK until the Armijo test with
    ARMIJO_C holds, which keeps the objective monotone; a non-finite
    objective raises :class:`NumericalError`.  Where the objective change
    drops below its float64 resolution (|f_new - f| <= 8 eps |f|), Armijo
    cannot see an increase, and a step is accepted on the approximate Armijo
    condition of Hager and Zhang (SIAM J. Optim., 2005) instead:
    2 <grad(S_new), grad(S)> >= (2 ARMIJO_C - 1) * slope.  Backtracking below 1e-20 ends the ascent.
    The report's residual_history holds ||grad|| at every iterate, the start
    included, and converged says whether the last one is within tolerance.
    """
    n, d = c.n, c.d
    p = 2 * d + 1 if config.p is None else config.p
    if p < d:
        raise ValueError(f"p={p} must be at least d={d}")
    if init is not None:
        if (init.n, init.d, init.p) != (n, d, p):
            raise ValueError("init stack does not match (n, d, p)")
        s = init
    else:
        s = random_init(n, d, np.random.default_rng(config.seed), p=p)
    tol = config.grad_tol * c.fro_norm()
    eta = 1.0 / max(c.spectral_norm(), 1e-300)

    def evaluate(s: StiefelStack) -> tuple[float, np.ndarray]:
        """The objective and the Riemannian gradient at S, both from one product C S."""
        cs = c @ s.stacked
        return float(np.sum(cs * s.stacked)), tangent_project_stack(s, cs.reshape(n, d, p))

    start = time.monotonic()
    f, grad = evaluate(s)
    objective_history = [f]
    residual_history = [float(np.linalg.norm(grad))]
    converged = residual_history[-1] <= tol
    timed_out = stalled = False
    iterations = 0
    with warnings.catch_warnings():
        # A tangent step cannot empty a block; see retract.
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        while not (converged or timed_out) and iterations < config.max_iter:
            # Directional derivative along grad is 2 ||grad||^2 (ambient factor).
            gnorm = residual_history[-1]
            slope = 2.0 * gnorm * gnorm
            step = eta
            while True:
                s_new = retract(s, grad, step)
                f_new, grad_new = evaluate(s_new)
                if not math.isfinite(f_new):
                    raise NumericalError("objective became non-finite during ascent")
                # Where f cannot resolve the change, the slope at s_new is tested instead.
                if f_new >= f + ARMIJO_C * step * slope or (
                    abs(f_new - f) <= 8.0 * EPS * abs(f)
                    and 2.0 * float(np.sum(grad_new * grad)) >= (2.0 * ARMIJO_C - 1.0) * slope
                ):
                    break
                step *= BACKTRACK
                if step < 1e-20:
                    stalled = True  # no trial step is accepted: S cannot move
                    break
            if stalled:
                break
            # Next trial step: BB1 after even iterations, BB2 after odd ones.
            ds = s_new.blocks - s.blocks
            dg = grad_new - grad
            sy, yy = abs(float(np.sum(ds * dg))), float(np.sum(dg * dg))
            bb = math.nan
            if sy > 0 and yy > 0:
                bb = float(np.sum(ds * ds)) / sy if iterations % 2 == 0 else sy / yy
            eta = bb if 0 < bb < math.inf else min(step / BACKTRACK, 1e6 * eta)
            s, f, grad = s_new, f_new, grad_new
            residual_history.append(float(np.linalg.norm(grad)))
            objective_history.append(f)
            iterations += 1
            converged = residual_history[-1] <= tol
            limit = config.time_limit_s
            timed_out = not converged and limit is not None and time.monotonic() - start > limit
    return SolveReport(
        solution=s,
        iterations=iterations,
        residual_history=residual_history,
        objective_history=objective_history,
        converged=converged,
        timed_out=timed_out,
    )
