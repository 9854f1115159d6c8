"""Low-rank factorized ascent on the block Stiefel manifold St(d,p)^n.

Maximizes <C, S S^T> by Riemannian gradient ascent with polar retraction:
alternating Barzilai-Borwein trial steps and Armijo backtracking as the
only line search.  Each trial point is one blockwise polar of
S + step * grad, which cannot lose rank since grad is tangent.  At p = d
this is the original orthogonal-block problem; at p = nd it attains the
convex relaxation's value.
C enters only through its norms and one product ``c @ S`` per point.  This
module holds the step rule; the loop that runs it is :func:`gopp.gpm._iterate`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .certificate import multiplier_residual
from .gpm import NumericalError, SolveReport, _iterate, check_seed, check_time_limit, random_init
from .linops import EPS, StiefelStack, fro_norm, polar_blockwise
from .model import GramMatrix

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
        check_seed(self.seed)
        check_time_limit(self.time_limit_s)


def riemannian_gradient(c: GramMatrix, s: StiefelStack) -> np.ndarray:
    """Tangent projection of sum_j C_ij S_j (half the ambient gradient), as (n, d, p) blocks.

    This is minus the dual certificate's stationarity residual (Lambda - C) S,
    taken from :func:`multiplier_residual`, so it vanishes exactly at
    first-order critical points and its norm is the certificate's
    stationarity_residual_fro.
    """
    return -multiplier_residual(c @ s.stacked, s)[2].reshape(s.n, s.d, s.p)


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

    The ascent runs on C' = 2^-k C from :meth:`GramMatrix.unit_scaled`, with
    k <= 0 while stat_tol is absolute (see the README), where every quantity
    below is taken; the report is in the units of C.  The first trial step
    is 1/||C'||_2.  After that, with s = S_new - S and
    y = grad(S_new) - grad(S) (ambient differences of the blocks), trial
    steps alternate between BB1 <s,s>/|<s,y>| and BB2 |<s,y>|/<y,y>
    (Barzilai and Borwein, IMA J. Numer. Anal., 1988; on the Stiefel
    manifold, Wen and Yin, Math. Program., 2013).  Where <s,y> = 0 or the BB
    value is not finite and positive, the last trial step is kept.
    Every trial step backtracks by BACKTRACK until the Armijo test with
    ARMIJO_C holds, which keeps the objective monotone; a non-finite
    objective raises :class:`NumericalError`.  Where the objective change
    drops below its float64 resolution (|f_new - f| <= 8 eps |f|), Armijo
    cannot see an increase, and a step is accepted on the approximate Armijo
    condition of Hager and Zhang (SIAM J. Optim., 2005) instead:
    2 <grad(S_new), grad(S)> >= (2 ARMIJO_C - 1) * slope.  Backtracking below
    1e-20 ends the ascent, and so does an accepted step that moves S by at
    most one rounding unit per entry (||S_new - S||_F^2 <= eps^2 ndp).
    The report's residual_history holds ||grad|| at every iterate, the start
    included: the certificate's stationarity_residual_fro, ||(Lambda - C) S||_F,
    at that iterate.  converged says whether the last one is within tolerance.
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
    scaled, k = c.unit_scaled()
    if k > 0:  # on C' clouds x1e77 converge where stat_tol says not stationary (ROADMAP item 1)
        scaled, k = c, 0
    tol = config.grad_tol * scaled.fro_norm()
    return _iterate(_ascent_steps(scaled, s), tol, config.max_iter, config.time_limit_s, k, k)


def _ascent_steps(c: GramMatrix, s: StiefelStack):
    """The start, then each accepted step, with ||grad||; ends where S cannot move."""

    def evaluate(s: StiefelStack) -> tuple[float, np.ndarray]:
        """The objective and the Riemannian gradient at S, both from one product C S."""
        cs = c @ s.stacked
        return float(np.sum(cs * s.stacked)), -multiplier_residual(cs, s)[2].reshape(s.blocks.shape)

    eta = 1.0 / max(c.spectral_norm(), 1e-300)
    f, grad = evaluate(s)
    for iterations in itertools.count():
        gnorm = float(fro_norm(grad))
        yield s, gnorm, f
        # Directional derivative along grad is 2 ||grad||^2 (ambient factor).
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
                return  # no trial step is accepted: S cannot move
        ds = s_new.blocks - s.blocks
        ss = float(np.sum(ds * ds))
        if ss <= EPS * EPS * ds.size:
            return  # S moves by at most a rounding unit per entry: it cannot move
        # Next trial step: BB1 after even iterations, BB2 after odd ones.
        dg = grad_new - grad
        sy, yy = abs(float(np.sum(ds * dg))), float(np.sum(dg * dg))
        if sy > 0 and yy > 0:
            bb = ss / sy if iterations % 2 == 0 else sy / yy
            eta = bb if 0 < bb < math.inf else eta  # where BB is undefined, eta is kept
        s, f, grad = s_new, f_new, grad_new
