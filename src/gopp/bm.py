"""Low-rank factorized ascent on the block Stiefel manifold St(d,p)^n.

Maximizes <C, S S^T> by Riemannian gradient ascent with polar retraction.
At p = d this is the original orthogonal-block problem; at p = nd it attains
the convex relaxation's value.  Includes sampled second-order criticality
residuals and the deterministic landscape bounds for synthetic instances.
C enters only through ``c @ S`` and its norms, never as a dense nd x nd matrix.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .certificate import build_lambda
from .gpm import NumericalError, SolveReport, check_time_limit, objective, random_init
from .linops import RankDeficiencyWarning, StiefelStack, polar_blockwise
from .model import GramMatrix, SyntheticInstance

EPS = float(np.finfo(float).eps)
ARMIJO_C = 1e-4  # sufficient-increase constant of the line search
BACKTRACK = 0.5  # step shrink factor of the line search


@dataclass(frozen=True)
class BmConfig:
    p: int  # columns per block, >= d (the benign-landscape regime is p >= 2d+1)
    grad_tol: float = 1e-8  # stop when ||grad|| <= grad_tol * ||C||_F
    max_iter: int = 5000
    seed: int = 0
    time_limit_s: float | None = None

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
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
    """Polar retraction of S + step * T back onto the manifold.

    A rank-deficient block (possible for a wild step) is handled by halving
    the step until the polar factor is unique again.
    """
    if step < 0:
        raise ValueError("step must be nonnegative")
    if step == 0.0:
        return s
    for _ in range(60):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RankDeficiencyWarning)
            out = polar_blockwise(s.blocks + step * t)
        if not any(issubclass(w.category, RankDeficiencyWarning) for w in caught):
            return out
        step *= 0.5
    raise NumericalError("retraction failed: persistent rank deficiency")


def solve_bm(
    c: GramMatrix,
    config: BmConfig,
    init: StiefelStack | None = None,
) -> SolveReport:
    """Gradient ascent on St(d,p)^n; stops at small Riemannian gradient.

    The step starts at 1/||C||_2 and backtracks by BACKTRACK until the Armijo
    test with ARMIJO_C holds, which keeps the objective monotone; a
    non-finite objective raises :class:`NumericalError`.  Where the
    objective change drops below its float64 resolution
    (|f_new - f| <= 8 eps |f|), Armijo cannot see an increase, and a step is
    accepted on the approximate Armijo condition of Hager and Zhang (SIAM J.
    Optim., 2005) instead: 2 <grad(S_new), grad(S)> >= (2 ARMIJO_C - 1) * slope.
    The report's residual_history holds ||grad|| at every iterate, the start
    included, and converged says whether the last one is within tolerance.
    """
    n, d, p = c.n, c.d, config.p
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
    start = time.monotonic()
    f = objective(c, s)
    objective_history = [f]
    grad = riemannian_gradient(c, s)
    residual_history = [float(np.linalg.norm(grad))]
    converged = residual_history[-1] <= tol
    timed_out = False
    iterations = 0
    while not (converged or timed_out) and iterations < config.max_iter:
        # Directional derivative along grad is 2 ||grad||^2 (ambient factor).
        gnorm = residual_history[-1]
        slope = 2.0 * gnorm * gnorm
        grad_new = None  # the gradient at s_new, when the line search computed it
        step = eta
        while True:
            s_new = retract(s, grad, step)
            f_new = objective(c, s_new)
            if f_new >= f + ARMIJO_C * step * slope:
                break
            if abs(f_new - f) <= 8.0 * EPS * abs(f):
                # f cannot resolve the change: test the slope at s_new instead.
                grad_new = riemannian_gradient(c, s_new)
                slope_new = 2.0 * float(np.sum(grad_new * grad))
                if slope_new >= (2.0 * ARMIJO_C - 1.0) * slope:
                    break
                grad_new = None
            step *= BACKTRACK
            if step < 1e-20:
                s_new, f_new, grad_new = s, f, grad
                break
        eta = min(step / BACKTRACK, 1e6 * eta)  # try growing next time
        if not math.isfinite(f_new):
            raise NumericalError("objective became non-finite during ascent")
        s, f = s_new, f_new
        grad = grad_new if grad_new is not None else riemannian_gradient(c, s)
        residual_history.append(float(np.linalg.norm(grad)))
        objective_history.append(f)
        iterations += 1
        converged = residual_history[-1] <= tol
        timed_out = (
            not converged
            and config.time_limit_s is not None
            and time.monotonic() - start > config.time_limit_s
        )
    return SolveReport(
        solution=s,
        iterations=iterations,
        residual_history=residual_history,
        objective_history=objective_history,
        converged=converged,
        timed_out=timed_out,
    )


@dataclass
class SecondOrderResult:
    """Sampled second-order criticality residual at a first-order critical point.

    residual is the minimum of the sampled curvature form
    sum_i <Lambda_ii, T_i T_i^T> - sum_ij <C_ij, T_i T_j^T> over unit tangent
    stacks T, combined with min_i lambda_min(Lambda_ii) (the multiplier PSD
    part of the second-order condition; it is the only nontrivial part when
    the tangent space is zero-dimensional, e.g. d = p = 1).  A markedly
    negative residual witnesses an escape direction.
    """

    residual: float
    sampled_min: float
    min_block_eig: float
    escape_tangent: np.ndarray | None  # (n, d, p) tangent stack, if sampled min won
    escape_block: int | None  # block whose Lambda_ii eigenvalue won otherwise
    escape_vector: np.ndarray | None


def second_order_residual(
    c: GramMatrix,
    s: StiefelStack,
    trials: int = 100,
    seed: int = 0,
    weight: np.ndarray | None = None,
) -> SecondOrderResult:
    """Monte Carlo probe of the second-order condition at S.

    Tangent stacks are tangent-projected i.i.d. normal blocks, optionally
    left-multiplied by a d x d weight (the synthetic-mode Pi^{-1/2}
    construction).  S must be first-order critical.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grad = riemannian_gradient(c, s)
    if np.linalg.norm(grad) > 1e-6 * c.fro_norm():
        raise ValueError("S is not first-order critical; second-order probe undefined")
    raw = build_lambda(c, s)
    lam = 0.5 * (raw + raw.transpose(0, 2, 1))
    rng = np.random.default_rng(seed)
    sampled_min = math.inf
    best_tangent = None
    for _ in range(trials):
        t = rng.standard_normal((s.n, s.d, s.p))
        if weight is not None:
            t = weight @ t
        t = tangent_project_stack(s, t)
        nrm = np.linalg.norm(t)
        if nrm == 0.0:
            val = 0.0
        else:
            t = t / nrm
            ts = t.reshape(s.n * s.d, s.p)
            lam_term = float(np.einsum("iab,iac,ibc->", lam, t, t))
            c_term = float(np.sum((c @ ts) * ts))
            val = lam_term - c_term
        if val < sampled_min:
            sampled_min = val
            best_tangent = t
    block_eigs = [np.linalg.eigh(b) for b in lam]
    min_idx = int(np.argmin([e[0][0] for e in block_eigs]))
    min_block_eig = float(block_eigs[min_idx][0][0])
    if sampled_min <= min_block_eig:
        return SecondOrderResult(
            residual=sampled_min,
            sampled_min=sampled_min,
            min_block_eig=min_block_eig,
            escape_tangent=best_tangent,
            escape_block=None,
            escape_vector=None,
        )
    return SecondOrderResult(
        residual=min_block_eig,
        sampled_min=sampled_min,
        min_block_eig=min_block_eig,
        escape_tangent=None,
        escape_block=min_idx,
        escape_vector=block_eigs[min_idx][1][:, 0],
    )


@dataclass
class LandscapeReport:
    """Deterministic benign-landscape bounds evaluated on a synthetic instance."""

    delta_pi_norm: float  # ||Delta_tilde^Pi||
    partial_trace_norm: float  # ||Tr_d(Delta_tilde^Pi)||
    bound_rhs: float  # n(p - 2d) / (8 kappa (p + d) sqrt(d))
    block_noise_bound: float  # sigma_min(A) / (12 kappa)
    max_block_noise: float
    satisfied: bool
    gamma: float
    delta: float


def landscape_bounds(instance: SyntheticInstance, p: int) -> LandscapeReport:
    """Evaluate the no-spurious-local-maxima conditions for a given p.

    Works in the identity-gauge frame: observations are de-rotated by the
    ground-truth blocks first, which leaves every norm involved unchanged.
    """
    a = instance.truth.points
    n, d = instance.n, instance.d
    if p < d:
        raise ValueError(f"p={p} must be at least d={d}")
    pi = a @ a.T
    svals = np.linalg.svd(a, compute_uv=False)
    if svals[-1] <= 0.0 or not np.isfinite(svals[-1]):
        raise ValueError("A A^T is singular; rescaled noise undefined")
    kappa = float(svals[0] / svals[-1])
    derotated = np.stack(
        [
            instance.rotations.blocks[i].T @ instance.observed.clouds[i].points
            for i in range(n)
        ]
    )
    delta_blocks = derotated - a  # includes shift terms if the instance has any
    # Delta_tilde = Delta A^T Z^T + Z A Delta^T + Delta Delta^T = U G U^T with
    # U = [Delta, Z] (nd x (m + d)) and Z = 1 (x) I_d, so both norms come from
    # thin QR factors and no nd x nd or n x n matrix is formed.
    u_blocks = np.concatenate([delta_blocks, np.broadcast_to(np.eye(d), (n, d, d))], axis=2)
    g = np.block([[np.eye(instance.m), a.T], [a, np.zeros((d, d))]])
    pi_inv = np.linalg.inv(pi)
    # ||blockdiag(Pi^-1) U G U^T||_2 = ||R_PU G R_U^T||_2.
    r_pu = np.linalg.qr((pi_inv @ u_blocks).reshape(n * d, -1), mode="r")
    r_u = np.linalg.qr(u_blocks.reshape(n * d, -1), mode="r")
    delta_pi_norm = float(np.linalg.norm(r_pu @ g @ r_u.T, 2))
    # Tr(Pi^-1 Delta_tilde_ij) = <Pi^-1 U_i G, U_j>_F: a product of two n x d(m + d) factors.
    r_left = np.linalg.qr((pi_inv @ u_blocks @ g).reshape(n, -1), mode="r")
    r_right = np.linalg.qr(u_blocks.reshape(n, -1), mode="r")
    partial_trace_norm = float(np.linalg.norm(r_left @ r_right.T, 2))
    bound_rhs = n * (p - 2 * d) / (8.0 * kappa * (p + d) * math.sqrt(d))
    block_noise_bound = float(svals[-1]) / (12.0 * kappa)
    max_block_noise = float(max(np.linalg.norm(delta_blocks[i], 2) for i in range(n)))
    gamma = max(partial_trace_norm / delta_pi_norm, 1.0) if delta_pi_norm > 0 else 1.0
    delta_const = (
        (2.0 + math.sqrt(5.0)) * (p + d) * gamma / (p - 2 * d)
        if p > 2 * d
        else math.inf
    )
    satisfied = (
        max(delta_pi_norm, partial_trace_norm) <= bound_rhs
        and max_block_noise <= block_noise_bound
    )
    return LandscapeReport(
        delta_pi_norm=delta_pi_norm,
        partial_trace_norm=partial_trace_norm,
        bound_rhs=bound_rhs,
        block_noise_bound=block_noise_bound,
        max_block_noise=max_block_noise,
        satisfied=satisfied,
        gamma=gamma,
        delta=delta_const,
    )
