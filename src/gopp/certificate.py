"""Dual-certificate optimality checks and deterministic SNR thresholds.

A candidate stack S is a certified global maximizer of <C, S S^T> when the
block-diagonal multiplier Lambda (blocks Lambda_ii = sum_j C_ij S_j S_i^T)
satisfies (Lambda - C) S = 0 and Lambda - C is PSD with exactly d zero
eigenvalues.  Numerically: stationarity residual below stat_tol and the
(d+1)-th smallest eigenvalue of Lambda - C strictly above psd_tol.

Lambda - C is block diagonal minus D D^T, with D the nd x m factor of C, so
nothing here forms an nd x nd matrix: the multiplier and the stationarity
residual cost O(nd m p), and each of the two eigenvalues O(n d^3) once plus
O(nd m^2 + m^3) per shift of a safeguarded bisection (typically 6 to 15
shifts).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linops import StiefelStack, lambda_kth_smallest
from .model import GramMatrix, SyntheticInstance


class Verdict(str, Enum):
    CERTIFIED_UNIQUE_GLOBAL = "certified_unique_global"
    STATIONARY_NOT_CERTIFIED = "stationary_not_certified"
    NOT_STATIONARY = "not_stationary"


@dataclass
class Certificate:
    lambda_blocks: np.ndarray  # (n, d, d), symmetrized
    stationarity_residual: float  # ||(Lambda - C) S|| (operator norm)
    stationarity_residual_fro: float
    lambda_d_plus_1: float
    lambda_min: float  # smallest eigenvalue of Lambda - C (PSD check)
    min_block_eig: float
    asymmetry: float  # max_i ||raw Lambda_ii - Lambda_ii^T||_F
    verdict: Verdict

    @property
    def certified(self) -> bool:
        return self.verdict is Verdict.CERTIFIED_UNIQUE_GLOBAL

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "stationarity_residual": self.stationarity_residual,
            "stationarity_residual_fro": self.stationarity_residual_fro,
            "lambda_d_plus_1": self.lambda_d_plus_1,
            "lambda_min": self.lambda_min,
            "min_block_eig": self.min_block_eig,
            "asymmetry": self.asymmetry,
            "lambda_blocks": self.lambda_blocks.reshape(len(self.lambda_blocks), -1).tolist(),
        }


def build_lambda(c: GramMatrix, s: StiefelStack) -> np.ndarray:
    """The multiplier blocks Lambda_ii = sum_j C_ij S_j S_i^T, unsymmetrized.

    At critical points these are symmetric; the residual asymmetry is a
    numerical diagnostic measured by :func:`certify`.
    """
    if s.n != c.n or s.d != c.d:
        raise ValueError(
            f"stack (n={s.n}, d={s.d}) does not match Gram matrix (n={c.n}, d={c.d})"
        )
    cs = (c @ s.stacked).reshape(s.n, s.d, s.p)
    return cs @ s.blocks.transpose(0, 2, 1)


def certify(
    c: GramMatrix,
    s: StiefelStack,
    stat_tol: float = 1e-6,
    psd_tol: float = 0.0,
) -> Certificate:
    """Evaluate the dual certificate for a candidate stack (p >= d allowed)."""
    if not stat_tol > 0:
        raise ValueError(f"stat_tol must be positive, got {stat_tol}")
    if not math.isfinite(psd_tol):
        raise ValueError(f"psd_tol must be finite, got {psd_tol}")
    raw = build_lambda(c, s)
    asymmetry = float(np.max(np.linalg.norm(raw - raw.transpose(0, 2, 1), axis=(1, 2))))
    blocks = 0.5 * (raw + raw.transpose(0, 2, 1))
    n, d = c.n, c.d
    # (Lambda - C) S, blockwise Lambda_ii S_i minus C S.
    residual_mat = (blocks @ s.blocks).reshape(n * d, s.p) - c @ s.stacked
    residual = float(np.linalg.norm(residual_mat, 2))
    residual_fro = float(np.linalg.norm(residual_mat))
    # Eigenvalues of Lambda - C = blockdiag(Lambda_ii) - D D^T, from the factor.
    lam_d1 = lambda_kth_smallest(blocks, c.factor, d + 1)
    lam_min = lambda_kth_smallest(blocks, c.factor, 1)
    min_block_eig = float(np.min(np.linalg.eigvalsh(blocks)[:, 0]))
    if residual >= stat_tol:
        verdict = Verdict.NOT_STATIONARY
    elif lam_d1 > psd_tol and lam_min >= -stat_tol:
        # PSD up to the residual-sized slack on the d null directions, plus a
        # strict gap: the matrix certifies a unique rank-d global maximizer.
        # Checking lam_d1 alone is not enough; a spurious critical point can
        # hide a negative eigenvalue below the null space.
        verdict = Verdict.CERTIFIED_UNIQUE_GLOBAL
    else:
        verdict = Verdict.STATIONARY_NOT_CERTIFIED
    return Certificate(
        lambda_blocks=blocks,
        stationarity_residual=residual,
        stationarity_residual_fro=residual_fro,
        lambda_d_plus_1=lam_d1,
        lambda_min=lam_min,
        min_block_eig=min_block_eig,
        asymmetry=asymmetry,
        verdict=verdict,
    )


@dataclass
class SnrCheck:
    """Deterministic noise thresholds under which tightness/convergence hold."""

    max_block_noise: float  # max_i ||Delta_i|| (operator norm)
    sigma_min_a: float
    sigma_max_a: float
    kappa: float
    threshold_main: float  # sigma_min(A) / (192 kappa^3): SDP tightness
    threshold_gpm: float  # sigma_min(A) / (384 kappa^4 sqrt(d)): spectral GPM
    satisfied_main: bool
    satisfied_gpm: bool


def snr_check(instance: SyntheticInstance) -> SnrCheck:
    """Evaluate both deterministic thresholds with the true A and noise draws."""
    a = instance.truth.points
    svals = np.linalg.svd(a, compute_uv=False)
    sigma_max, sigma_min = float(svals[0]), float(svals[-1])
    if sigma_min <= 1e-12 * sigma_max:
        raise ValueError("ground-truth cloud is rank deficient; kappa undefined")
    kappa = sigma_max / sigma_min
    deltas = instance.noise_blocks()
    max_block = float(max(np.linalg.norm(deltas[i], 2) for i in range(instance.n)))
    thr_main = sigma_min / (192.0 * kappa**3)
    thr_gpm = sigma_min / (384.0 * kappa**4 * math.sqrt(instance.d))
    return SnrCheck(
        max_block_noise=max_block,
        sigma_min_a=sigma_min,
        sigma_max_a=sigma_max,
        kappa=kappa,
        threshold_main=thr_main,
        threshold_gpm=thr_gpm,
        satisfied_main=max_block <= thr_main,
        satisfied_gpm=max_block <= thr_gpm,
    )
