"""Block linear algebra on stacks of row-orthonormal matrices.

A "stack" is n matrices of size d x p (p >= d) stored as a (n, d, p) array.
Stacked vertically they form an nd x p matrix, the basic variable of the
synchronization objective.  This module provides the polar projection onto
the orthogonal group / Stiefel manifold, the alignment distance d_F, the
Gram-change residual ||S'S'^T - SS^T||_F from p x p products, partial traces,
extreme eigenvalues, and truncated SVDs used everywhere else.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Singular values below RANK_TOL * sigma_max make the polar factor non-unique.
RANK_TOL = 1e-12
# Row-orthonormality acceptance for stack blocks, ||B B^T - I||_F.
ORTH_TOL = 1e-10


class RankDeficiencyWarning(UserWarning):
    """The polar factor is not unique: input is (nearly) rank deficient."""


class SpectralGapWarning(UserWarning):
    """The requested singular subspace is ill determined (near-tied spectrum)."""


@dataclass(frozen=True)
class StiefelStack:
    """n stacked d x p blocks, each with orthonormal rows (p >= d).

    With p == d the blocks are orthogonal matrices and the stack lives in
    O(d)^n; that case is aliased as :data:`RotationStack`.
    """

    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.ascontiguousarray(np.asarray(self.blocks, dtype=float))
        if blocks.ndim != 3:
            raise ValueError(f"expected (n, d, p) blocks, got shape {blocks.shape}")
        n, d, p = blocks.shape
        if n < 1 or d < 1 or p < d:
            raise ValueError(f"invalid stack shape n={n}, d={d}, p={p}")
        if not np.all(np.isfinite(blocks)):
            raise ValueError("stack blocks must be finite")
        gram = blocks @ blocks.transpose(0, 2, 1)
        err = np.linalg.norm(gram - np.eye(d), axis=(1, 2))
        worst = int(np.argmax(err))
        if err[worst] > ORTH_TOL:
            raise ValueError(
                f"block {worst} is not row-orthonormal: ||BB^T - I||_F = {err[worst]:.3e}"
            )
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    @property
    def d(self) -> int:
        return self.blocks.shape[1]

    @property
    def p(self) -> int:
        return self.blocks.shape[2]

    @property
    def stacked(self) -> np.ndarray:
        """The nd x p matrix obtained by stacking the blocks vertically."""
        n, d, p = self.blocks.shape
        return self.blocks.reshape(n * d, p)

    @classmethod
    def from_stacked(cls, mat: np.ndarray, n: int) -> "StiefelStack":
        mat = np.asarray(mat, dtype=float)
        nd, p = mat.shape
        if nd % n != 0:
            raise ValueError(f"cannot split {nd} rows into {n} blocks")
        d = nd // n
        return cls(mat.reshape(n, d, p))

    @classmethod
    def identity(cls, n: int, d: int, p: int | None = None) -> "StiefelStack":
        """The synchronized stack Z: n copies of [I_d | 0]."""
        p = d if p is None else p
        block = np.zeros((d, p))
        block[:, :d] = np.eye(d)
        return cls(np.broadcast_to(block, (n, d, p)).copy())


# p == d specialization; same storage and semantics.
RotationStack = StiefelStack


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of aligning X to Y over a global orthogonal factor."""

    distance: float
    aligner: np.ndarray  # p x p orthogonal Q achieving min ||X - Y Q||_F


def _apply_sign_convention(u: np.ndarray, vt: np.ndarray) -> None:
    """Flip singular-pair signs so each left vector's largest entry is positive.

    Ties break at the lowest index (argmax convention).  Operates in place.
    """
    for k in range(vt.shape[0]):
        col = u[:, k]
        j = int(np.argmax(np.abs(col)))
        if col[j] < 0:
            u[:, k] = -col
            vt[k, :] = -vt[k, :]


def polar(x: np.ndarray) -> np.ndarray:
    """Nearest row-orthonormal matrix to a d x p matrix x (p >= d).

    Returns U V^T from the thin SVD; the unique maximizer of <R, x> over the
    manifold whenever sigma_min(x) > 0.  Near-rank-deficient inputs trigger a
    :class:`RankDeficiencyWarning` but still return the SVD-based choice.
    (Flipping a singular pair u_k, v_k together leaves U V^T unchanged, so no
    sign convention is needed here.)
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"polar expects a matrix, got shape {x.shape}")
    d, p = x.shape
    if p < d:
        raise ValueError(f"polar expects p >= d, got {d} x {p}")
    if not np.all(np.isfinite(x)):
        raise ValueError("polar input must be finite")
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
        warnings.warn(
            f"polar factor is non-unique (sigma_min={s[-1]:.3e}, sigma_max={s[0]:.3e})",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return u @ vt


def polar_blockwise(stack) -> StiefelStack:
    """Blockwise polar projection of an (n, d, p) array or stack onto St(d,p)^n."""
    blocks = stack.blocks if isinstance(stack, StiefelStack) else np.asarray(stack, dtype=float)
    if blocks.ndim != 3:
        raise ValueError(f"expected (n, d, p) blocks, got shape {blocks.shape}")
    if not np.all(np.isfinite(blocks)):
        raise ValueError("polar_blockwise input must be finite")
    u, s, vt = np.linalg.svd(blocks, full_matrices=False)
    bad = np.flatnonzero((s[:, 0] == 0.0) | (s[:, -1] <= RANK_TOL * s[:, 0]))
    for i in bad:
        warnings.warn(
            f"polar factor of block {i} is non-unique", RankDeficiencyWarning, stacklevel=2
        )
    return StiefelStack(u @ vt)


def align(x, y) -> AlignmentResult:
    """Optimal global alignment of two nd x p stacks: min_Q ||X - Y Q||_F.

    The minimizer is Q = polar(Y^T X); the distance is the gauge-invariant
    d_F metric.
    """
    xs = x.stacked if isinstance(x, StiefelStack) else np.asarray(x, dtype=float)
    ys = y.stacked if isinstance(y, StiefelStack) else np.asarray(y, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError(f"shape mismatch: {xs.shape} vs {ys.shape}")
    with warnings.catch_warnings():
        # Degenerate Y^T X is resolved by polar's deterministic convention.
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        q = polar(ys.T @ xs)
    distance = float(np.linalg.norm(xs - ys @ q))
    return AlignmentResult(distance=distance, aligner=q)


def df(x, y) -> float:
    """Alignment distance d_F(X, Y)."""
    return align(x, y).distance


def df_squared_identity(x: StiefelStack, y: StiefelStack) -> tuple[float, float]:
    """Both computations of d_F^2 for on-manifold stacks.

    Returns (||X - YQ||_F^2, 2nd - 2||X^T Y||_*); the two agree to roundoff
    when X and Y are both on St(d,p)^n.
    """
    if (x.n, x.d, x.p) != (y.n, y.d, y.p):
        raise ValueError("stacks must share (n, d, p)")
    direct = align(x, y).distance ** 2
    nuclear = float(np.sum(np.linalg.svd(x.stacked.T @ y.stacked, compute_uv=False)))
    return direct, 2.0 * x.n * x.d - 2.0 * nuclear


def gram_change(s: np.ndarray, s_new: np.ndarray) -> float:
    """||S' S'^T - S S^T||_F for two nd x p matrices, from p x p products only.

    With Delta = S' - S the difference is S Delta^T + Delta S'^T, whose squared
    norm is <S^T S, Delta^T Delta> + <S'^T S', Delta^T Delta>
    + 2 tr((Delta^T S')(Delta^T S)).  The terms are of order ||Delta||^2, so
    the result is accurate to roundoff relative to the residual while Delta
    is on the residual's scale, as between successive solver iterates.  A
    global rotation S' = S Q leaves the Gram matrix unchanged with a large
    Delta; align S' to S first when such moves are possible.
    """
    delta = s_new - s
    dd = delta.T @ delta
    sq = (
        np.sum((s.T @ s) * dd)
        + np.sum((s_new.T @ s_new) * dd)
        + 2.0 * np.trace((delta.T @ s_new) @ (delta.T @ s))
    )
    return math.sqrt(max(float(sq), 0.0))


def partial_trace(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted partial trace of a block matrix: out[i, j] = Tr(W M_ij).

    m is nd x nd with d inferred from the d x d weight W.
    """
    m = np.asarray(m, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weight must be square, got shape {w.shape}")
    d = w.shape[0]
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % d != 0:
        raise ValueError(f"matrix shape {m.shape} incompatible with d={d} blocks")
    n = m.shape[0] // d
    m4 = m.reshape(n, d, n, d)
    # Tr(W M_ij) = sum_{a,b} W[a, b] M_ij[b, a]
    return np.einsum("ab,ibja->ij", w, m4)


def lambda_kth_smallest(m: np.ndarray, k: int) -> float:
    """k-th smallest eigenvalue of a symmetric matrix (1-based k).

    The input must be symmetric to 1e-10 (relative); it is explicitly
    symmetrized before the dense eigensolve.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    nrm = np.linalg.norm(m)
    if np.linalg.norm(m - m.T) > 1e-10 * max(1.0, nrm):
        raise ValueError("matrix is not symmetric within tolerance")
    if not 1 <= k <= m.shape[0]:
        raise ValueError(f"k={k} out of range for N={m.shape[0]}")
    vals = np.linalg.eigvalsh(0.5 * (m + m.T))
    return float(vals[k - 1])


def top_d_left_singular(d_mat: np.ndarray, d: int) -> np.ndarray:
    """Orthonormal basis of the top-d left singular subspace of an nd x m matrix.

    Warns with :class:`SpectralGapWarning` when sigma_d and sigma_{d+1}
    coincide within 1e-12 (relative), which makes the subspace non-unique.
    """
    d_mat = np.asarray(d_mat, dtype=float)
    if d_mat.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {d_mat.shape}")
    if d_mat.shape[0] < d or d_mat.shape[1] < d:
        raise ValueError(f"need at least d={d} rows and columns, got {d_mat.shape}")
    u, s, vt = np.linalg.svd(d_mat, full_matrices=False)
    _apply_sign_convention(u, vt)
    if len(s) > d and s[d - 1] - s[d] <= 1e-12 * max(s[0], 1e-300):
        warnings.warn(
            f"singular gap sigma_{d} - sigma_{d + 1} = {s[d - 1] - s[d]:.3e} is degenerate",
            SpectralGapWarning,
            stacklevel=2,
        )
    return u[:, :d]
