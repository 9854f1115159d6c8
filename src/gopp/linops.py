"""Block linear algebra on stacks of row-orthonormal matrices.

A "stack" is n matrices of size d x p (p >= d) stored as a (n, d, p) array.
Stacked vertically they form an nd x p matrix, the basic variable of the
synchronization objective.  This module provides the polar projection onto
the orthogonal group / Stiefel manifold (blockwise from one batched eigh of
the d x d Gram matrices, with the SVD for ill-conditioned blocks), the
alignment distance d_F, the Gram-change residual ||S'S'^T - SS^T||_F from
a thin QR, the eigenvalues of diagonal minus low-rank matrices, and
truncated SVDs used everywhere else.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# Singular values below RANK_TOL * sigma_max make the polar factor non-unique.
RANK_TOL = 1e-12
# Row-orthonormality acceptance for stack blocks, ||B B^T - I||_F.
ORTH_TOL = 1e-10
# polar_blockwise takes a block's polar factor from its d x d Gram only when
# lam_min > _GRAM_TOL * lam_max, i.e. kappa = sigma_max / sigma_min < 100.
# The Gram path's error against the SVD grows as about 0.07 eps kappa^2
# (1.5e-11 measured at kappa = 1e3), so beyond that the SVD is used.
_GRAM_TOL = 1e-4


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
        _check_shape(blocks)
        if not np.all(np.isfinite(blocks)):
            raise ValueError("stack blocks must be finite")
        d = blocks.shape[1]
        gram = blocks @ blocks.transpose(0, 2, 1)
        err = np.linalg.norm(gram - np.eye(d), axis=(1, 2))
        worst = int(np.argmax(err))
        if err[worst] > ORTH_TOL:
            raise ValueError(
                f"block {worst} is not row-orthonormal: ||BB^T - I||_F = {err[worst]:.3e}"
            )
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def _orthonormal(cls, blocks: np.ndarray) -> "StiefelStack":
        """Wrap blocks that are row-orthonormal by construction, without the re-check."""
        blocks.setflags(write=False)
        stack = object.__new__(cls)
        object.__setattr__(stack, "blocks", blocks)
        return stack

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
    def identity(cls, n: int, d: int, p: int | None = None) -> "StiefelStack":
        """The synchronized stack Z: n copies of [I_d | 0]."""
        p = d if p is None else p
        block = np.zeros((d, p))
        block[:, :d] = np.eye(d)
        return cls(np.broadcast_to(block, (n, d, p)).copy())


def _check_shape(blocks: np.ndarray) -> None:
    if blocks.ndim != 3:
        raise ValueError(f"expected (n, d, p) blocks, got shape {blocks.shape}")
    n, d, p = blocks.shape
    if n < 1 or d < 1 or p < d:
        raise ValueError(f"invalid stack shape n={n}, d={d}, p={p}")


# p == d specialization; same storage and semantics.
RotationStack = StiefelStack


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of aligning X to Y over a global orthogonal factor."""

    distance: float
    aligner: np.ndarray  # p x p orthogonal Q achieving min ||X - Y Q||_F


def polar(x: np.ndarray) -> np.ndarray:
    """Nearest row-orthonormal matrix to a d x p matrix x (p >= d).

    Returns U V^T from the thin SVD; the unique maximizer of <R, x> over the
    manifold whenever sigma_min(x) > 0.  Near-rank-deficient inputs trigger a
    :class:`RankDeficiencyWarning` but still return the SVD-based choice.
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


def _transposed(blocks: np.ndarray) -> np.ndarray:
    """Blockwise transpose as a contiguous copy: matmul is ~3x slower on the view."""
    return np.ascontiguousarray(blocks.transpose(0, 2, 1))


def polar_blockwise(stack) -> StiefelStack:
    """Blockwise polar projection of an (n, d, p) array or stack onto St(d,p)^n.

    Each block X is first scaled by a power of two (exact) to a largest entry
    in [1/2, 1), so its d x d Gram G = X X^T neither overflows nor
    underflows.  One batched eigh, G = U diag(lam) U^T, gives the polar
    factor P0 = U diag(lam)^(-1/2) U^T X, and one Newton-Schulz step
    P = 1.5 P0 - 0.5 (P0 P0^T) P0 brings ||P P^T - I|| back to roundoff
    (Higham, SIAM J. Sci. Stat. Comput., 1986).  The Gram squares the
    conditioning, so a block with lam_min <= _GRAM_TOL * lam_max
    (sigma_max / sigma_min >= 100, rank-deficient blocks included) takes
    the thin SVD's U V^T instead, and only those blocks are tested against
    RANK_TOL.  Either way a block agrees with :func:`polar` to about 1e-13.
    """
    blocks = stack.blocks if isinstance(stack, StiefelStack) else np.asarray(stack, dtype=float)
    _check_shape(blocks)
    if not np.all(np.isfinite(blocks)):
        raise ValueError("polar_blockwise input must be finite")
    _, exponent = np.frexp(np.max(np.abs(blocks), axis=(1, 2)))
    x = np.ldexp(blocks, -exponent[:, None, None])
    lam, u = np.linalg.eigh(x @ _transposed(x))
    gram_ok = lam[:, 0] > _GRAM_TOL * lam[:, -1]
    inv_sqrt = 1.0 / np.sqrt(np.where(gram_ok[:, None], lam, 1.0))
    p0 = ((u * inv_sqrt[:, None, :]) @ _transposed(u)) @ x
    out = 1.5 * p0 - 0.5 * ((p0 @ _transposed(p0)) @ p0)
    ill = np.flatnonzero(~gram_ok)
    if len(ill):
        u, s, vt = np.linalg.svd(blocks[ill], full_matrices=False)
        out[ill] = u @ vt
        bad = ill[(s[:, 0] == 0.0) | (s[:, -1] <= RANK_TOL * s[:, 0])]
        for i in bad:
            warnings.warn(
                f"polar factor of block {i} is non-unique", RankDeficiencyWarning, stacklevel=2
            )
    # Both paths are row-orthonormal to roundoff, so the output skips the re-check.
    return StiefelStack._orthonormal(out)


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
    """||S' S'^T - S S^T||_F for two nd x p matrices, without an nd x nd product.

    With Delta = S' - S the difference is [S Delta] K [S Delta]^T with
    K = [[0, I], [I, I]].  From the R factor [A B] of a thin QR of
    [S Delta] the norm is ||A B^T + B (A + B)^T||_F, with roundoff
    eps ||S|| ||Delta||.
    """
    p = s.shape[1]
    r = np.linalg.qr(np.hstack([s, s_new - s]), mode="r")
    a, b = r[:, :p], r[:, p:]
    diff = a @ b.T
    diff += b @ (a + b).T
    return float(np.linalg.norm(diff))


def lambda_kth_smallest(mu: np.ndarray, e: np.ndarray, k: int) -> float:
    """k-th smallest eigenvalue (1-based k) of diag(mu) - e e^T, mu (N,) and e N x m.

    blockdiag(Lambda) - D D^T is this matrix up to an orthogonal similarity,
    with Lambda_ii = U_i diag(mu_i) U_i^T and e = U^T D, so the caller
    decomposes the blocks once for every k.  Haynsworth inertia additivity
    counts the eigenvalues below a shift t from the m x m Schur complement:
    #{eig < t} = #{mu < t} + #neg(I_m - e^T diag(1/(mu - t)) e).  Bisection on
    this count, with safeguarded Newton steps on the Schur complement's
    eigenvalue, narrows a bracket of the eigenvalue to 4 eps (max|mu| +
    ||e||_2^2), the accuracy of a dense eigensolve, at O(N m^2 + m^3) per
    shift.  The first shift is 0 when 0 lies more than the accuracy inside
    the bracket, and its midpoint otherwise: at a stationary point of the
    synchronization problem, Lambda - C has d eigenvalues within roundoff of
    0, and lambda_1 then takes 2 or 3 shifts instead of 7 to 9.  Coinciding
    values of mu are merged first, and those next to a shift are not
    inverted (see _merge_poles and _schur_count), so they keep that accuracy.
    """
    mu = np.asarray(mu, dtype=float)
    e = np.asarray(e, dtype=float)
    if mu.ndim != 1 or e.ndim != 2 or e.shape[0] != len(mu):
        raise ValueError(f"expected mu (N,) and e (N, m), got shapes {mu.shape} and {e.shape}")
    if not 1 <= k <= len(mu):
        raise ValueError(f"k={k} out of range for N={len(mu)}")
    m = e.shape[1]
    ranked = np.sort(mu)
    if m == 0:
        return float(ranked[k - 1])
    sigma2 = float(np.linalg.eigvalsh(e.T @ e)[-1])  # ||e||_2^2
    scale = float(np.max(np.abs(mu))) + sigma2
    tol = 4.0 * np.finfo(float).eps * scale
    # Weyl and rank-m interlacing: mu_(k) - sigma2 <= lambda_k <= mu_(k), and
    # lambda_k >= mu_(k-m) when k > m.
    hi = float(ranked[k - 1])
    lo = hi - sigma2 if k <= m else max(hi - sigma2, float(ranked[k - m - 1]))
    poles = _merge_poles(mu, e, tol)
    t = 0.0 if lo + tol < 0.0 < hi - tol else 0.5 * (lo + hi)
    step = step_old = hi - lo
    while hi - lo > tol:
        count, newton = _schur_count(*poles, t, k)
        if count >= k:
            hi = t
        else:
            lo = t
        # A Newton step is taken while it stays in the bracket and at least
        # halves the step before last; otherwise bisect.  The next shift stays
        # tol inside the bracket, so a converged Newton step closes it.
        in_bracket = newton is not None and lo - tol <= newton <= hi + tol
        if in_bracket and abs(newton - t) <= 0.5 * abs(step_old):
            nxt = newton
        else:
            nxt = 0.5 * (lo + hi)
        nxt = min(max(nxt, lo + tol), hi - tol) if hi - lo > 2.0 * tol else 0.5 * (lo + hi)
        step_old, step = step, nxt - t
        t = nxt
    return float(0.5 * (lo + hi))


def _merge_poles(mu: np.ndarray, e: np.ndarray, width: float):
    """diag(mu) - E E^T with block eigenvalues closer than `width` merged.

    A run of such eigenvalues is set to its mean (a change below `width`),
    and its rows of E are rotated onto their R factor, of at most m rows.
    Rows of E that are zero, the rotated-away ones included, leave exact
    eigenvalues.  Returns (mu, E, squared row norms of E, exact eigenvalues).
    """
    order = np.argsort(mu)
    mu, e = mu[order], e[order]  # copies
    starts = np.flatnonzero(np.diff(mu, prepend=-np.inf) > width)
    ends = np.append(starts[1:], len(mu))
    runs = ends - starts > 1
    for a, b in zip(starts[runs], ends[runs]):
        r = np.linalg.qr(e[a:b], mode="r")
        mu[a:b] = np.mean(mu[a:b])
        e[a:b] = 0.0
        e[a : a + len(r)] = r
    norms = np.einsum("ij,ij->i", e, e)
    live = norms > 0.0
    return mu[live], e[live], norms[live], mu[~live]


# A block eigenvalue whose Schur term ||e_i||^2 / |mu_i - t| exceeds this is
# kept out of the Schur complement: eliminating it would add an eps-relative
# error of that size to the complement's other eigenvalues.
_MAX_GROWTH = 1e6


def _schur_count(mu, e, norms, exact, t: float, k: int):
    """(#{eig < t}, Newton estimate of lambda_k) for diag(mu) - E E^T plus `exact`.

    norms[i] = ||e_i||^2.  Block eigenvalues with norms[i] > _MAX_GROWTH
    |mu_i - t| (at most 2m, the largest terms first), a shift equal to one
    included, are not inverted: they stay in the bordered matrix
    [[diag(delta_N / norms_N), E_N / sqrt(norms_N)], [., S_F]], whose inertia
    adds to that of diag(delta_F); S_F is the Schur complement of the rest.
    """
    m = e.shape[1]
    delta = mu - t
    near = np.flatnonzero(norms > _MAX_GROWTH * np.abs(delta))
    if len(near) > 2 * m:
        near = near[np.argsort(np.abs(delta[near]) / norms[near])[: 2 * m]]
    q = len(near)
    far_e, far_delta = e, delta
    if q:
        far = np.ones(len(mu), dtype=bool)
        far[near] = False
        far_e, far_delta = e[far], delta[far]
    w = far_e / far_delta[:, None]
    schur = np.eye(m) - far_e.T @ w
    if q:
        # Congruences: 1/||e_i|| on the kept rows, then a diagonal
        # equilibration of the whole matrix.  Neither changes the inertia.
        en = e[near] / np.sqrt(norms[near])[:, None]
        bordered = np.block([[np.diag(delta[near] / norms[near]), en], [en.T, schur]])
        rowmax = np.max(np.abs(bordered), axis=1)
        scaling = 1.0 / np.sqrt(np.where(rowmax > 0.0, rowmax, 1.0))
        vals, vecs = np.linalg.eigh(scaling[:, None] * bordered * scaling)
        vecs *= scaling[:, None]
    else:
        vals, vecs = np.linalg.eigh(schur)
    below = int(np.count_nonzero(exact < t)) + int(np.count_nonzero(far_delta < 0))
    count = below + int(np.count_nonzero(vals < 0))
    # lambda_k is where the j-th eigenvalue of the bordered matrix, decreasing
    # in t with slope -(sum_N v_i^2 / norms_i + ||diag(1/delta_F) E_F v_S||^2),
    # crosses zero (while no other block eigenvalue lies between).
    j = k - below
    if not 1 <= j <= len(vals):
        return count, None
    v = vecs[:, j - 1]
    slope = float(np.sum(v[:q] ** 2 / norms[near]) + np.sum((w @ v[q:]) ** 2))
    return count, (t + vals[j - 1] / slope if slope > 0 else None)


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
    u, s, _ = np.linalg.svd(d_mat, full_matrices=False)
    if len(s) > d and s[d - 1] - s[d] <= 1e-12 * max(s[0], 1e-300):
        warnings.warn(
            f"singular gap sigma_{d} - sigma_{d + 1} = {s[d - 1] - s[d]:.3e} is degenerate",
            SpectralGapWarning,
            stacklevel=2,
        )
    return u[:, :d]
