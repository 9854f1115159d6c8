"""Observation model: point clouds, shift estimation, and the Gram matrix.

n noisy copies of a latent d x m cloud A are observed as
A_i = O_i (A - mu_i 1^T) + sigma W_i.  After centering, recovering the O_i
reduces to maximizing <C, S S^T> over stacks of orthogonal blocks, where
C_ij = A_i A_j^T is the blockwise cross covariance.  C = D D^T is never
formed: :class:`GramMatrix` keeps the nd x m factor D and applies C through it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linops import RotationStack


@dataclass(frozen=True)
class PointCloud:
    """A d x m real matrix whose columns are samples in R^d (m >= d+1)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2:
            raise ValueError(f"expected a d x m matrix, got shape {pts.shape}")
        d, m = pts.shape
        if d < 1 or m < d + 1:
            raise ValueError(f"need d >= 1 and m >= d+1, got d={d}, m={m}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud entries must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def d(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class PointCloudSet:
    """n point clouds sharing the same (d, m)."""

    clouds: tuple

    def __post_init__(self):
        clouds = tuple(self.clouds)
        if len(clouds) < 2:
            raise ValueError("a cloud set needs n >= 2 clouds")
        d, m = clouds[0].d, clouds[0].m
        for i, c in enumerate(clouds):
            if (c.d, c.m) != (d, m):
                raise ValueError(
                    f"cloud {i} has shape ({c.d}, {c.m}), expected ({d}, {m})"
                )
        object.__setattr__(self, "clouds", clouds)

    @property
    def n(self) -> int:
        return len(self.clouds)

    @property
    def d(self) -> int:
        return self.clouds[0].d

    @property
    def m(self) -> int:
        return self.clouds[0].m


@dataclass(frozen=True)
class SyntheticInstance:
    """A generated instance with its ground truth retained.

    observed.clouds[i] = O_i (A - mu_i 1^T) + sigma * W_i, with the noise
    draws W_i stored so the instance reconstructs exactly from the seed.
    """

    truth: PointCloud
    rotations: RotationStack  # ground-truth blocks O_i
    shifts: tuple  # n vectors mu_i in R^d
    sigma: float
    observed: PointCloudSet
    seed: int
    noise: np.ndarray = field(repr=False)  # (n, d, m) standard draws W_i
    cloud_model: str = "uniform_cube"

    @property
    def n(self) -> int:
        return self.observed.n

    @property
    def d(self) -> int:
        return self.truth.d

    @property
    def m(self) -> int:
        return self.truth.m

    def noise_blocks(self) -> np.ndarray:
        """The realized noise Delta_i = observed_i - O_i (A - mu_i 1^T)."""
        return self.sigma * self.noise


@dataclass(frozen=True)
class GramMatrix:
    """The nd x nd block matrix C = D D^T, kept as its nd x m factor D.

    Block C_ij = D_i D_j^T is the cross covariance of clouds i and j.  This
    class is the only code that knows C = D D^T: callers apply C with
    ``c @ x`` and read its norms, which cost O(nd m p) and O(nd m^2).
    """

    factor: np.ndarray
    n: int
    d: int

    def __post_init__(self):
        factor = np.ascontiguousarray(np.asarray(self.factor, dtype=float))
        nd = self.n * self.d
        if factor.ndim != 2 or factor.shape[0] != nd:
            raise ValueError(f"expected shape ({nd}, m), got {factor.shape}")
        factor.setflags(write=False)
        object.__setattr__(self, "factor", factor)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """C x = D (D^T x) for an nd x p matrix x."""
        return self.factor @ (self.factor.T @ x)

    @property
    def data(self) -> np.ndarray:
        """The dense nd x nd matrix C, rebuilt on every access.

        O((nd)^2) memory.  It exists for test oracles only: nothing in the
        package reads it.
        """
        return self.factor @ self.factor.T

    def block(self, i: int, j: int) -> np.ndarray:
        d = self.d
        return self.factor[i * d : (i + 1) * d] @ self.factor[j * d : (j + 1) * d].T

    def fro_norm(self) -> float:
        """||C||_F = ||D^T D||_F."""
        return float(np.linalg.norm(self.factor.T @ self.factor))

    def spectral_norm(self) -> float:
        """||C||_2 = sigma_max(D)^2."""
        return float(np.linalg.eigvalsh(self.factor.T @ self.factor)[-1])


def center(cloud: PointCloud) -> PointCloud:
    """Remove the per-coordinate column mean: right-multiply by I - (1/m) 11^T."""
    pts = cloud.points
    return PointCloud(pts - pts.mean(axis=1, keepdims=True))


def estimate_shifts(clouds: PointCloudSet, rotations: RotationStack) -> list[np.ndarray]:
    """Per-cloud shift estimates given candidate rotations.

    Uses the joint closed form: the consensus cloud is the average of the
    de-rotated centered observations (which fixes the translation gauge at
    zero column mean), and mu_hat_i = (1/m)(A_hat - O_i^T A_i) 1.
    """
    if rotations.n != clouds.n or rotations.d != clouds.d or rotations.p != clouds.d:
        raise ValueError(
            f"rotation stack ({rotations.n} blocks of {rotations.d}x{rotations.p}) "
            f"does not match cloud set (n={clouds.n}, d={clouds.d})"
        )
    m = clouds.m
    derotated = [
        rotations.blocks[i].T @ clouds.clouds[i].points for i in range(clouds.n)
    ]
    consensus = sum(a - a.mean(axis=1, keepdims=True) for a in derotated) / clouds.n
    ones = np.ones(m)
    return [(consensus - derotated[i]) @ ones / m for i in range(clouds.n)]


def build_data_matrix(clouds: PointCloudSet) -> np.ndarray:
    """Stack the n clouds vertically into the nd x m matrix D."""
    return np.vstack([c.points for c in clouds.clouds])


def build_gram(clouds: PointCloudSet, center_first: bool = True) -> GramMatrix:
    """C = D D^T with D the (optionally centered) stacked data matrix, kept as D.

    Centering realizes the cross covariance of centered clouds and is the
    right choice for registration inputs with unknown shifts; pre-centered
    synthetic benchmarks turn it off.
    """
    if center_first:
        mats = [center(c).points for c in clouds.clouds]
    else:
        mats = [c.points for c in clouds.clouds]
    return GramMatrix(factor=np.vstack(mats), n=clouds.n, d=clouds.d)


# ---------------------------------------------------------------------------
# Text file format.
#
# Cloud record: first line "d m", then d lines of m space-separated decimals.
# Cloud-set file: header line "n", then n cloud records.  Values are written
# with shortest round-trip decimal formatting, so write -> read is exact.
# ---------------------------------------------------------------------------


def _format_matrix(mat: np.ndarray) -> list[str]:
    return [" ".join(repr(float(v)) for v in row) for row in mat]


def write_cloud(path, cloud: PointCloud) -> None:
    lines = [f"{cloud.d} {cloud.m}"] + _format_matrix(cloud.points)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class LineReader:
    """The non-blank lines of a text file, consumed in order.

    Every parse error is a ValueError that names the file and the 1-based line.
    """

    def __init__(self, path):
        self.path = path
        with open(path) as fh:
            self._lines = [(k, ln.split()) for k, ln in enumerate(fh, 1) if ln.strip()]
        self._pos = 0

    def error(self, lineno: int, message: str) -> ValueError:
        return ValueError(f"{self.path}: line {lineno}: {message}")

    def row(self, count: int, what: str, kind=float) -> tuple[int, list]:
        """The next line as exactly `count` values: (line number, values)."""
        if self._pos == len(self._lines):
            lineno = self._lines[-1][0] + 1 if self._lines else 1
            raise self.error(lineno, f"expected {what}, got end of file")
        lineno, fields = self._lines[self._pos]
        self._pos += 1
        if len(fields) != count:
            raise self.error(lineno, f"expected {what} with {count} fields, got {len(fields)}")
        try:
            return lineno, [kind(v) for v in fields]
        except ValueError as exc:
            raise self.error(lineno, f"cannot parse {what}: {exc}") from None

    def header(self, names: str) -> tuple[int, list[int]]:
        """The next line as one positive integer per name in `names`."""
        lineno, counts = self.row(len(names.split()), f"'{names}' header", int)
        if min(counts) < 1:
            raise self.error(lineno, f"'{names}' header needs positive counts, got {counts}")
        return lineno, counts

    def build(self, lineno: int, make, *args):
        """make(*args), with a ValueError it raises reported at `lineno`."""
        try:
            return make(*args)
        except ValueError as exc:
            raise self.error(lineno, str(exc)) from None

    def finish(self) -> None:
        """Reject anything left after the last declared record."""
        if self._pos < len(self._lines):
            raise self.error(self._lines[self._pos][0], "unexpected data after the last record")


def _read_cloud_record(lines: LineReader) -> PointCloud:
    lineno, (d, m) = lines.header("d m")
    rows = [lines.row(m, "a cloud row")[1] for _ in range(d)]
    return lines.build(lineno, PointCloud, np.array(rows))


def read_cloud(path) -> PointCloud:
    lines = LineReader(path)
    cloud = _read_cloud_record(lines)
    lines.finish()
    return cloud


def write_cloud_set(path, clouds: PointCloudSet) -> None:
    lines = [str(clouds.n)]
    for c in clouds.clouds:
        lines.append(f"{c.d} {c.m}")
        lines.extend(_format_matrix(c.points))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_cloud_set(path) -> PointCloudSet:
    lines = LineReader(path)
    lineno, (n,) = lines.header("n")
    clouds = tuple(_read_cloud_record(lines) for _ in range(n))
    lines.finish()
    return lines.build(lineno, PointCloudSet, clouds)
