"""Observation model: point clouds and the Gram matrix.

n noisy copies of a latent d x m cloud A are observed as
A_i = O_i (A - mu_i 1^T) + sigma W_i.  After centering, recovering the O_i
reduces to maximizing <C, S S^T> over stacks of orthogonal blocks, where
C_ij = A_i A_j^T is the blockwise cross covariance.  C = D D^T is never
formed: :class:`GramMatrix` keeps the nd x m factor D and applies C through it.

The text readers take the header lines one at a time and each block of data
rows with :meth:`LineReader.table`: one ``np.loadtxt`` call, and only where
that fails the same rows line by line, to name the line at fault (or to accept
a float spelling numpy does not parse, such as ``1_0``).  A cloud set is first
tried whole, all its data rows in one call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linops import StiefelStack, fro_norm


_SHAPES = {2: "a d x m matrix", 3: "an n x d x m array"}


def _checked_points(points, ndim: int) -> np.ndarray:
    """One d x m cloud (ndim 2) or a stack of them (ndim 3), validated and read-only."""
    pts = np.ascontiguousarray(np.asarray(points, dtype=float))
    if pts.ndim != ndim:
        raise ValueError(f"expected {_SHAPES[ndim]}, got shape {pts.shape}")
    d, m = pts.shape[-2:]
    if d < 1 or m < d + 1:
        raise ValueError(f"need d >= 1 and m >= d+1, got d={d}, m={m}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point cloud entries must be finite")
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True, eq=False)
class PointCloud:
    """A d x m real matrix whose columns are samples in R^d (m >= d+1)."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _checked_points(self.points, 2))

    @property
    def d(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False, init=False)
class PointCloudSet:
    """n point clouds sharing the same (d, m), held as one read-only (n, d, m) array."""

    points: np.ndarray

    def __init__(self, clouds):
        clouds = tuple(clouds)
        if len(clouds) < 2:
            raise ValueError("a cloud set needs n >= 2 clouds")
        d, m = clouds[0].d, clouds[0].m
        for i, c in enumerate(clouds):
            if (c.d, c.m) != (d, m):
                raise ValueError(f"cloud {i} has shape ({c.d}, {c.m}), expected ({d}, {m})")
        pts = np.stack([c.points for c in clouds])  # each cloud was checked on its own
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_array(cls, points) -> PointCloudSet:
        """The cloud set of an (n, d, m) array, validated once."""
        pts = _checked_points(points, 3)
        if len(pts) < 2:
            raise ValueError("a cloud set needs n >= 2 clouds")
        cloud_set = object.__new__(cls)
        object.__setattr__(cloud_set, "points", pts)
        return cloud_set

    @cached_property
    def clouds(self) -> tuple:
        """The n clouds as read-only views of `points`, which was checked whole."""
        clouds = []
        for view in self.points:
            cloud = object.__new__(PointCloud)
            object.__setattr__(cloud, "points", view)
            clouds.append(cloud)
        return tuple(clouds)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def m(self) -> int:
        return self.points.shape[2]


@dataclass(frozen=True, eq=False)
class SyntheticInstance:
    """A generated instance with its ground truth retained.

    observed.points[i] = O_i (A - mu_i 1^T) + sigma * W_i, with the noise
    draws W_i stored so the instance reconstructs exactly from the seed.
    """

    truth: PointCloud
    rotations: StiefelStack  # ground-truth blocks O_i
    shifts: np.ndarray  # (n, d); row i is the shift mu_i
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

    def fro_norm(self) -> float:
        """||C||_F = ||D^T D||_F, finite wherever the entries of D^T D are."""
        return float(fro_norm(self.factor.T @ self.factor))

    def spectral_norm(self) -> float:
        """||C||_2 = sigma_max(D)^2."""
        return float(np.linalg.eigvalsh(self.factor.T @ self.factor)[-1])

    def unit_scaled(self) -> tuple[GramMatrix, int]:
        """(C', k), C = 2^k C' exactly, with ||D'||_F in [1/2, 1) (C' = C, k = 0 for D = 0), so
        products C' S neither underflow nor overflow, and results scale back exactly."""
        e = int(np.frexp(fro_norm(self.factor))[1])
        return (GramMatrix(np.ldexp(self.factor, -e), self.n, self.d) if e else self), 2 * e


def build_data_matrix(clouds: PointCloudSet) -> np.ndarray:
    """Stack the n clouds vertically into the nd x m matrix D (a read-only view)."""
    return clouds.points.reshape(clouds.n * clouds.d, clouds.m)


def build_gram(clouds: PointCloudSet, center_first: bool = True) -> GramMatrix:
    """C = D D^T with D the (optionally centered) stacked data matrix, kept as D.

    Centering realizes the cross covariance of centered clouds and is the
    right choice for registration inputs with unknown shifts; pre-centered
    synthetic benchmarks turn it off.
    """
    pts = clouds.points
    if center_first:
        pts = pts - pts.mean(axis=2, keepdims=True)  # each cloud times I - (1/m) 11^T
    return GramMatrix(factor=pts.reshape(clouds.n * clouds.d, clouds.m), n=clouds.n, d=clouds.d)


# ---------------------------------------------------------------------------
# Text file format.
#
# Cloud record: first line "d m", then d lines of m space-separated decimals.
# Cloud-set file: header line "n", then n cloud records.  Stack file: header
# line "n d p", then the n*d rows of the stacked S, p values each.  Values are
# written with shortest round-trip decimal formatting, so write -> read is exact.
# ---------------------------------------------------------------------------


def _format_matrix(mat: np.ndarray) -> list[str]:
    return [" ".join(map(repr, row)) for row in mat.tolist()]


def _write_lines(path, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_cloud(path, cloud: PointCloud) -> None:
    _write_lines(path, [f"{cloud.d} {cloud.m}"] + _format_matrix(cloud.points))


def write_cloud_set(path, clouds: PointCloudSet) -> None:
    n, d, m = clouds.n, clouds.d, clouds.m
    rows = _format_matrix(clouds.points.reshape(n * d, m))
    lines = [str(n)]
    for i in range(n):
        lines.append(f"{d} {m}")
        lines.extend(rows[i * d : (i + 1) * d])
    _write_lines(path, lines)


def write_stack(path, stack: StiefelStack) -> None:
    _write_lines(path, [f"{stack.n} {stack.d} {stack.p}"] + _format_matrix(stack.stacked))


class LineReader:
    """The non-blank lines of a text file, consumed in order.

    Every parse error is a ValueError that names the file and the 1-based line.
    """

    def __init__(self, path):
        self.path = path
        with open(path) as fh:
            self._all = fh.readlines()
        self.texts = list(filter(str.strip, self._all))  # the non-blank lines, in order
        self._pos = 0

    @cached_property
    def _lines(self) -> list[tuple[int, str]]:
        """(line number, text) of every non-blank line, built at the first row read."""
        return [(k, ln) for k, ln in enumerate(self._all, 1) if ln.strip()]

    def error(self, lineno: int, message: str) -> ValueError:
        return ValueError(f"{self.path}: line {lineno}: {message}")

    def row(self, count: int, what: str, kind=float) -> tuple[int, list]:
        """The next line as exactly `count` values: (line number, values)."""
        if self._pos == len(self._lines):
            lineno = self._lines[-1][0] + 1 if self._lines else 1
            raise self.error(lineno, f"expected {what}, got end of file")
        lineno, text = self._lines[self._pos]
        self._pos += 1
        fields = text.split()
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

    def table(self, rows: int, cols: int, what: str) -> np.ndarray:
        """The next `rows` lines as a rows x cols array, parsed in one np.loadtxt call.

        Where that call fails, the same lines are read through :meth:`row`, and
        that result stands: the same values, a float spelling numpy rejects
        (such as ``1_0``), or an error that names the line.
        """
        texts = self.texts[self._pos : self._pos + rows]
        if len(texts) == rows:  # also keeps loadtxt from warning about an empty input
            try:
                values = np.loadtxt(texts, comments=None, ndmin=2)
            except ValueError:
                pass
            else:
                if values.shape == (rows, cols):
                    self._pos += rows
                    return values
        return np.array([self.row(cols, what)[1] for _ in range(rows)])

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
    return lines.build(lineno, PointCloud, lines.table(d, m, "a cloud row"))


def read_cloud(path) -> PointCloud:
    lines = LineReader(path)
    cloud = _read_cloud_record(lines)
    lines.finish()
    return cloud


def _cloud_set_bulk(texts: list[str]) -> PointCloudSet:
    """All data rows of a cloud set in one np.loadtxt call.

    Takes only a file whose record headers all read as the first one's
    positive "d m"; raises ValueError or IndexError on any other.
    """
    (n,) = [int(v) for v in texts[0].split()]
    body = texts[1:]
    d, m = [int(v) for v in body[0].split()]
    if min(n, d, m) < 1 or len(body) != n * (d + 1):
        raise ValueError(f"{len(body)} lines do not hold {n} records of {d + 1}")
    for text in set(body[:: d + 1]):  # the record headers, usually one text n times
        if [int(v) for v in text.split()] != [d, m]:
            raise ValueError("records differ in shape")
    del body[:: d + 1]
    return PointCloudSet.from_array(np.loadtxt(body, comments=None, ndmin=2).reshape(n, d, m))


def read_cloud_set(path) -> PointCloudSet:
    lines = LineReader(path)
    try:
        return _cloud_set_bulk(lines.texts)
    except (ValueError, IndexError):
        pass  # read record by record: the same value, or an error that names the line
    lineno, (n,) = lines.header("n")
    clouds = tuple(_read_cloud_record(lines) for _ in range(n))
    lines.finish()
    return lines.build(lineno, PointCloudSet, clouds)


def read_stack(path) -> StiefelStack:
    lines = LineReader(path)
    lineno, (n, d, p) = lines.header("n d p")
    blocks = lines.table(n * d, p, "a stack row").reshape(n, d, p)
    lines.finish()
    return lines.build(lineno, StiefelStack, blocks)
