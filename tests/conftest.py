"""Shared helpers for the test suite."""
import numpy as np
import pytest

from gopp.linops import StiefelStack, polar, polar_blockwise
from gopp.model import GramMatrix, PointCloud, PointCloudSet


def random_orthogonal(rng, d):
    """Haar-ish orthogonal matrix: polar factor of a Gaussian draw."""
    return polar(rng.standard_normal((d, d)))


def random_stack(rng, n, d, p=None):
    p = d if p is None else p
    return polar_blockwise(rng.standard_normal((n, d, p)))


def dense_gap(blocks, factor):
    """The dense oracle blockdiag(blocks) - factor factor^T."""
    n, d, _ = blocks.shape
    mat = -factor @ factor.T
    for i in range(n):
        mat[i * d : (i + 1) * d, i * d : (i + 1) * d] += blocks[i]
    return mat


def block_spectrum(blocks, factor):
    """(mu, E = U^T factor) of blocks = U diag(mu) U^T: the inputs of lambda_kth_smallest."""
    n, d, _ = blocks.shape
    mu, u = np.linalg.eigh(blocks)
    e = u.transpose(0, 2, 1) @ factor.reshape(n, d, factor.shape[1])
    return mu.ravel(), e.reshape(factor.shape)


def dense_gram(c):
    """The dense oracle C = D D^T of a GramMatrix, O((nd)^2) memory."""
    return c.factor @ c.factor.T


def gram_block(c, i, j):
    """The d x d block C_ij = D_i D_j^T of a GramMatrix."""
    d = c.d
    return c.factor[i * d : (i + 1) * d] @ c.factor[j * d : (j + 1) * d].T


def center(cloud):
    """The cloud with its column mean removed: points times I - (1/m) 11^T."""
    pts = cloud.points
    return PointCloud(pts - pts.mean(axis=1, keepdims=True))


def random_tangent(rng, stack):
    """Random tangent stack at `stack` (blockwise sym-part removal)."""
    t = rng.standard_normal((stack.n, stack.d, stack.p))
    sym = 0.5 * (
        t @ stack.blocks.transpose(0, 2, 1) + stack.blocks @ t.transpose(0, 2, 1)
    )
    return t - sym @ stack.blocks


def loop_instance(model, n, m, d, sigma, with_shifts, seed, haar_rotations):
    """Per-cloud loop oracle for bench.generate_instance, in its draw order.

    Returns (truth points, rotations, shifts, noise, observed clouds).
    """
    rng = np.random.default_rng(seed)
    if model == "uniform_cube":
        a = rng.uniform(-1.0, 1.0, size=(d, m))
    else:
        a = rng.standard_normal((d, m))
    if haar_rotations:
        rots = np.stack([polar(rng.standard_normal((d, d))) for _ in range(n)])
    else:
        rots = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    if with_shifts:
        shifts = [rng.standard_normal(d) for _ in range(n)]
    else:
        shifts = [np.zeros(d) for _ in range(n)]
    noise = rng.standard_normal((n, d, m))
    observed = np.stack(
        [rots[i] @ (a - shifts[i][:, None]) + sigma * noise[i] for i in range(n)]
    )
    return a, rots, np.stack(shifts), noise, observed


def oracle_read(path, kind):
    """Line-by-line reference reader: the value a file holds, as an array.

    `kind` is "cloud", "cloud_set" or "stack".  Every token goes through
    int() or float() on its own, and every error is a ValueError naming the
    file and the 1-based line, in the readers' words.  Returns the cloud's
    d x m points, the set's (n, d, m) points or the stack's (n, d, p) blocks.
    """
    with open(path) as fh:
        lines = [(k, ln.split()) for k, ln in enumerate(fh, 1) if ln.strip()]
    pos = 0

    def error(lineno, message):
        return ValueError(f"{path}: line {lineno}: {message}")

    def row(count, what, kind=float):
        nonlocal pos
        if pos == len(lines):
            raise error(lines[-1][0] + 1 if lines else 1, f"expected {what}, got end of file")
        lineno, fields = lines[pos]
        pos += 1
        if len(fields) != count:
            raise error(lineno, f"expected {what} with {count} fields, got {len(fields)}")
        try:
            return lineno, [kind(v) for v in fields]
        except ValueError as exc:
            raise error(lineno, f"cannot parse {what}: {exc}") from None

    def header(names):
        lineno, counts = row(len(names.split()), f"'{names}' header", int)
        if min(counts) < 1:
            raise error(lineno, f"'{names}' header needs positive counts, got {counts}")
        return lineno, counts

    def build(lineno, make, *args):
        try:
            return make(*args)
        except ValueError as exc:
            raise error(lineno, str(exc)) from None

    def cloud():
        lineno, (d, m) = header("d m")
        rows = [row(m, "a cloud row")[1] for _ in range(d)]
        return build(lineno, PointCloud, np.array(rows))

    def finish():
        if pos < len(lines):
            raise error(lines[pos][0], "unexpected data after the last record")

    if kind == "cloud":
        points = cloud().points
        finish()
        return points
    if kind == "cloud_set":
        lineno, (n,) = header("n")
        clouds = tuple(cloud() for _ in range(n))
        finish()
        return np.stack([c.points for c in build(lineno, PointCloudSet, clouds).clouds])
    lineno, (n, d, p) = header("n d p")
    rows = [row(p, "a stack row")[1] for _ in range(n * d)]
    finish()
    return build(lineno, StiefelStack, np.array(rows).reshape(n, d, p)).blocks


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def gram_products(monkeypatch):
    """A one-element list counting the products C X made through GramMatrix."""
    count = [0]
    matmul = GramMatrix.__matmul__

    def counted(self, x):
        count[0] += 1
        return matmul(self, x)

    monkeypatch.setattr(GramMatrix, "__matmul__", counted)
    return count
