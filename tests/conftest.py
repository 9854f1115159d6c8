"""Shared helpers for the test suite."""
import numpy as np
import pytest

from gopp.linops import StiefelStack, polar, polar_blockwise
from gopp.model import PointCloud, PointCloudSet


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


def partial_trace(m, w):
    """Weighted partial trace of an nd x nd block matrix: out[i, j] = Tr(W M_ij).

    d is inferred from the d x d weight W.  A dense oracle: the package
    computes these traces from factors without forming M.
    """
    m = np.asarray(m, dtype=float)
    w = np.asarray(w, dtype=float)
    d = w.shape[0]
    n = m.shape[0] // d
    # Tr(W M_ij) = sum_{a,b} W[a, b] M_ij[b, a]
    return np.einsum("ab,ibja->ij", w, m.reshape(n, d, n, d))


def random_tangent(rng, stack):
    """Random tangent stack at `stack` (blockwise sym-part removal)."""
    t = rng.standard_normal((stack.n, stack.d, stack.p))
    sym = 0.5 * (
        t @ stack.blocks.transpose(0, 2, 1) + stack.blocks @ t.transpose(0, 2, 1)
    )
    return t - sym @ stack.blocks


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
