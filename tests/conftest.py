"""Shared helpers for the test suite."""
import numpy as np
import pytest

from gopp.linops import StiefelStack, polar, polar_blockwise


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


def random_tangent(rng, stack):
    """Random tangent stack at `stack` (blockwise sym-part removal)."""
    t = rng.standard_normal((stack.n, stack.d, stack.p))
    sym = 0.5 * (
        t @ stack.blocks.transpose(0, 2, 1) + stack.blocks @ t.transpose(0, 2, 1)
    )
    return t - sym @ stack.blocks


@pytest.fixture
def rng():
    return np.random.default_rng(0)
