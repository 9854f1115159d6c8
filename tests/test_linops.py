"""Unit tests for the block linear-algebra primitives."""
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gopp import linops
from gopp.bench import generate_instance
from gopp.certificate import certify
from gopp.gpm import GpmConfig, solve
from gopp.linops import (
    RankDeficiencyWarning,
    SpectralGapWarning,
    StiefelStack,
    align,
    df,
    df_squared_identity,
    fro_norm,
    gram_change,
    lambda_kth_smallest,
    polar_blockwise,
    top_d_left_singular,
)
from gopp.model import build_gram

from conftest import (
    block_spectrum,
    dense_gap,
    polar,
    polar_one_block,
    random_orthogonal,
    random_stack,
    random_tangent,
)


def conditioned_blocks(rng, n, d, p, log_kappa, log_scale=0.0):
    """n blocks U diag(s) V^T * 10**log_scale, s log-spaced from 1 to 10**-log_kappa."""
    s = np.logspace(0.0, -log_kappa, d)
    out = np.empty((n, d, p))
    for i in range(n):
        u = np.linalg.qr(rng.standard_normal((d, d)))[0]
        v = np.linalg.qr(rng.standard_normal((p, d)))[0]
        out[i] = (u * s) @ v.T
    return out * 10.0**log_scale


def assert_matches_polar(blocks):
    """polar_blockwise agrees with the per-block SVD oracle, is orthonormal and read-only."""
    out = polar_blockwise(blocks).blocks
    assert not out.flags.writeable
    oracle = np.stack([polar(b) for b in blocks])
    assert np.max(np.abs(out - oracle)) <= 1e-12
    d = blocks.shape[1]
    assert np.max(np.linalg.norm(out @ out.transpose(0, 2, 1) - np.eye(d), axis=(1, 2))) <= 1e-13


def rank_warnings(fn, *args):
    """Messages of the RankDeficiencyWarnings that fn(*args) raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RankDeficiencyWarning)
        fn(*args)
    return [str(w.message) for w in caught]


class TestStiefelStack:
    def test_identity_stack(self):
        z = StiefelStack.identity(4, 2, 3)
        assert (z.n, z.d, z.p) == (4, 2, 3)
        assert np.array_equal(z.blocks[1], np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="not row-orthonormal"):
            StiefelStack(np.ones((2, 2, 2)))

    def test_rejects_p_less_than_d(self):
        with pytest.raises(ValueError):
            StiefelStack(np.zeros((2, 3, 2)))

    def test_blocks_are_read_only(self, rng):
        s = random_stack(rng, 2, 2)
        with pytest.raises(ValueError):
            s.blocks[0, 0, 0] = 5.0


class TestPolar:
    """Properties of the polar factor, on the kernel every caller uses."""

    def test_identity_fixed(self):
        assert np.allclose(polar_one_block(np.eye(3)), np.eye(3), atol=1e-14)

    def test_scale_invariance(self, rng):
        q = random_orthogonal(rng, 4)
        assert np.allclose(polar_one_block(3.0 * q), q, atol=1e-12)

    def test_diagonal_case(self):
        out = polar_one_block(np.diag([2.0, -3.0]))
        assert np.allclose(out, np.diag([1.0, -1.0]), atol=1e-14)

    def test_maximizes_inner_product(self):
        # P(X) beats every sampled orthogonal matrix on <R, X>.
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 3))
        while np.linalg.svd(x, compute_uv=False)[-1] <= 0.1:
            x = rng.standard_normal((3, 3))
        best = float(np.sum(polar_one_block(x) * x))
        for _ in range(1000):
            r = random_orthogonal(rng, 3)
            assert best >= float(np.sum(r * x)) - 1e-10

    def test_idempotence(self, rng):
        x = rng.standard_normal((3, 5))
        p1 = polar_one_block(x)
        assert np.allclose(polar_one_block(p1), p1, atol=1e-10)

    def test_row_orthonormal_output(self, rng):
        x = rng.standard_normal((2, 5))
        out = polar_one_block(x)
        assert np.linalg.norm(out @ out.T - np.eye(2)) <= 1e-10


class TestPolarBlockwise:
    def test_orthogonal_stack_unchanged(self, rng):
        s = random_stack(rng, 3, 2)
        out = polar_blockwise(s)
        assert np.allclose(out.blocks, s.blocks, atol=1e-12)

    def test_scaled_blocks(self):
        blocks = np.stack([2.0 * np.eye(2), np.eye(2)])
        out = polar_blockwise(blocks)
        assert np.allclose(out.blocks, np.stack([np.eye(2), np.eye(2)]), atol=1e-14)

    def test_matches_per_block_loop(self, rng):
        blocks = rng.standard_normal((4, 2, 3))
        out = polar_blockwise(blocks)
        for i in range(4):
            assert np.allclose(out.blocks[i], polar(blocks[i]), atol=1e-12)

    def test_output_is_read_only_and_orthonormal(self, rng):
        out = polar_blockwise(rng.standard_normal((5, 3, 4)))
        with pytest.raises(ValueError):
            out.blocks[0, 0, 0] = 1.0
        assert np.array_equal(StiefelStack(out.blocks).blocks, out.blocks)

    @pytest.mark.parametrize("d,p", [(1, 1), (1, 4), (2, 2), (3, 3), (3, 7), (4, 6)])
    @pytest.mark.parametrize("kind", ["gaussian", "solver_like", "near_orthonormal"])
    def test_matches_polar_oracle(self, rng, kind, d, p):
        n = 200
        if kind == "gaussian":
            blocks = rng.standard_normal((n, d, p))
        elif kind == "solver_like":
            # Power-method blocks (C S)_i, close to Lambda_i S_i with Lambda_i
            # symmetric positive definite (a scaled cloud covariance).
            a = rng.standard_normal((n, d, d + 2))
            lam = 25.0 * a @ a.transpose(0, 2, 1)
            blocks = lam @ random_stack(rng, n, d, p).blocks
        else:
            # Retraction inputs S + t xi, xi tangent at S, over many step sizes.
            s = random_stack(rng, n, d, p)
            t = 10.0 ** rng.uniform(-10.0, 0.0, size=(n, 1, 1))
            blocks = s.blocks + t * random_tangent(rng, s)
        assert_matches_polar(blocks)

    @pytest.mark.parametrize("d,p", [(2, 2), (3, 3), (3, 7)])
    def test_ill_conditioned_blocks_match_oracle(self, rng, d, p):
        # kappa from 1e2 to 1e11: past the Gram path's accuracy, on the SVD.
        blocks = np.concatenate(
            [conditioned_blocks(rng, 20, d, p, k) for k in (2.0, 3.0, 5.0, 8.0, 11.0)]
            + [rng.standard_normal((20, d, p))]
        )
        assert_matches_polar(blocks[rng.permutation(len(blocks))])

    @pytest.mark.parametrize("d,p", [(1, 1), (2, 3), (3, 3), (3, 7)])
    def test_rank_deficient_warnings_match_oracle(self, rng, d, p):
        blocks = rng.standard_normal((12, d, p))
        blocks[1] = 0.0
        blocks[4, -1] = 0.0
        blocks[6] = conditioned_blocks(rng, 1, d, p, 13.0)[0]  # warns for d > 1 only
        blocks[9] = conditioned_blocks(rng, 1, d, p, 11.0)[0]  # inside RANK_TOL: no warning
        expected = [i for i in range(len(blocks)) if rank_warnings(polar, blocks[i])]
        messages = rank_warnings(polar_blockwise, blocks)
        got = [int(re.search(r"block (\d+)", m).group(1)) for m in messages]
        assert got == expected
        assert expected == ([1, 4] if d == 1 else [1, 4, 6])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            out = polar_blockwise(blocks).blocks
            oracle = np.stack([polar(b) for b in blocks])
        assert np.max(np.abs(out - oracle)) <= 1e-12

    @pytest.mark.parametrize("log_scale", [-300.0, -200.0, 200.0, 300.0])
    def test_extreme_scales(self, rng, log_scale):
        blocks = rng.standard_normal((12, 3, 4))
        blocks[::2] *= 10.0**log_scale
        blocks[3] = conditioned_blocks(rng, 1, 3, 4, 5.0, log_scale)[0]
        blocks[5, 0] *= 1e4  # one row far from the others: SVD path
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_polar(blocks)

    @pytest.mark.parametrize("shape", [(2, 3, 2), (0, 2, 2), (2, 2)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError, match="shape"):
            polar_blockwise(np.ones(shape))

    def test_rejects_non_finite(self):
        blocks = np.ones((2, 2, 2))
        blocks[1, 0, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            polar_blockwise(blocks)

    @pytest.mark.parametrize("value", [-np.inf, np.nan])
    def test_rejects_nan_and_minus_inf(self, value):
        blocks = np.zeros((3, 2, 2))
        blocks[2, 1, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                polar_blockwise(blocks)

    def test_eigh_only_off_the_near_orthonormal_path(self, rng, monkeypatch):
        # Retraction inputs S + tT, T tangent, take Newton-Schulz alone; a
        # Gaussian stack or a power step's blocks (C S)_i take one batched eigh.
        s = random_stack(rng, 100, 3, 7)
        t = random_tangent(rng, s)
        t /= np.linalg.norm(t, axis=(1, 2), keepdims=True)
        gram = build_gram(generate_instance("uniform_cube", 100, 25, 3, 0.8, seed=3).observed)
        cases = {h: s.blocks + h * t for h in (1e-12, 1e-4, 1e-2, 0.1)}
        cases["gaussian"] = rng.standard_normal((100, 3, 7))
        cases["power_step"] = (gram @ random_stack(rng, 100, 3).stacked).reshape(100, 3, 3)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
        counts = {}
        for key, blocks in cases.items():
            calls.clear()
            assert_matches_polar(blocks)
            counts[key] = len(calls)
        assert counts == {1e-12: 0, 1e-4: 0, 1e-2: 0, 0.1: 0, "gaussian": 1, "power_step": 1}


class TestFroNorm:
    @pytest.mark.parametrize("log_scale", [-140.0, 0.0, 140.0])
    def test_in_range_is_numpy_norm_bitwise(self, rng, log_scale):
        x = rng.standard_normal((100, 3, 7)) * 10.0**log_scale
        assert fro_norm(x) == np.linalg.norm(x)
        assert np.array_equal(fro_norm(x, axis=(1, 2)), np.linalg.norm(x, axis=(1, 2)))

    @pytest.mark.parametrize("log_scale", [-300.0, 300.0])
    def test_out_of_range_is_scaled(self, rng, log_scale):
        x = rng.standard_normal((4, 3, 7))
        assert fro_norm(x * 10.0**log_scale) == pytest.approx(
            np.linalg.norm(x) * 10.0**log_scale, rel=1e-14
        )

    @pytest.mark.parametrize(
        "value,expected", [(np.nan, np.nan), (np.inf, np.inf), (-np.inf, np.inf), (0.0, 0.0)]
    )
    def test_non_finite_and_zero(self, value, expected):
        # The non-finite entry sits in block 1; a zero array has norm 0.
        x = np.zeros((2, 3, 3)) if value == 0.0 else np.ones((2, 3, 3))
        x[1, 2, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total, per_block = fro_norm(x), fro_norm(x, axis=(1, 2))
        assert np.array_equal(total, expected, equal_nan=True)
        assert np.array_equal(per_block[1], expected, equal_nan=True)
        assert per_block[0] == (0.0 if value == 0.0 else 3.0)


class TestAlign:
    def test_self_alignment(self, rng):
        s = random_stack(rng, 3, 2)
        res = align(s, s)
        assert res.distance <= 1e-10
        assert np.allclose(res.aligner, np.eye(2), atol=1e-10)

    def test_gauge_invariance(self, rng):
        s = random_stack(rng, 4, 3)
        q0 = random_orthogonal(rng, 3)
        rotated = StiefelStack(s.blocks @ q0)
        assert align(rotated, s).distance <= 1e-10

    def test_matches_angle_grid_oracle(self, rng):
        # d=2: minimize over rotations x reflections on a dense angle grid.
        x = random_stack(rng, 3, 2)
        y = random_stack(rng, 3, 2)
        angles = np.linspace(0.0, 2.0 * np.pi, 100_000, endpoint=False)
        cos, sin = np.cos(angles), np.sin(angles)
        best = np.inf
        for refl in (1.0, -1.0):
            # Q = [[c, -r s], [s, r c]] sweeps SO(2) and its reflection coset.
            qs = np.stack(
                [np.stack([cos, -refl * sin], axis=1),
                 np.stack([sin, refl * cos], axis=1)],
                axis=1,
            )
            diffs = x.stacked[None, :, :] - y.stacked[None, :, :] @ qs
            best = min(best, float(np.min(np.linalg.norm(diffs, axis=(1, 2)))))
        assert abs(align(x, y).distance - best) <= 1e-4

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_matches_svd_oracle(self, rng, d):
        for n in (1, 4, 50):
            x = random_stack(rng, n, d)
            y = random_stack(rng, n, d)
            q = polar(y.stacked.T @ x.stacked)
            res = align(x, y)
            assert np.max(np.abs(res.aligner - q)) <= 1e-13
            assert abs(res.distance - np.linalg.norm(x.stacked - y.stacked @ q)) <= 1e-13

    def test_rank_deficient_product_matches_svd_oracle_bitwise(self, rng):
        # With nd = 6 < p = 7, Y^T X is rank deficient: the kernel takes its SVD path.
        x = random_stack(rng, 2, 3, 7)
        y = random_stack(rng, 2, 3, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            q = polar(y.stacked.T @ x.stacked)
        res = align(x, y)
        assert np.array_equal(res.aligner, q)
        assert res.distance == float(np.linalg.norm(x.stacked - y.stacked @ q))


class TestDfIdentities:
    def test_zero_at_equality(self, rng):
        s = random_stack(rng, 3, 2)
        direct, formula = df_squared_identity(s, s)
        assert abs(direct) <= 1e-10
        assert abs(formula) <= 1e-10

    def test_two_formulas_agree(self, rng):
        x = random_stack(rng, 4, 2, 3)
        y = random_stack(rng, 4, 2, 3)
        direct, formula = df_squared_identity(x, y)
        assert abs(direct - formula) <= 1e-8

    def test_identity_reference_block_sum(self, rng):
        # Against Z the nuclear-norm term reduces to the block sum of X.
        x = random_stack(rng, 5, 2)
        z = StiefelStack.identity(5, 2)
        _, formula = df_squared_identity(x, z)
        block_sum = x.blocks.sum(axis=0)
        expected = 2.0 * 5 * 2 - 2.0 * np.sum(
            np.linalg.svd(block_sum, compute_uv=False)
        )
        assert abs(formula - expected) <= 1e-8


class TestLambdaKthSmallest:
    def test_diagonal(self):
        assert lambda_kth_smallest(np.array([1.0, 2.0, 3.0]), np.zeros((3, 0)), 2) == 2.0

    def test_laplacian_kron_identity(self):
        # Eigenvalues of (n I - J) x I_d enumerate as d zeros then n's.
        n, d = 5, 3
        blocks = np.broadcast_to(n * np.eye(d), (n, d, d))
        factor = np.kron(np.ones((n, 1)), np.eye(d))
        enumerated = sorted(
            lam * mu
            for lam in np.linalg.eigvalsh(n * np.eye(n) - np.ones((n, n)))
            for mu in np.ones(d)
        )
        assert abs(enumerated[d] - n) <= 1e-10
        assert abs(lambda_kth_smallest(*block_spectrum(blocks, factor), d + 1) - n) <= 1e-10

    def test_matches_full_spectrum(self, rng):
        a = rng.standard_normal((6, 6))
        blocks = 0.5 * (a + a.T)[None]
        factor = rng.standard_normal((6, 2))
        full = np.sort(np.linalg.eigvalsh(dense_gap(blocks, factor)))
        mu, e = block_spectrum(blocks, factor)
        for k in range(1, 7):
            assert abs(lambda_kth_smallest(mu, e, k) - full[k - 1]) <= 1e-12

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            lambda_kth_smallest(np.ones(2), np.zeros((2, 1)), 3)

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_rejects_inputs_far_from_unit_scale(self, rng, exponent):
        # Far from unit scale the accuracy 4 eps * scale can underflow, and the
        # bracket would never close; the caller scales by a power of two first.
        a = rng.standard_normal((6, 6))
        mu, e = block_spectrum(0.5 * (a + a.T)[None], rng.standard_normal((6, 2)))
        with pytest.raises(ValueError, match="outside"):
            lambda_kth_smallest(np.ldexp(mu, exponent), np.ldexp(e, exponent), 1)

    def test_zero_input_is_exact(self):
        assert lambda_kth_smallest(np.zeros(4), np.zeros((4, 2)), 3) == 0.0

    @pytest.mark.parametrize("mu_shape, e_shape", [((1, 2), (2, 1)), ((2,), (3, 1)), ((2,), (2,))])
    def test_rejects_mismatched_shapes(self, mu_shape, e_shape):
        with pytest.raises(ValueError, match="expected mu"):
            lambda_kth_smallest(np.ones(mu_shape), np.zeros(e_shape), 1)

    def test_shift_on_a_block_eigenvalue(self):
        # Block eigenvalues 1, 2, 3 and ||F||_2^2 = 2: for k = 3 the bracket is
        # [1, 3], so the first shift is the block eigenvalue 2, where the Schur
        # complement does not exist; the eigenvalue 1 of the matrix is itself
        # a block eigenvalue.  No division by zero may happen.
        blocks = np.array([[[1.0]], [[2.0]], [[3.0]]])
        factor = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        expected = [1.0 - np.sqrt(2.0), 1.0, 1.0 + np.sqrt(2.0)]
        assert np.allclose(np.linalg.eigvalsh(dense_gap(blocks, factor)), expected, atol=1e-14)
        mu = blocks.ravel()  # 1 x 1 blocks are their eigenvalues, and E = factor
        with np.errstate(divide="raise", invalid="raise"):
            for k in range(1, 4):
                assert abs(lambda_kth_smallest(mu, factor, k) - expected[k - 1]) <= 1e-12


    def test_shift_next_to_a_block_eigenvalue(self):
        # The first shift for k = 4 is the block eigenvalue 1, whose factor
        # row is not zero.  A count taken an ulp away from it would invert a
        # 1e16 term and lose the other Schur eigenvalues to roundoff.
        blocks = np.array([0.0, 1.0, 0.0, 2.0]).reshape(4, 1, 1)
        factor = np.array([[0.0, 0.0, 0.0], [-1.0, 0.1, 1.0], [0.0, 0.0, 0.0], [0.4, 0.0, 0.5]])
        full = np.linalg.eigvalsh(dense_gap(blocks, factor))
        for k in range(1, 5):
            assert abs(lambda_kth_smallest(blocks.ravel(), factor, k) - full[k - 1]) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        d=st.integers(min_value=1, max_value=3),
        m=st.integers(min_value=1, max_value=5),
        kind=st.sampled_from(["integer", "repeated", "scaled", "zero_rows"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_structured_inputs_match_dense(self, n, d, m, kind, seed):
        # Repeated block eigenvalues, shifts that hit them exactly, blocks and
        # factors on scales 1e12 apart, and factor rows that are zero.
        rng = np.random.default_rng(seed)
        if kind == "integer":
            a = rng.integers(-3, 4, size=(n, d, d)).astype(float)
            factor = rng.integers(-2, 3, size=(n * d, m)).astype(float)
        elif kind == "repeated":
            a = np.broadcast_to(rng.standard_normal((d, d)), (n, d, d))
            factor = np.kron(np.ones((n, 1)), rng.standard_normal((d, m)))
        elif kind == "scaled":
            a = rng.standard_normal((n, d, d)) * 10.0 ** rng.integers(-6, 7)
            factor = rng.standard_normal((n * d, m)) * 10.0 ** rng.integers(-6, 7)
        else:
            a = np.zeros((n, d, d))
            a[:, range(d), range(d)] = rng.integers(0, 3, size=(n, d))
            factor = rng.standard_normal((n * d, m)) * (rng.random((n * d, 1)) < 0.5)
        blocks = a + a.transpose(0, 2, 1)
        full = np.linalg.eigvalsh(dense_gap(blocks, factor))
        scale = np.max(np.abs(np.linalg.eigvalsh(blocks))) + np.linalg.norm(factor, 2) ** 2
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            mu, e = block_spectrum(blocks, factor)
            for k in range(1, n * d + 1):
                assert abs(lambda_kth_smallest(mu, e, k) - full[k - 1]) <= 1e-11 * scale


    def test_lambda_min_at_a_certified_stack_starts_at_zero(self, monkeypatch):
        # At a stationary stack Lambda - C has d eigenvalues within roundoff
        # of 0, so the search for lambda_1 that starts at 0 closes in a few
        # Schur counts instead of the 7 to 9 of a search from the midpoint.
        inst = generate_instance("uniform_cube", 100, 25, 3, 0.4, seed=1)
        gram = build_gram(inst.observed, center_first=False)
        cert = certify(gram, solve(gram, GpmConfig(init="random", seed=1)).solution)
        assert cert.certified
        counts = []
        schur_count = linops._schur_count

        def counted(mu, e, norms, exact, t, k):
            counts.append(t)
            return schur_count(mu, e, norms, exact, t, k)

        monkeypatch.setattr(linops, "_schur_count", counted)
        lam_min = math.ldexp(lambda_kth_smallest(*cert.spectrum, 1), cert.exponent)
        assert 1 <= len(counts) <= 3 and counts[0] == 0.0
        assert lam_min == pytest.approx(cert.lambda_min, abs=1e-11 * gram.spectral_norm())


class TestTopDLeftSingular:
    def test_identity_stack_projector(self):
        n, d = 4, 2
        z = StiefelStack.identity(n, d).stacked
        u = top_d_left_singular(z, d)
        assert np.allclose(u @ u.T, z @ z.T / n, atol=1e-12)
        for i in range(n):
            blk = np.sqrt(n) * u[i * d : (i + 1) * d]
            assert np.linalg.norm(blk @ blk.T - np.eye(d)) <= 1e-10

    def test_rank_d_reconstruction(self, rng):
        d_mat = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 6))
        u = top_d_left_singular(d_mat, 2)
        rel = np.linalg.norm(u @ (u.T @ d_mat) - d_mat) / np.linalg.norm(d_mat)
        assert rel <= 1e-8

    def test_singular_values_match_full_svd(self, rng):
        d_mat = rng.standard_normal((9, 5))
        u = top_d_left_singular(d_mat, 3)
        top = np.linalg.svd(u.T @ d_mat, compute_uv=False)
        full = np.linalg.svd(d_mat, compute_uv=False)[:3]
        assert np.max(np.abs(top - full)) <= 1e-10

    def test_degenerate_gap_warns(self):
        with pytest.warns(SpectralGapWarning):
            top_d_left_singular(np.eye(4), 2)


# Property tests: perturbation bounds for the polar factor and the d_F metric.


@settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3, 5]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_polar_perturbation_bounds(d, seed):
    # ||P(X) - P(Y)|| <= 2||X - Y|| / (s_min(X) + s_min(Y)), same with
    # Frobenius norms and constant 4.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, d))
    y = rng.standard_normal((d, d))
    smin = np.linalg.svd(x, compute_uv=False)[-1] + np.linalg.svd(y, compute_uv=False)[-1]
    if smin <= 1e-8:
        return
    diff = polar_one_block(x) - polar_one_block(y)
    assert np.linalg.norm(diff, 2) <= 2.0 * np.linalg.norm(x - y, 2) / smin + 1e-10
    assert np.linalg.norm(diff) <= 4.0 * np.linalg.norm(x - y) / smin + 1e-10


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_aligned_product_inequality(n, d, seed):
    # ||Y^T X - n Q||_F <= ||X - Y Q||_F^2 / 2 with Q the optimal aligner.
    rng = np.random.default_rng(seed)
    x = random_stack(rng, n, d)
    y = random_stack(rng, n, d)
    res = align(x, y)
    lhs = np.linalg.norm(y.stacked.T @ x.stacked - n * res.aligner)
    assert lhs <= 0.5 * res.distance**2 + 1e-8


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=1, max_value=3),
    p_extra=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_df_triangle_inequality(n, d, p_extra, seed):
    rng = np.random.default_rng(seed)
    p = d + p_extra
    x = random_stack(rng, n, d, p)
    y = random_stack(rng, n, d, p)
    z = random_stack(rng, n, d, p)
    assert df(x, z) <= df(x, y) + df(y, z) + 1e-8


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    d=st.integers(min_value=1, max_value=3),
    p_extra=st.integers(min_value=0, max_value=3),
    log_step=st.floats(min_value=-8.5, max_value=0.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gram_change_matches_dense_oracle(n, d, p_extra, log_step, seed):
    # The dense ||T T^T - S S^T||_F is formed in extended precision: in
    # float64 its own roundoff reaches ~1e-10 of a 1e-6 residual.  With
    # n = 1 every T has the same Gram matrix as S: T - S is a pure global
    # rotation and the dense value is 0.
    rng = np.random.default_rng(seed)
    s = random_stack(rng, n, d, d + p_extra)
    t = polar_blockwise(s.blocks + 10.0**log_step * rng.standard_normal(s.blocks.shape))
    sl, tl = (x.stacked.astype(np.longdouble) for x in (s, t))
    dense = float(np.sqrt(np.sum((tl @ tl.T - sl @ sl.T) ** 2)))
    got = gram_change(s.stacked, t.stacked)
    if dense >= 1e-6:
        assert abs(got - dense) <= 1e-10 * dense
    else:
        assert abs(got - dense) <= 1e-12
    assert gram_change(s.stacked, s.stacked) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    d=st.integers(min_value=1, max_value=4),
    p_extra=st.integers(min_value=0, max_value=3),
    log_kappa=st.floats(min_value=0.0, max_value=11.0),
    log_scale=st.floats(min_value=-250.0, max_value=250.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_polar_blockwise_matches_oracle(n, d, p_extra, log_kappa, log_scale, seed):
    # Both sides of the Gram/SVD switch at kappa = 100, at any scale.
    rng = np.random.default_rng(seed)
    assert_matches_polar(conditioned_blocks(rng, n, d, d + p_extra, log_kappa, log_scale))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    d=st.integers(min_value=1, max_value=4),
    p_extra=st.integers(min_value=0, max_value=3),
    log_step=st.floats(min_value=-12.0, max_value=0.0),
    log_scale=st.floats(min_value=-250.0, max_value=250.0),
    odd_block=st.sampled_from([None, "gaussian", "zero", "rank_deficient"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_polar_blockwise_tangent_steps_match_oracle(
    n, d, p_extra, log_step, log_scale, odd_block, seed
):
    # Retraction inputs S + tT, T tangent, on both sides of the Newton-Schulz
    # switch; one odd block sends the whole call to the eigh/SVD path.
    rng = np.random.default_rng(seed)
    s = random_stack(rng, n, d, d + p_extra)
    blocks = s.blocks + 10.0**log_step * random_tangent(rng, s)
    i = rng.integers(n)
    if odd_block == "gaussian":
        blocks[i] = rng.standard_normal((d, d + p_extra))
    elif odd_block == "zero":
        blocks[i] = 0.0
    elif odd_block == "rank_deficient":
        blocks[i] = conditioned_blocks(rng, 1, d, d + p_extra, 13.0)[0]
    blocks *= 10.0**log_scale
    expected = [j for j in range(n) if rank_warnings(polar, blocks[j])]
    messages = rank_warnings(polar_blockwise, blocks)
    assert [int(re.search(r"block (\d+)", m).group(1)) for m in messages] == expected
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        assert_matches_polar(blocks)


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=4),
    p_extra=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_polar_output_on_manifold(d, p_extra, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, d + p_extra))
    out = polar_one_block(x)
    assert np.linalg.norm(out @ out.T - np.eye(d)) <= 1e-10
