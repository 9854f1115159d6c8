"""Unit tests for the Stiefel-manifold ascent, curvature probe, and bounds."""
import numpy as np
import pytest

from gopp.bench import generate_instance
from gopp.bm import (
    BmConfig,
    landscape_bounds,
    retract,
    riemannian_gradient,
    second_order_residual,
    solve_bm,
    tangent_project_stack,
)
from gopp.certificate import certify
from gopp.gpm import GpmConfig, objective, solve
from gopp.linops import StiefelStack
from gopp.model import GramMatrix, build_data_matrix, build_gram

from conftest import partial_trace, random_orthogonal, random_stack, random_tangent


def small_instance(n=8, d=2, m=6, sigma=0.2, seed=0):
    inst = generate_instance("uniform_cube", n, m, d, sigma, seed=seed)
    return inst, build_gram(inst.observed, center_first=False)


class TestGradients:
    def test_riemannian_is_half_projected_euclidean(self, rng):
        _, gram = small_instance()
        s = random_stack(rng, 8, 2, 3)
        lhs = riemannian_gradient(gram, s)
        euclidean = 2.0 * (gram @ s.stacked).reshape(s.n, s.d, s.p)
        rhs = 0.5 * tangent_project_stack(s, euclidean)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_vanishes_at_noiseless_truth(self):
        inst, gram = small_instance(sigma=0.0)
        z = StiefelStack.identity(inst.n, inst.d, 2 * inst.d + 1)
        assert np.max(np.abs(riemannian_gradient(gram, z))) <= 1e-12 * np.linalg.norm(
            gram.data
        )

    def test_directional_derivative_matches_finite_difference(self, rng):
        _, gram = small_instance()
        s = random_stack(rng, 8, 2, 3)
        t = random_tangent(rng, s)
        h = 1e-5
        fp = objective(gram, retract(s, t, h))
        fm = objective(gram, retract(s, -t, h))
        fd = (fp - fm) / (2.0 * h)
        # The curve's velocity is T, so d/dh f = <euclidean grad, T>.
        analytic = 2.0 * float(np.sum(riemannian_gradient(gram, s) * t))
        assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))

    def test_norm_small_at_converged_solve(self):
        _, gram = small_instance(sigma=0.3)
        config = BmConfig(p=5, seed=1)
        report = solve_bm(gram, config)
        assert report.converged
        gnorm = np.linalg.norm(riemannian_gradient(gram, report.solution))
        assert gnorm <= config.grad_tol * np.linalg.norm(gram.data)


class TestTangentProject:
    def test_tangent_vector_unchanged(self, rng):
        s = random_stack(rng, 1, 2, 4)
        t = random_tangent(rng, s)
        assert np.allclose(tangent_project_stack(s, t), t, atol=1e-12)

    def test_normal_direction_killed(self, rng):
        s = random_stack(rng, 1, 2, 4)
        assert np.max(np.abs(tangent_project_stack(s, s.blocks))) <= 1e-12

    def test_idempotent(self, rng):
        s = random_stack(rng, 1, 3, 4)
        g = rng.standard_normal((1, 3, 4))
        once = tangent_project_stack(s, g)
        twice = tangent_project_stack(s, once)
        assert np.allclose(once, twice, atol=1e-12)

    def test_output_in_tangent_space(self, rng):
        s = random_stack(rng, 1, 2, 5)
        g = rng.standard_normal((1, 2, 5))
        t = tangent_project_stack(s, g)[0]
        skew = t @ s.blocks[0].T + s.blocks[0] @ t.T
        assert np.linalg.norm(skew) <= 1e-10 * max(np.linalg.norm(t), 1e-300)


class TestRetract:
    def test_zero_step_identity(self, rng):
        s = random_stack(rng, 2, 2, 3)
        t = random_tangent(rng, s)
        assert retract(s, t, 0.0) is s

    def test_second_order_residual_scaling(self, rng):
        s = random_stack(rng, 2, 2, 3)
        t = random_tangent(rng, s)
        res = {}
        for h in (1e-3, 1e-4):
            out = retract(s, t, h)
            res[h] = np.linalg.norm(out.blocks - (s.blocks + h * t))
        # O(h^2) residual: shrinking h by 10 shrinks the gap by ~100.
        assert res[1e-4] <= 2e-2 * res[1e-3] + 1e-14

    def test_orthonormality_after_many_retractions(self, rng):
        s = random_stack(rng, 2, 2, 3)
        for _ in range(1000):
            t = random_tangent(rng, s)
            s = retract(s, t, 0.1)
        gram = s.blocks @ s.blocks.transpose(0, 2, 1)
        assert np.max(np.linalg.norm(gram - np.eye(2), axis=(1, 2))) <= 1e-10

    def test_negative_step_rejected(self, rng):
        s = random_stack(rng, 2, 2, 3)
        with pytest.raises(ValueError):
            retract(s, random_tangent(rng, s), -1.0)


class TestSolveBm:
    def test_noiseless_recovers_truth_gram(self):
        # Random overparameterized starts find the global maximizer.
        inst, gram = small_instance(n=12, d=2, m=8, sigma=0.0)
        z = StiefelStack.identity(inst.n, inst.d)
        zz = z.stacked @ z.stacked.T
        hits = 0
        for seed in range(20):
            report = solve_bm(gram, BmConfig(p=5, seed=seed))
            ss = report.solution.stacked @ report.solution.stacked.T
            hits += np.linalg.norm(ss - zz) <= 1e-6 * np.linalg.norm(zz)
        assert hits >= 18

    def test_truth_init_immediately_critical(self):
        inst, gram = small_instance(sigma=0.0)
        z = StiefelStack.identity(inst.n, inst.d)
        report = solve_bm(gram, BmConfig(p=inst.d), init=z)
        assert report.converged
        assert report.iterations == 0

    def test_matches_gpm_at_high_snr(self):
        inst = generate_instance("uniform_cube", 30, 25, 3, 0.3, seed=2)
        gram = build_gram(inst.observed, center_first=False)
        gpm = solve(
            gram,
            GpmConfig(init="spectral", tol=1e-10),
            d_for_init=build_data_matrix(inst.observed),
        )
        assert certify(gram, gpm.solution).certified
        g_ref = gpm.solution.stacked @ gpm.solution.stacked.T
        report = solve_bm(gram, BmConfig(p=7, seed=3))
        sv = np.array(report.singular_values_of_s)
        assert sv[inst.d] <= 1e-6
        ss = report.solution.stacked @ report.solution.stacked.T
        assert np.linalg.norm(ss - g_ref) <= 1e-6 * np.linalg.norm(g_ref)

    def test_converges_at_float64_resolution(self):
        # On the criterion-8 instance f is near 2e5, so Armijo alone cannot
        # see an increase below ulp(f) ~ 3e-11 and an ascent could stall with
        # ||grad|| a few times grad_tol * ||C||_F until max_iter.
        inst = generate_instance("uniform_cube", 100, 25, 3, 0.3, seed=8)
        gram = build_gram(inst.observed, center_first=False)
        stalled = [
            seed for seed in range(30) if not solve_bm(gram, BmConfig(p=7, seed=seed)).converged
        ]
        assert stalled == []

    @pytest.mark.parametrize("grad_tol", [0.0, -1e-8, float("nan")])
    def test_nonpositive_grad_tol_rejected(self, grad_tol):
        with pytest.raises(ValueError, match="grad_tol must be positive"):
            BmConfig(p=5, grad_tol=grad_tol)

    @pytest.mark.parametrize("limit", [0.0, -1.0, float("nan")])
    def test_time_limit_not_positive_rejected(self, limit):
        with pytest.raises(ValueError, match="time_limit_s"):
            BmConfig(p=5, time_limit_s=limit)

    @pytest.mark.parametrize("max_iter", [5000, 3])
    def test_residual_history_is_gradient_norm_at_each_iterate(self, max_iter):
        _, gram = small_instance(sigma=0.3)
        config = BmConfig(p=5, seed=1, max_iter=max_iter)
        report = solve_bm(gram, config)
        assert report.converged is (max_iter == 5000)
        assert len(report.residual_history) == report.iterations + 1
        tol = config.grad_tol * gram.fro_norm()
        assert report.converged == (report.residual_history[-1] <= tol)
        gnorm = np.linalg.norm(riemannian_gradient(gram, report.solution))
        assert report.residual_history[-1] == pytest.approx(gnorm, rel=1e-12)

    def test_p_below_d_rejected(self):
        _, gram = small_instance()
        with pytest.raises(ValueError, match="at least"):
            solve_bm(gram, BmConfig(p=1))

    def test_objective_monotone_under_backtracking(self):
        _, gram = small_instance(sigma=0.5, seed=4)
        report = solve_bm(gram, BmConfig(p=5, seed=5))
        hist = report.objective_history
        for prev, cur in zip(hist, hist[1:]):
            assert cur >= prev - 1e-9

    def test_objective_invariant_under_right_rotation(self, rng):
        _, gram = small_instance()
        s = random_stack(rng, 8, 2, 5)
        q = random_orthogonal(rng, 5)
        rotated = StiefelStack(s.blocks @ q)
        gap = abs(objective(gram, s) - objective(gram, rotated))
        assert gap <= 1e-9 * np.linalg.norm(gram.data)

    def test_full_rank_factorization_attains_certified_value(self):
        # p = nd interpolation endpoint reaches the relaxation's optimum on
        # an instance where the power method certifies.
        inst, gram = small_instance(n=6, d=2, m=6, sigma=0.1, seed=6)
        gpm = solve(
            gram,
            GpmConfig(init="spectral", tol=1e-10),
            d_for_init=build_data_matrix(inst.observed),
        )
        assert certify(gram, gpm.solution).certified
        target = objective(gram, gpm.solution)
        report = solve_bm(gram, BmConfig(p=inst.n * inst.d, seed=7))
        assert objective(gram, report.solution) >= target - 1e-6 * abs(target)


class TestSecondOrder:
    def test_nonnegative_at_global_max(self):
        inst, gram = small_instance(sigma=0.0)
        z = StiefelStack.identity(inst.n, inst.d, 2 * inst.d + 1)
        result = second_order_residual(gram, z, trials=100, seed=0)
        assert result.residual >= -1e-10 * np.linalg.norm(gram.data, 2)

    def test_sign_saddle_detected(self):
        # (+, -, +) on the all-ones Gram is first-order critical but not a
        # maximizer; the multiplier blocks betray it.
        gram = GramMatrix(factor=np.ones((3, 1)), n=3, d=1)
        s = StiefelStack(np.array([1.0, -1.0, 1.0]).reshape(3, 1, 1))
        result = second_order_residual(gram, s, trials=10, seed=0)
        assert result.residual < 0.0
        assert result.escape_block is not None
        assert result.escape_vector is not None

    def test_monotone_in_trials(self):
        inst, gram = small_instance(sigma=0.2, seed=8)
        report = solve_bm(gram, BmConfig(p=5, seed=8))
        one = second_order_residual(gram, report.solution, trials=1, seed=3)
        many = second_order_residual(gram, report.solution, trials=100, seed=3)
        assert one.residual >= many.residual

    def test_requires_first_order_criticality(self, rng):
        _, gram = small_instance()
        with pytest.raises(ValueError, match="critical"):
            second_order_residual(gram, random_stack(rng, 8, 2, 5))


class TestLandscapeBounds:
    def test_noiseless_satisfied(self):
        inst, _ = small_instance(sigma=0.0)
        report = landscape_bounds(inst, p=2 * inst.d + 1)
        assert report.max_block_noise == 0.0
        assert report.delta_pi_norm == 0.0
        assert report.satisfied

    def test_p_equal_2d_never_satisfied_with_noise(self):
        inst, _ = small_instance(sigma=0.1)
        report = landscape_bounds(inst, p=2 * inst.d)
        assert report.bound_rhs == 0.0
        assert not report.satisfied
        assert report.delta == np.inf

    def test_partial_trace_matches_naive(self):
        inst = generate_instance("uniform_cube", 5, 4, 2, 0.01, seed=9)
        a = inst.truth.points
        n, d = inst.n, inst.d
        pi_inv = np.linalg.inv(a @ a.T)
        delta = np.vstack(
            [inst.observed.clouds[i].points - a for i in range(n)]
        )
        z = np.tile(np.eye(d), (n, 1))
        delta_tilde = delta @ a.T @ z.T + z @ a @ delta.T + delta @ delta.T
        naive = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                blk = delta_tilde[i * d : (i + 1) * d, j * d : (j + 1) * d]
                naive[i, j] = np.trace(pi_inv @ blk)
        assert np.max(np.abs(partial_trace(delta_tilde, pi_inv) - naive)) <= 1e-12
        report = landscape_bounds(inst, p=5)
        assert report.partial_trace_norm == pytest.approx(
            np.linalg.norm(naive, 2), abs=1e-10
        )

    def test_gamma_at_least_one(self):
        inst, _ = small_instance(sigma=0.3, seed=10)
        report = landscape_bounds(inst, p=5)
        assert report.gamma >= 1.0
