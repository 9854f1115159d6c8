"""Unit tests for the Stiefel-manifold ascent."""
import warnings

import numpy as np
import pytest

from gopp import bm
from gopp.bench import generate_instance
from gopp.bm import (
    BmConfig,
    retract,
    riemannian_gradient,
    solve_bm,
    tangent_project_stack,
)
from gopp.certificate import certify
from gopp.gpm import GpmConfig, SolveReport, objective, solve
from gopp.linops import RankDeficiencyWarning, StiefelStack, polar_blockwise
from gopp.model import build_data_matrix, build_gram

from conftest import dense_gram, random_orthogonal, random_stack, random_tangent


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
            dense_gram(gram)
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
        assert gnorm <= config.grad_tol * np.linalg.norm(dense_gram(gram))

    @pytest.mark.parametrize("p", [2, 5])
    def test_equals_minus_certificate_residual(self, rng, p):
        # With g = C S and Lambda_ii = sym(g_i S_i^T), grad_i = g_i - Lambda_ii S_i
        # = -((Lambda - C) S)_i at every S, not only at critical points.
        _, gram = small_instance()
        s = random_stack(rng, 8, 2, p)
        cert = certify(gram, s)
        residual = cert.lambda_blocks @ s.blocks - (dense_gram(gram) @ s.stacked).reshape(8, 2, p)
        grad = riemannian_gradient(gram, s)
        assert np.linalg.norm(grad + residual) <= 1e-12 * gram.fro_norm()
        assert np.linalg.norm(grad) == pytest.approx(cert.stationarity_residual_fro, rel=1e-12)


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

    def test_retraction_error_is_second_order(self, rng):
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

    @pytest.mark.parametrize("h", [1e-3, 1.0, 1e6])
    def test_tangent_step_is_one_polar_without_warning(self, rng, h):
        s = random_stack(rng, 4, 3, 7)
        t = random_tangent(rng, s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = retract(s, t, h)
        assert np.array_equal(out.blocks, polar_blockwise(s.blocks + h * t).blocks)

    def test_non_tangent_step_that_empties_a_block_warns(self, rng):
        # T = -S is normal, not tangent: S + T = 0 has no unique polar factor.
        s = random_stack(rng, 2, 2, 3)
        with pytest.warns(RankDeficiencyWarning):
            retract(s, -s.blocks, 1.0)


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

    def test_bb_steps_converge_fast_on_criterion_8_instance(self):
        # Alternating Barzilai-Borwein steps take 25-31 iterations per start
        # here; the grow-and-halve rule they replaced took 54-90.
        inst = generate_instance("uniform_cube", 100, 25, 3, 0.3, seed=8)
        gram = build_gram(inst.observed, center_first=False)
        for seed in range(30):
            report = solve_bm(gram, BmConfig(p=7, seed=seed))
            assert report.converged
            assert report.iterations <= 50, seed
            hist = report.objective_history
            for prev, cur in zip(hist, hist[1:]):
                assert cur >= prev - 1e-9 * abs(prev), seed

    def test_time_limit_stops_after_one_iteration(self):
        _, gram = small_instance(sigma=0.3)
        report = solve_bm(gram, BmConfig(p=5, grad_tol=1e-300, time_limit_s=1e-9))
        assert report.timed_out and not report.converged
        assert report.iterations == 1
        assert len(report.residual_history) == 2

    def test_step_falls_back_to_growth_when_bb_undefined(self, monkeypatch):
        # A retraction that leaves S in place gives s = y = 0, so <s, y> = 0
        # and neither BB step is defined: each trial step must then be the
        # last accepted one over BACKTRACK, starting from 1/||C||_2.
        _, gram = small_instance(sigma=0.3)
        steps = []

        def stuck(s, t, step):
            steps.append(step)
            return s

        monkeypatch.setattr(bm, "retract", stuck)
        report = solve_bm(gram, BmConfig(p=5, seed=1, max_iter=40))
        assert isinstance(report, SolveReport)
        assert report.iterations == 40
        assert not report.converged and not report.timed_out
        assert len(report.residual_history) == len(report.objective_history) == 41
        assert np.all(np.isfinite(report.residual_history))
        assert np.all(np.isfinite(report.objective_history))
        assert len(set(report.objective_history)) == 1
        assert len(steps) == 40
        assert steps[0] == 1.0 / gram.spectral_norm()
        for prev, cur in zip(steps, steps[1:]):
            assert cur == prev / bm.BACKTRACK

    def test_ascent_past_float64_resolution_stays_finite_and_monotone(self):
        # With grad_tol far below the float64 floor the ascent keeps going
        # where S can stop moving, which makes <s, y> zero.
        _, gram = small_instance(sigma=0.0)
        config = BmConfig(p=5, seed=0, grad_tol=1e-300, max_iter=300)
        report = solve_bm(gram, config)
        assert report.iterations == 300 and not report.converged
        assert len(report.residual_history) == 301
        assert np.all(np.isfinite(report.residual_history))
        hist = report.objective_history
        assert np.all(np.isfinite(hist))
        for prev, cur in zip(hist, hist[1:]):
            assert cur >= prev - 1e-9 * abs(prev)
        assert report.residual_history[-1] <= 1e-12 * gram.fro_norm()

    def test_ascent_ends_when_no_trial_step_is_accepted(self, monkeypatch):
        # Every trial point lowers f by more than float64 resolution, so the
        # line search backtracks below 1e-20: the ascent ends unconverged at
        # the last iterate instead of iterating on in place until max_iter.
        _, gram = small_instance(sigma=0.0)
        top = solve_bm(gram, BmConfig(p=5, seed=0)).solution
        worse = random_stack(np.random.default_rng(1), 8, 2, 5)
        assert objective(gram, worse) < 0.9 * objective(gram, top)
        steps = []

        def rejected(s, t, step):
            steps.append(step)
            return worse

        monkeypatch.setattr(bm, "retract", rejected)
        config = BmConfig(p=5, seed=0, grad_tol=1e-300, max_iter=300)
        report = solve_bm(gram, config, init=top)
        assert report.iterations == 0
        assert not report.converged and not report.timed_out
        assert report.solution is top
        assert report.objective_history == [objective(gram, top)]
        assert len(report.residual_history) == 1
        assert steps[0] == 1.0 / gram.spectral_norm()
        assert steps[-1] >= 1e-20 > steps[-1] * bm.BACKTRACK

    def test_one_product_per_trial_point(self, gram_products, monkeypatch):
        # Each trial point's objective and gradient come from one product C S;
        # the start is the one point that is not a trial point.
        _, gram = small_instance(sigma=0.3)
        trials = []

        def counted(s, t, step):
            trials.append(step)
            return retract(s, t, step)

        monkeypatch.setattr(bm, "retract", counted)
        report = solve_bm(gram, BmConfig(p=5, seed=1))
        assert report.converged
        assert len(trials) > report.iterations  # some trial points were rejected
        assert gram_products[0] == len(trials) + 1

    @pytest.mark.parametrize("grad_tol", [0.0, -1e-8, float("nan"), float("inf")])
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
        assert gap <= 1e-9 * np.linalg.norm(dense_gram(gram))

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
