"""Unit tests for the power method: init, iteration, stopping, rate fit."""
import math

import numpy as np
import pytest

from gopp.bench import generate_instance
from gopp.certificate import certify
from gopp.gpm import (
    INIT_MODES,
    GpmConfig,
    estimate_rate,
    gauge_fix,
    gpm_step,
    random_init,
    solve,
    spectral_init,
)
from gopp.linops import StiefelStack, df
from gopp.model import GramMatrix, build_data_matrix, build_gram

from conftest import gram_block, polar, random_stack


def noiseless_setup(n=12, d=3, m=10, seed=0, model="uniform_cube"):
    inst = generate_instance(model, n, m, d, 0.0, seed=seed)
    gram = build_gram(inst.observed, center_first=False)
    return inst, gram


class TestConfig:
    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError, match="tol"):
            GpmConfig(tol=0.0)

    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            GpmConfig(max_iter=0)

    def test_rejects_unknown_init(self):
        with pytest.raises(ValueError, match="init"):
            GpmConfig(init="warm")

    def test_rejects_nan_tol(self):
        with pytest.raises(ValueError, match="tol"):
            GpmConfig(tol=float("nan"))

    def test_rejects_infinite_tol(self):
        # An infinite tol would stop the first step at any residual and call it converged.
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            GpmConfig(tol=float("inf"))

    def test_init_modes_are_the_computed_starts(self):
        assert INIT_MODES == ("spectral", "random")

    @pytest.mark.parametrize("limit", [0.0, -1.0, float("nan")])
    def test_rejects_time_limit_not_positive(self, limit):
        with pytest.raises(ValueError, match="time_limit_s"):
            GpmConfig(time_limit_s=limit)

    @pytest.mark.parametrize("limit", [None, 1e-3, float("inf")])
    def test_accepts_time_limit(self, limit):
        assert GpmConfig(time_limit_s=limit).time_limit_s == limit


class TestSpectralInit:
    def test_noiseless_recovers_truth(self):
        inst, _ = noiseless_setup()
        d_mat = build_data_matrix(inst.observed)
        s0 = spectral_init(d_mat, inst.n)
        z = StiefelStack.identity(inst.n, inst.d)
        assert df(s0, z) <= 1e-8

    def test_single_block_is_orthogonal(self, rng):
        d_mat = rng.standard_normal((3, 8))
        s0 = spectral_init(d_mat, 1)
        b = s0.blocks[0]
        assert np.linalg.norm(b @ b.T - np.eye(3)) <= 1e-10

    def test_low_noise_lands_in_basin(self):
        # At low noise the spectral start sits inside the contraction
        # neighborhood epsilon_hat < 1/(16 kappa^2 sqrt(d)) measured with the
        # empirical condition number of the latent cloud.  (At sigma=0.5 the
        # init is still good enough for convergence in practice, but this
        # specific bound only holds once the noise premise behind it does.)
        inst = generate_instance("uniform_cube", 100, 25, 3, 0.02, seed=0)
        s0 = spectral_init(build_data_matrix(inst.observed), inst.n)
        z = StiefelStack.identity(inst.n, inst.d)
        svals = np.linalg.svd(inst.truth.points, compute_uv=False)
        kappa = svals[0] / svals[-1]
        eps = df(s0, z) / math.sqrt(inst.n * inst.d)
        assert eps < 1.0 / (16.0 * kappa**2 * math.sqrt(inst.d))

    def test_bad_row_count(self, rng):
        with pytest.raises(ValueError):
            spectral_init(rng.standard_normal((7, 5)), 2)


class TestGpmStep:
    def test_noiseless_fixed_point(self):
        inst, gram = noiseless_setup()
        z = StiefelStack.identity(inst.n, inst.d)
        out = gpm_step(gram @ z.stacked, z)
        assert np.allclose(out.blocks, z.blocks, atol=1e-12)

    def test_single_spd_block_fixes_orthogonal(self, rng):
        # n=1: C = A A^T is SPD, so polar(C S) = S for any orthogonal S.
        a = rng.standard_normal((3, 6))
        gram = GramMatrix(factor=a, n=1, d=3)
        s = random_stack(rng, 1, 3)
        out = gpm_step(gram @ s.stacked, s)
        assert np.allclose(out.blocks, s.blocks, atol=1e-10)

    def test_matches_naive_loop(self, rng):
        inst = generate_instance("uniform_cube", 5, 8, 2, 0.4, seed=3)
        gram = build_gram(inst.observed, center_first=False)
        s = random_stack(rng, 5, 2)
        out = gpm_step(gram @ s.stacked, s)
        for i in range(5):
            acc = sum(gram_block(gram, i, j) @ s.blocks[j] for j in range(5))
            assert np.allclose(out.blocks[i], polar(acc), atol=1e-12)


class TestSolve:
    def test_noiseless_exact_recovery(self):
        inst, gram = noiseless_setup()
        report = solve(
            gram, GpmConfig(init="spectral"), d_for_init=build_data_matrix(inst.observed)
        )
        assert report.converged
        assert report.iterations <= 5
        z = StiefelStack.identity(inst.n, inst.d)
        assert df(report.solution, z) <= 1e-8

    def test_converged_residual_below_tol(self):
        inst = generate_instance("uniform_cube", 10, 12, 2, 0.3, seed=5)
        gram = build_gram(inst.observed, center_first=False)
        config = GpmConfig(init="random", seed=1)
        report = solve(gram, config)
        assert report.converged
        assert report.residual_history[-1] <= config.tol

    def test_objective_monotone(self):
        inst = generate_instance("uniform_cube", 10, 12, 2, 0.6, seed=6)
        gram = build_gram(inst.observed, center_first=False)
        report = solve(gram, GpmConfig(init="random", seed=2))
        hist = report.objective_history
        for prev, cur in zip(hist, hist[1:]):
            assert cur >= prev - 1e-9

    def test_max_iter_exhaustion_is_not_an_error(self):
        inst = generate_instance("uniform_cube", 10, 12, 2, 1.5, seed=7)
        gram = build_gram(inst.observed, center_first=False)
        report = solve(gram, GpmConfig(init="random", seed=3, max_iter=2, tol=1e-15))
        assert not report.converged
        assert report.iterations == 2

    def test_time_limit_stops_after_one_iteration(self):
        inst = generate_instance("uniform_cube", 10, 12, 2, 0.6, seed=6)
        gram = build_gram(inst.observed, center_first=False)
        report = solve(gram, GpmConfig(init="random", tol=1e-300, time_limit_s=1e-9))
        assert report.timed_out and not report.converged
        assert report.iterations == 1
        assert len(report.residual_history) == 1

    def test_spectral_init_without_data_matrix_seeds_from_gram_factor(self):
        # On an uncentred Gram matrix the factor is the stacked clouds, bit for bit.
        inst = generate_instance("uniform_cube", 10, 12, 3, 0.6, seed=4)
        gram = build_gram(inst.observed, center_first=False)
        config = GpmConfig(init="spectral", keep_iterates=True)
        seeded = solve(gram, config)
        given = solve(gram, config, d_for_init=build_data_matrix(inst.observed))
        assert seeded.iterations == given.iterations
        for a, b in zip(seeded.iterates, given.iterates):
            assert np.array_equal(a.blocks, b.blocks)
        assert seeded.residual_history == given.residual_history
        assert np.array_equal(seeded.solution.blocks, given.solution.blocks)

    def test_given_start_needs_no_data_matrix(self):
        inst, gram = noiseless_setup()
        z = StiefelStack.identity(inst.n, inst.d)
        report = solve(gram, GpmConfig(init="spectral", keep_iterates=True), s_init=z)
        assert report.iterates[0] is z

    @pytest.mark.parametrize("n, d", [(11, 3), (12, 2)])
    def test_given_start_shape_checked(self, n, d):
        _, gram = noiseless_setup()
        with pytest.raises(ValueError, match="does not match"):
            solve(gram, GpmConfig(), s_init=StiefelStack.identity(n, d))

    def test_wide_start_keeps_its_columns(self, rng):
        inst = generate_instance("uniform_cube", 20, 10, 3, 0.3, seed=5)
        gram = build_gram(inst.observed, center_first=False)
        report = solve(gram, GpmConfig(keep_iterates=True), s_init=random_stack(rng, 20, 3, 5))
        sol, last = report.solution, report.iterates[-1]
        assert sol.blocks.shape == (20, 3, 5)
        assert np.allclose(sol.blocks[0], np.eye(3, 5), atol=1e-12)
        assert np.allclose(sol.stacked @ sol.stacked.T, last.stacked @ last.stacked.T, atol=1e-12)

    def test_gauge_fixed_solution(self):
        inst = generate_instance("uniform_cube", 8, 10, 2, 0.2, seed=8)
        gram = build_gram(inst.observed, center_first=False)
        report = solve(gram, GpmConfig(init="random", seed=4))
        assert np.allclose(report.solution.blocks[0], np.eye(2), atol=1e-10)

    def test_moderate_noise_certifies_in_most_trials(self):
        # sigma=0.5 uniform instances with spectral init: the certificate
        # passes in at least 18 of 20 seeded trials.
        hits = 0
        for trial in range(20):
            inst = generate_instance("uniform_cube", 100, 25, 3, 0.5, seed=trial)
            gram = build_gram(inst.observed, center_first=False)
            report = solve(
                gram,
                GpmConfig(init="spectral", tol=1e-10),
                d_for_init=build_data_matrix(inst.observed),
            )
            cert = certify(gram, report.solution)
            hits += report.converged and cert.certified
        assert hits >= 18

    def test_json_report_shape(self):
        inst, gram = noiseless_setup()
        report = solve(
            gram, GpmConfig(init="spectral"), d_for_init=build_data_matrix(inst.observed)
        )
        doc = report.to_json_dict()
        assert doc["version"] == 1
        assert doc["converged"] is True
        assert doc["solution"]["n"] == inst.n
        assert len(doc["solution"]["blocks_row_major"]) == inst.n

    @pytest.mark.parametrize("max_iter", [1, 5, 1000])
    def test_one_product_per_iterate(self, gram_products, max_iter):
        # k steps visit k + 1 iterates; each product C S gives both the
        # objective there and the next step.
        inst = generate_instance("uniform_cube", 30, 10, 3, 0.5, seed=2)
        gram = build_gram(inst.observed, center_first=False)
        report = solve(gram, GpmConfig(init="random", seed=1, max_iter=max_iter))
        assert report.converged is (max_iter == 1000)
        assert report.converged or report.iterations == max_iter
        assert gram_products[0] == report.iterations + 1


class TestGaugeFix:
    def test_first_block_identity(self, rng):
        s = random_stack(rng, 4, 3)
        fixed = gauge_fix(s)
        assert np.allclose(fixed.blocks[0], np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("p", [4, 7])
    def test_first_block_leads_wide_stacks(self, rng, p):
        fixed = gauge_fix(random_stack(rng, 4, 3, p))
        assert fixed.blocks.shape == (4, 3, p)
        assert np.allclose(fixed.blocks[0], np.eye(3, p), atol=1e-12)

    def test_matches_polar_of_first_block_at_p_equal_d(self, rng):
        s = random_stack(rng, 4, 3)
        assert np.array_equal(gauge_fix(s).blocks, s.blocks @ polar(s.blocks[0]).T)

    def test_gram_preserved(self, rng):
        s = random_stack(rng, 4, 3)
        fixed = gauge_fix(s)
        g1 = s.stacked @ s.stacked.T
        g2 = fixed.stacked @ fixed.stacked.T
        assert np.allclose(g1, g2, atol=1e-10)


class TestRateEstimate:
    def run_with_iterates(self, sigma, seed):
        inst = generate_instance("uniform_cube", 100, 25, 3, sigma, seed=seed)
        gram = build_gram(inst.observed, center_first=False)
        report = solve(
            gram,
            GpmConfig(init="spectral", keep_iterates=True),
            d_for_init=build_data_matrix(inst.observed),
        )
        return report

    def test_noiseless_rate_is_zero(self):
        inst, gram = noiseless_setup()
        report = solve(
            gram,
            GpmConfig(keep_iterates=True),
            s_init=StiefelStack.identity(inst.n, inst.d),
        )
        # Exact fixed point from the start: floor convention.
        assert estimate_rate(report, report.solution) == 0.0

    def test_high_snr_rate_below_one(self):
        report = self.run_with_iterates(0.3, seed=0)
        rate = estimate_rate(report, report.solution)
        assert 0.0 < rate < 1.0

    def test_rate_varies_with_seed_but_stays_contractive(self):
        r1 = estimate_rate(*(lambda rep: (rep, rep.solution))(self.run_with_iterates(0.3, 1)))
        r2 = estimate_rate(*(lambda rep: (rep, rep.solution))(self.run_with_iterates(0.3, 2)))
        assert r1 < 1.0 and r2 < 1.0

    def test_requires_kept_iterates(self):
        inst, gram = noiseless_setup()
        report = solve(
            gram, GpmConfig(init="spectral"), d_for_init=build_data_matrix(inst.observed)
        )
        with pytest.raises(ValueError, match="keep_iterates"):
            estimate_rate(report, report.solution)


class TestDiagnostics:
    def test_random_init_deterministic(self):
        a = random_init(3, 2, np.random.default_rng(9))
        b = random_init(3, 2, np.random.default_rng(9))
        assert np.array_equal(a.blocks, b.blocks)
