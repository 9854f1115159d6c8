"""Unit tests for instance generation and the Monte Carlo phase harness."""
import math

import numpy as np
import pytest

from gopp.bench import (
    CLOUD_MODELS,
    PHASE_CSV_HEADER,
    CellSummary,
    PhaseGrid,
    crossing_sigma,
    generate_instance,
    phase_diagram,
    run_trial,
    trial_seed,
    write_phase_csv,
)
from gopp.gpm import GpmConfig, objective, solve
from gopp.model import build_data_matrix, build_gram

from conftest import dense_gram, loop_instance
from test_certificate import sign_enumeration_max


class TestGenerateInstance:
    def test_noiseless_observations_equal_rotated_truth(self):
        inst = generate_instance(
            "uniform_cube", 5, 8, 2, 0.0, seed=0, haar_rotations=True
        )
        for i in range(5):
            expected = inst.rotations.blocks[i] @ inst.truth.points
            assert np.allclose(inst.observed.clouds[i].points, expected, atol=1e-14)

    def test_same_seed_bit_identical(self):
        a = generate_instance("standard_normal", 4, 6, 2, 0.3, seed=42)
        b = generate_instance("standard_normal", 4, 6, 2, 0.3, seed=42)
        assert np.array_equal(a.truth.points, b.truth.points)
        assert np.array_equal(a.noise, b.noise)
        for ca, cb in zip(a.observed.clouds, b.observed.clouds):
            assert np.array_equal(ca.points, cb.points)

    @pytest.mark.parametrize("model", CLOUD_MODELS)
    @pytest.mark.parametrize("with_shifts", [False, True])
    @pytest.mark.parametrize("haar", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_cloud_loop_bitwise(self, model, with_shifts, haar, seed):
        inst = generate_instance(
            model, 30, 7, 3, 0.4, with_shifts=with_shifts, seed=seed, haar_rotations=haar
        )
        a, rots, shifts, noise, observed = loop_instance(
            model, 30, 7, 3, 0.4, with_shifts, seed, haar
        )
        assert np.array_equal(inst.truth.points, a)
        assert np.array_equal(inst.rotations.blocks, rots)
        assert np.array_equal(inst.shifts, shifts)
        assert np.array_equal(inst.noise, noise)
        assert np.array_equal(np.stack([c.points for c in inst.observed.clouds]), observed)
        assert (inst.sigma, inst.seed, inst.cloud_model) == (0.4, seed, model)

    def test_uniform_covariance_is_third_identity(self):
        # Large-sample check of the population covariance I/3.
        inst = generate_instance("uniform_cube", 2, 10_000, 3, 0.0, seed=1)
        a = inst.truth.points
        cov = (a @ a.T) / a.shape[1] - np.outer(a.mean(axis=1), a.mean(axis=1))
        assert np.linalg.norm(cov - np.eye(3) / 3.0, 2) <= 0.05 * (1.0 / 3.0)

    def test_shift_reconstruction(self):
        inst = generate_instance("uniform_cube", 4, 7, 2, 0.2, seed=2, with_shifts=True)
        for i in range(4):
            expected = (
                inst.rotations.blocks[i]
                @ (inst.truth.points - inst.shifts[i][:, None])
                + inst.sigma * inst.noise[i]
            )
            assert np.allclose(inst.observed.clouds[i].points, expected, atol=1e-12)

    def test_noise_scales_linearly_with_sigma(self):
        a = generate_instance("uniform_cube", 3, 6, 2, 0.5, seed=3)
        b = generate_instance("uniform_cube", 3, 6, 2, 1.0, seed=3)
        assert np.array_equal(a.noise, b.noise)
        assert np.allclose(a.noise_blocks() * 2.0, b.noise_blocks(), atol=1e-15)

    def test_invalid_dims(self):
        with pytest.raises(ValueError, match="m >= d\\+1"):
            generate_instance("uniform_cube", 3, 2, 2, 0.0)
        with pytest.raises(ValueError, match="model"):
            generate_instance("exotic", 3, 6, 2, 0.0)


class TestRunTrial:
    def test_noiseless_certified(self):
        inst = generate_instance("uniform_cube", 8, 10, 2, 0.0, seed=4)
        result = run_trial(inst, method="gpm_spectral")
        assert result.certified
        assert result.gpm_converged
        assert result.df_to_truth <= 1e-8

    def test_certified_implies_converged(self):
        inst = generate_instance("uniform_cube", 8, 10, 2, 0.4, seed=5)
        result = run_trial(inst, method="gpm_random")
        assert (not result.certified) or result.gpm_converged

    def test_extreme_noise_rarely_certifies(self):
        sigma = 10.0 * math.sqrt(25.0 / 3.0)
        fails = 0
        for trial in range(20):
            inst = generate_instance("uniform_cube", 20, 25, 3, sigma, seed=trial)
            fails += not run_trial(inst, method="gpm_random").certified
        assert fails >= 19

    def test_d1_certification_matches_enumeration(self):
        for seed in range(20):
            inst = generate_instance("uniform_cube", 5, 6, 1, 0.5, seed=seed)
            gram = build_gram(inst.observed, center_first=False)
            result = run_trial(inst, method="gpm_spectral")
            if result.certified:
                report = solve(
                    gram,
                    GpmConfig(init="spectral", tol=1e-10),
                    d_for_init=build_data_matrix(inst.observed),
                )
                val = objective(gram, report.solution)
                best = sign_enumeration_max(dense_gram(gram))
                assert val >= best - 1e-8 * max(1.0, abs(best))

    def test_bm_method_runs(self):
        inst = generate_instance("uniform_cube", 6, 8, 2, 0.1, seed=6)
        result = run_trial(inst, method="bm")
        assert result.method == "bm"
        assert math.isfinite(result.df_to_truth)

    def test_unknown_method(self):
        inst = generate_instance("uniform_cube", 6, 8, 2, 0.1, seed=6)
        with pytest.raises(ValueError, match="method"):
            run_trial(inst, method="newton")

    @pytest.mark.parametrize("method", ["gpm_random", "gpm_spectral"])
    def test_p_only_for_bm(self, method):
        inst = generate_instance("uniform_cube", 6, 8, 2, 0.1, seed=6)
        with pytest.raises(ValueError, match="only to method 'bm'"):
            run_trial(inst, method=method, p=7)

    @pytest.mark.parametrize("layer", ["solve", "certify"])
    def test_linalg_error_is_a_failed_trial(self, monkeypatch, layer):
        def diverge(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(f"gopp.bench.{layer}", diverge)
        inst = generate_instance("uniform_cube", 6, 8, 2, 0.1, seed=6)
        result = run_trial(inst, method="gpm_random")
        assert not result.certified and not result.gpm_converged
        assert result.iterations == 0
        assert math.isnan(result.df_to_truth)


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(0, 10, 5, 0.3, 7) == trial_seed(0, 10, 5, 0.3, 7)

    def test_distinct_cells_distinct_seeds(self):
        seeds = {
            trial_seed(0, n, m, sigma, t)
            for n in (5, 10)
            for m in (4, 8)
            for sigma in (0.1, 0.2)
            for t in range(5)
        }
        assert len(seeds) == 40

    def test_nonnegative_63_bit(self):
        s = trial_seed(2**62, 1000, 500, 1.4, 19)
        assert 0 <= s < 2**63


class TestPhaseDiagram:
    def small_grid(self, sigmas, trials=4, seed=0):
        return PhaseGrid(
            cloud_model="uniform_cube",
            d=2,
            m_list=(8,),
            n_list=(8,),
            sigma_list=sigmas,
            trials_per_cell=trials,
            base_seed=seed,
        )

    def test_zero_noise_always_succeeds(self):
        rows = phase_diagram(self.small_grid((0.0,)), method="gpm_random")
        assert len(rows) == 1
        assert rows[0].success_fraction == 1.0
        assert rows[0].timeouts == 0

    def test_deterministic(self):
        grid = self.small_grid((0.2, 0.8))
        a = phase_diagram(grid, method="gpm_random")
        b = phase_diagram(grid, method="gpm_random")
        assert [r.csv_row() for r in a] == [r.csv_row() for r in b]

    def test_numpy_sigmas_run_the_same_trials(self):
        sigmas = (0.2, 0.6)
        rows = phase_diagram(self.small_grid(sigmas), method="gpm_random")
        np_rows = phase_diagram(self.small_grid(tuple(np.array(sigmas))), method="gpm_random")
        assert [r.csv_row() for r in np_rows] == [r.csv_row() for r in rows]

    def test_success_roughly_monotone_in_noise(self):
        grid = self.small_grid((0.1, 0.5, 1.0, 2.0, 4.0), trials=8, seed=1)
        rows = phase_diagram(grid, method="gpm_random")
        fractions = [r.success_fraction for r in rows]
        slack = 1.0 / grid.trials_per_cell
        for prev, cur in zip(fractions, fractions[1:]):
            assert cur <= prev + slack

    def test_random_vs_spectral_agree_at_high_snr(self):
        # Below the transition the two inits certify nearly equally often.
        sigmas = (0.2, 0.4)
        grid = PhaseGrid(
            cloud_model="uniform_cube",
            d=3,
            m_list=(25,),
            n_list=(30,),
            sigma_list=sigmas,
            trials_per_cell=10,
            base_seed=0,
        )
        rnd = phase_diagram(grid, method="gpm_random")
        spc = phase_diagram(grid, method="gpm_spectral")
        for a, b in zip(rnd, spc):
            assert abs(a.success_fraction - b.success_fraction) <= 0.15

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            phase_diagram(self.small_grid((0.1,)), method="other")

    def test_rejects_p_without_bm_before_any_trial(self, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("gopp.bench.run_trial", no_trial)
        with pytest.raises(ValueError, match="only to method 'bm'"):
            phase_diagram(self.small_grid((0.1,)), method="gpm_random", p=7)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_nonpositive_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            phase_diagram(self.small_grid((0.1,)), workers=workers)

    def test_parallel_matches_serial(self):
        grid = self.small_grid((0.1, 0.6), trials=3)
        serial = phase_diagram(grid, method="gpm_random", workers=1)
        parallel = phase_diagram(grid, method="gpm_random", workers=2)
        assert [r.csv_row() for r in serial] == [r.csv_row() for r in parallel]


class TestCsv:
    def test_header_exact(self):
        assert (
            PHASE_CSV_HEADER
            == "model,n,m,d,sigma,trials,successes,mean_iters,mean_df_truth,timeouts"
        )

    def test_write_and_layout(self, tmp_path):
        rows = [
            CellSummary(
                model="uniform_cube",
                n=8,
                m=8,
                d=2,
                sigma=0.5,
                trials=4,
                successes=3,
                mean_iters=6.25,
                mean_df_truth=0.125,
                timeouts=0,
            )
        ]
        path = tmp_path / "phase.csv"
        write_phase_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == PHASE_CSV_HEADER
        assert lines[1] == "uniform_cube,8,8,2,0.5,4,3,6.25,0.125,0"

    def test_crossing_interpolation(self):
        def row(sigma, successes):
            return CellSummary("uniform_cube", 8, 8, 2, sigma, 10, successes, 1.0, 0.0, 0)

        rows = [row(0.2, 10), row(0.4, 8), row(0.6, 2), row(0.8, 0)]
        cross = crossing_sigma(rows)
        # Linear interpolation between (0.4, 0.8) and (0.6, 0.2).
        assert cross == pytest.approx(0.5)

    def test_crossing_none_when_not_bracketed(self):
        def row(sigma, successes):
            return CellSummary("uniform_cube", 8, 8, 2, sigma, 10, successes, 1.0, 0.0, 0)

        assert crossing_sigma([row(0.2, 10), row(0.4, 10)]) is None


class TestGridValidation:
    def test_models_enumerated(self):
        assert CLOUD_MODELS == ("uniform_cube", "standard_normal")

    def test_rejects_bad_model(self):
        with pytest.raises(ValueError, match="cloud_model"):
            PhaseGrid(cloud_model="exotic")

    def test_rejects_empty_lists(self):
        with pytest.raises(ValueError, match="non-empty"):
            PhaseGrid(sigma_list=())

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            PhaseGrid(trials_per_cell=0)

    @pytest.mark.parametrize("limit", [0.0, -1.0, float("nan")])
    def test_rejects_time_limit_not_positive(self, limit):
        with pytest.raises(ValueError, match="time_limit_s"):
            PhaseGrid(time_limit_s=limit)

    def test_no_time_limit_allowed(self):
        assert PhaseGrid(time_limit_s=None).time_limit_s is None

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("sigma_list", (0.2, -0.1), "sigma must be finite and nonnegative"),
            ("sigma_list", (0.2, float("nan")), "sigma must be finite and nonnegative"),
            ("sigma_list", (0.2, float("inf")), "sigma must be finite and nonnegative"),
            ("n_list", (30, 1), "need d >= 1, m >= d"),
            ("m_list", (25, 3), "need d >= 1, m >= d"),
            ("d", 0, "need d >= 1, m >= d"),
        ],
    )
    def test_rejects_bad_cell_before_any_trial(self, monkeypatch, field, value, match):
        def no_trial(*args, **kwargs):
            pytest.fail("run_trial was called on a grid with a bad cell")

        monkeypatch.setattr("gopp.bench.run_trial", no_trial)
        with pytest.raises(ValueError, match=match):
            phase_diagram(PhaseGrid(**{"n_list": (30,), "trials_per_cell": 1, field: value}))

