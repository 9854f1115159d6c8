"""Symmetries and scales under which the solvers' outputs must not change."""
import json
import math

import numpy as np
import pytest

from gopp.bench import generate_instance
from gopp.bm import BmConfig, solve_bm
from gopp.certificate import certify
from gopp.cli import EXIT_OK, main
from gopp.gpm import GpmConfig, solve
from gopp.linops import StiefelStack, polar_blockwise
from gopp.model import (
    GramMatrix, PointCloudSet, build_data_matrix, build_gram, write_cloud_set, write_stack,
)


def transforms(points, rng):
    """The clouds under each symmetry of the problem, drawn from rng."""
    n, d, m = points.shape
    return {
        "rotate_each_cloud": polar_blockwise(rng.standard_normal((n, d, d))).blocks @ points,
        "permute_clouds": points[rng.permutation(n)],
        "permute_points": points[:, :, rng.permutation(m)],
        "translate_each_cloud": points + rng.standard_normal((n, d, 1)),
    }


def spectral_outcome(points):
    """Iterations, verdict and final objective of the spectral-start power method."""
    gram = build_gram(PointCloudSet.from_array(points))
    report = solve(gram)
    return report.iterations, certify(gram, report.solution).verdict, report.objective_history[-1]


@pytest.mark.parametrize("sigma", [0.4, 0.6, 0.8])
@pytest.mark.parametrize("seed", range(6))
def test_symmetries_keep_verdict_iterations_and_objective(sigma, seed):
    # Centred Gram, spectral start from its factor: a rotation or a
    # translation of a cloud, and a permutation of the clouds or of the
    # points, change every input value but no output beyond rounding.
    points = generate_instance("uniform_cube", 100, 25, 3, sigma, seed=seed).observed.points
    iterations, verdict, value = spectral_outcome(points)
    for name, moved in transforms(points, np.random.default_rng(seed)).items():
        got = spectral_outcome(moved)
        assert got[:2] == (iterations, verdict), name
        assert got[2] == pytest.approx(value, rel=1e-12, abs=0.0), name


# Standard-normal clouds, n = 6, d = 2, m = 5, centred.
CLOUDS = np.random.default_rng(0).standard_normal((6, 2, 5))


def reports(scale: float) -> list:
    """Three ascents and three random-start power methods on CLOUDS * scale."""
    gram = build_gram(PointCloudSet.from_array(CLOUDS * scale))
    return [solve_bm(gram, BmConfig(seed=seed)) for seed in range(3)] + [
        solve(gram, GpmConfig(init="random", seed=seed)) for seed in range(3)
    ]


class TestScale:
    @pytest.mark.parametrize("exponent", [-1000, -300, -30, 30])
    def test_power_of_two_scales_give_the_same_stacks(self, exponent):
        # Clouds * 2^e scale C by 2^2e, exactly: every step is the same, bit
        # for bit, and the objectives and the ascent's gradient norms scale
        # with C where they are representable.
        for i, (unit, scaled) in enumerate(zip(reports(1.0), reports(2.0**exponent))):
            assert scaled.iterations == unit.iterations
            assert scaled.solution.blocks.tobytes() == unit.solution.blocks.tobytes()
            if exponent >= -300:
                back = np.ldexp(scaled.objective_history, -2 * exponent)
                assert back.tolist() == unit.objective_history
                back = np.ldexp(scaled.residual_history, -2 * exponent if i < 3 else 0)
                assert back.tolist() == unit.residual_history

    @pytest.mark.parametrize("scale", [1e-100, 1e-160])
    def test_tiny_clouds_take_the_unit_scale_iterations(self, scale):
        # C S of such clouds underflows; both solvers run on C scaled up by
        # a power of two, so they converge as at unit scale.
        for unit, tiny in zip(reports(1.0), reports(scale)):
            assert tiny.converged and unit.converged
            assert tiny.iterations == unit.iterations

    @pytest.mark.parametrize("scale", [1e77, 1e100, 1e-100, 1e-160])
    def test_gopp_solve_start_takes_the_unit_scale_iterations(self, scale):
        # The start `gopp solve` takes: the spectral start from the uncentred clouds.
        def run(points):
            clouds = PointCloudSet.from_array(points)
            return solve(build_gram(clouds), d_for_init=build_data_matrix(clouds))

        unit, scaled = run(CLOUDS), run(CLOUDS * scale)
        assert unit.converged and scaled.converged
        assert scaled.iterations == unit.iterations == 16


# The report values in the units of C; every other value is scale-free.
C_UNIT_KEYS = {"objective_history", "stationarity_residual", "stationarity_residual_fro",
               "lambda_d_plus_1", "lambda_min", "min_block_eig", "asymmetry", "lambda_blocks"}


def scaled_doc(doc: dict, k: int) -> dict:
    """A JSON report with every value in the units of C multiplied by 2^k."""
    return {key: np.ldexp(value, k).tolist() if key in C_UNIT_KEYS
            else scaled_doc(value, k) if isinstance(value, dict) else value
            for key, value in doc.items()}


# Clouds whose spectral-start power method certifies at unit scale.
CERTIFIED = generate_instance("uniform_cube", 8, 10, 2, 0.2, seed=0).observed.points


def cli_reports(tmp_path, exponent: int) -> tuple[dict, dict]:
    """`gopp solve` on CERTIFIED * 2^exponent, and `gopp certify` of its solution
    with stat_tol 1e-6 in the units of CERTIFIED's C, i.e. scaled by 2^(2 exponent)."""
    clouds, stack, out = (tmp_path / f"{name}{exponent}.txt" for name in ("clouds", "stack", "out"))
    write_cloud_set(clouds, PointCloudSet.from_array(np.ldexp(CERTIFIED, exponent)))
    assert main(["solve", str(clouds), "--out", str(out)]) == EXIT_OK
    solved = json.loads(out.read_text())
    blocks = np.reshape(solved["solution"]["blocks_row_major"], (8, 2, 2))
    write_stack(stack, StiefelStack(blocks))
    tol = repr(math.ldexp(1e-6, 2 * exponent))
    args = ["certify", str(clouds), str(stack), "--stat-tol", tol, "--out", str(out)]
    assert main(args) == EXIT_OK
    return solved, json.loads(out.read_text())


@pytest.mark.parametrize("exponent", [-300, 300])
def test_solve_and_certify_reports_scale_by_exact_powers_of_two(tmp_path, exponent):
    # C' of unit_scaled is the same at every power-of-two scale, and all the
    # work runs on it: the stack, the iterations and the Gram changes are the
    # same, and every value in the units of C is the unit-scale one times 2^2e.
    # The certificate's stat_tol is absolute, so `gopp solve`'s verdict (at
    # 1e-6) may differ; `gopp certify` at 1e-6 * 2^2e gives the same verdict.
    solved, cert = cli_reports(tmp_path, exponent)
    solved_unit, cert_unit = cli_reports(tmp_path, 0)
    assert cert_unit["verdict"] == solved_unit["certificate"]["verdict"]
    assert cert_unit["verdict"] == "certified_unique_global"
    assert solved["iterations"] == solved_unit["iterations"]
    for doc in (solved, solved_unit):
        del doc["certificate"]["verdict"]
    assert solved == scaled_doc(solved_unit, 2 * exponent)
    assert cert == scaled_doc(cert_unit, 2 * exponent)


class TestUnitScaled:
    def test_small_factor_is_scaled_up_exactly(self):
        factor = CLOUDS.reshape(12, 5) * 1e-160
        gram = GramMatrix(factor, 6, 2)
        scaled, k = gram.unit_scaled()
        assert k < 0 and k % 2 == 0
        assert 0.5 <= np.linalg.norm(scaled.factor) < 1.0
        assert np.array_equal(np.ldexp(scaled.factor, k // 2), factor)

    @pytest.mark.parametrize("scale", [0.51, 0.99])
    def test_factor_of_norm_one_half_or_more_is_kept(self, scale):
        # A factor of norm in [1/2, 1) is unit-scaled already.
        factor = CLOUDS.reshape(12, 5)
        gram = GramMatrix(factor / np.linalg.norm(factor) * scale, 6, 2)
        scaled, k = gram.unit_scaled()
        assert scaled is gram and k == 0

    @pytest.mark.parametrize("scale", [1.0, 1e100])
    def test_large_factor_is_scaled_down_exactly(self, scale):
        factor = CLOUDS.reshape(12, 5) * scale
        scaled, k = GramMatrix(factor, 6, 2).unit_scaled()
        assert k > 0 and k % 2 == 0
        assert 0.5 <= np.linalg.norm(scaled.factor) < 1.0
        assert np.array_equal(np.ldexp(scaled.factor, k // 2), factor)

    def test_zero_factor_is_kept(self):
        gram = GramMatrix(np.zeros((12, 5)), 6, 2)
        scaled, k = gram.unit_scaled()
        assert k == 0 and not scaled.factor.any()
