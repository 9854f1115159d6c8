"""Unit tests for the dual certificate and the deterministic noise thresholds."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gopp.bench import generate_instance
from gopp.certificate import Verdict, build_lambda, certify, snr_check
from gopp.gpm import GpmConfig, objective, solve
from gopp.linops import StiefelStack, lambda_kth_smallest
from gopp.model import GramMatrix, build_data_matrix, build_gram

from conftest import dense_gap, random_stack


def sign_enumeration_max(c_data):
    """Exact d=1 optimum of <C, s s^T> over all sign vectors."""
    n = c_data.shape[0]
    best = -np.inf
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        s = np.array(signs)
        best = max(best, float(s @ c_data @ s))
    return best


def dense_certify(gram, s):
    """Reference certify at the default tolerances on the dense nd x nd C.

    Returns the verdict, the symmetrized blocks, the spectrum and the residual.
    """
    n, d = gram.n, gram.d
    raw = (gram.data @ s.stacked).reshape(n, d, s.p) @ s.blocks.transpose(0, 2, 1)
    blocks = 0.5 * (raw + raw.transpose(0, 2, 1))
    gap = dense_gap(blocks, gram.factor)
    eigs = np.linalg.eigvalsh(gap)
    residual = np.linalg.norm(gap @ s.stacked, 2)
    if residual >= 1e-6:
        verdict = Verdict.NOT_STATIONARY
    elif eigs[d] > 0.0 and eigs[0] >= -1e-6:
        verdict = Verdict.CERTIFIED_UNIQUE_GLOBAL
    else:
        verdict = Verdict.STATIONARY_NOT_CERTIFIED
    return verdict, blocks, eigs, residual


class TestBuildLambda:
    def test_noiseless_blocks(self):
        inst = generate_instance("uniform_cube", 6, 8, 2, 0.0, seed=0)
        gram = build_gram(inst.observed, center_first=False)
        z = StiefelStack.identity(6, 2)
        lam = build_lambda(gram, z)
        a = inst.truth.points
        expected = 6 * a @ a.T
        for i in range(6):
            assert np.allclose(lam[i], expected, atol=1e-10)

    def test_single_block_equals_gram(self, rng):
        a = rng.standard_normal((2, 5))
        gram = GramMatrix(factor=a, n=1, d=2)
        s = random_stack(rng, 1, 2)
        lam = build_lambda(gram, s)
        assert np.allclose(lam[0], gram.data @ s.blocks[0] @ s.blocks[0].T, atol=1e-12)

    def test_shape_mismatch(self, rng):
        a = rng.standard_normal((2, 5))
        gram = GramMatrix(factor=a, n=1, d=2)
        with pytest.raises(ValueError, match="does not match"):
            build_lambda(gram, random_stack(rng, 2, 2))

    def test_asymmetry_small_at_solution(self):
        inst = generate_instance("uniform_cube", 10, 12, 2, 0.3, seed=1)
        gram = build_gram(inst.observed, center_first=False)
        report = solve(
            gram,
            GpmConfig(init="spectral", tol=1e-10),
            d_for_init=build_data_matrix(inst.observed),
        )
        lam = build_lambda(gram, report.solution)
        for b in lam:
            assert np.linalg.norm(b - b.T) <= 1e-6 * np.linalg.norm(b)


class TestCertify:
    def test_noiseless_certified_with_closed_form_gap(self):
        inst = generate_instance("uniform_cube", 8, 10, 3, 0.0, seed=2)
        gram = build_gram(inst.observed, center_first=False)
        z = StiefelStack.identity(8, 3)
        cert = certify(gram, z)
        assert cert.verdict is Verdict.CERTIFIED_UNIQUE_GLOBAL
        assert cert.stationarity_residual <= 1e-10 * np.linalg.norm(gram.data, 2)
        sigma_min = np.linalg.svd(inst.truth.points, compute_uv=False)[-1]
        closed_form = 8 * sigma_min**2
        assert abs(cert.lambda_d_plus_1 - closed_form) <= 1e-6 * closed_form

    def test_random_stack_not_stationary(self, rng):
        inst = generate_instance("uniform_cube", 8, 10, 3, 0.0, seed=3)
        gram = build_gram(inst.observed, center_first=False)
        cert = certify(gram, random_stack(rng, 8, 3))
        assert cert.verdict is Verdict.NOT_STATIONARY
        assert not cert.certified

    @pytest.mark.parametrize(
        "tols, name",
        [
            ({"stat_tol": float("nan")}, "stat_tol"),
            ({"stat_tol": 0.0}, "stat_tol"),
            ({"stat_tol": -1e-6}, "stat_tol"),
            ({"psd_tol": float("nan")}, "psd_tol"),
            ({"psd_tol": float("inf")}, "psd_tol"),
            ({"psd_tol": -float("inf")}, "psd_tol"),
        ],
    )
    def test_rejects_tolerances_that_decide_nothing(self, rng, tols, name):
        inst = generate_instance("uniform_cube", 8, 10, 3, 0.0, seed=3)
        gram = build_gram(inst.observed, center_first=False)
        with pytest.raises(ValueError, match=name):
            certify(gram, random_stack(rng, 8, 3), **tols)

    def test_d1_verdicts_match_enumeration(self):
        # Certified solutions must attain the exhaustive sign-vector optimum.
        checked = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 11))
            sigma = float(rng.choice([0.0, 0.1, 0.5, 1.0, 3.0]))
            inst = generate_instance("uniform_cube", n, 6, 1, sigma, seed=seed)
            gram = build_gram(inst.observed, center_first=False)
            report = solve(
                gram,
                GpmConfig(init="spectral", tol=1e-10),
                d_for_init=build_data_matrix(inst.observed),
            )
            cert = certify(gram, report.solution)
            if cert.certified:
                val = objective(gram, report.solution)
                best = sign_enumeration_max(gram.data)
                assert val >= best - 1e-8 * max(1.0, abs(best))
                checked += 1
        assert checked >= 50  # the oracle must actually exercise certified cases

    def test_json_dict(self):
        inst = generate_instance("uniform_cube", 5, 8, 2, 0.0, seed=4)
        gram = build_gram(inst.observed, center_first=False)
        cert = certify(gram, StiefelStack.identity(5, 2))
        doc = cert.to_json_dict()
        assert doc["verdict"] == "certified_unique_global"
        assert len(doc["lambda_blocks"]) == 5


class TestSnrCheck:
    def test_noiseless_satisfies_both(self):
        inst = generate_instance("uniform_cube", 6, 9, 2, 0.0, seed=5)
        check = snr_check(inst)
        assert check.max_block_noise == 0.0
        assert check.satisfied_main and check.satisfied_gpm

    def test_huge_noise_violates_both(self):
        inst = generate_instance("uniform_cube", 6, 9, 2, 50.0, seed=5)
        check = snr_check(inst)
        assert not check.satisfied_main
        assert not check.satisfied_gpm

    def test_thresholds_consistent(self):
        # Record the low-noise verdict; the constants are conservative so the
        # report is evaluated, not presumed.
        inst = generate_instance("uniform_cube", 100, 25, 3, 0.05, seed=6)
        check = snr_check(inst)
        kappa = check.sigma_max_a / check.sigma_min_a
        assert abs(check.kappa - kappa) <= 1e-12
        assert check.threshold_main == pytest.approx(
            check.sigma_min_a / (192.0 * kappa**3)
        )
        assert check.threshold_gpm < check.threshold_main
        assert check.satisfied_main == (check.max_block_noise <= check.threshold_main)

    def test_rank_deficient_truth_rejected(self):
        inst = generate_instance("uniform_cube", 4, 8, 2, 0.0, seed=7)
        degenerate = type(inst)(
            truth=type(inst.truth)(np.vstack([inst.truth.points[0], inst.truth.points[0]])),
            rotations=inst.rotations,
            shifts=inst.shifts,
            sigma=inst.sigma,
            observed=inst.observed,
            seed=inst.seed,
            noise=inst.noise,
            cloud_model=inst.cloud_model,
        )
        with pytest.raises(ValueError, match="rank deficient"):
            snr_check(degenerate)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    d=st.sampled_from([1, 2, 3]),
    wide=st.booleans(),
    extra_m=st.integers(min_value=1, max_value=6),
    sigma=st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0]),
    model=st.sampled_from(["uniform_cube", "standard_normal"]),
    center=st.booleans(),
    solved=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_factored_eigenvalues_match_dense(n, d, wide, extra_m, sigma, model, center, solved, seed):
    # Every eigenvalue of Lambda - C from the factor agrees with the dense
    # spectrum, on random stacks (blocks need not be PD) and on solved ones,
    # and certify's verdict is the dense reference's.
    rng = np.random.default_rng(seed)
    p = d + 2 if wide else d
    inst = generate_instance(model, n, d + extra_m, d, sigma, seed=seed)
    gram = build_gram(inst.observed, center_first=center)
    if solved:
        report = solve(
            gram, GpmConfig(init="spectral"), d_for_init=build_data_matrix(inst.observed)
        )
        padded = np.zeros((n, d, p))
        padded[:, :, :d] = report.solution.blocks
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        s = StiefelStack(padded @ q)  # still a critical point, same Lambda
    else:
        s = random_stack(rng, n, d, p)
    verdict, blocks, eigs, residual = dense_certify(gram, s)
    scale = np.max(np.abs(np.linalg.eigvalsh(blocks))) + gram.spectral_norm()
    for k in range(1, n * d + 1):
        assert abs(lambda_kth_smallest(blocks, gram.factor, k) - eigs[k - 1]) <= 1e-11 * scale
    cert = certify(gram, s)
    # A verdict is decided only up to the accuracy of what it compares.
    undecided = (
        min(abs(eigs[d]), abs(eigs[0] + 1e-6)) <= 1e-11 * scale
        or abs(residual - 1e-6) <= 1e-9 * scale
    )
    if not undecided:
        assert cert.verdict is verdict
