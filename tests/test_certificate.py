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

from conftest import dense_gap, dense_gram, random_stack


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
    raw = (dense_gram(gram) @ s.stacked).reshape(n, d, s.p) @ s.blocks.transpose(0, 2, 1)
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
        lam = build_lambda(gram @ z.stacked, z)
        a = inst.truth.points
        expected = 6 * a @ a.T
        for i in range(6):
            assert np.allclose(lam[i], expected, atol=1e-10)

    def test_single_block_equals_gram(self, rng):
        a = rng.standard_normal((2, 5))
        gram = GramMatrix(factor=a, n=1, d=2)
        s = random_stack(rng, 1, 2)
        lam = build_lambda(gram @ s.stacked, s)
        assert np.allclose(lam[0], dense_gram(gram) @ s.blocks[0] @ s.blocks[0].T, atol=1e-12)

    def test_shape_mismatch(self, rng):
        a = rng.standard_normal((2, 5))
        gram = GramMatrix(factor=a, n=1, d=2)
        with pytest.raises(ValueError, match="does not match"):
            certify(gram, random_stack(rng, 2, 2))

    def test_asymmetry_small_at_solution(self):
        inst = generate_instance("uniform_cube", 10, 12, 2, 0.3, seed=1)
        gram = build_gram(inst.observed, center_first=False)
        report = solve(
            gram,
            GpmConfig(init="spectral", tol=1e-10),
            d_for_init=build_data_matrix(inst.observed),
        )
        lam = build_lambda(gram @ report.solution.stacked, report.solution)
        for b in lam:
            assert np.linalg.norm(b - b.T) <= 1e-6 * np.linalg.norm(b)


class TestCertify:
    def test_noiseless_certified_with_closed_form_gap(self):
        inst = generate_instance("uniform_cube", 8, 10, 3, 0.0, seed=2)
        gram = build_gram(inst.observed, center_first=False)
        z = StiefelStack.identity(8, 3)
        cert = certify(gram, z)
        assert cert.verdict is Verdict.CERTIFIED_UNIQUE_GLOBAL
        assert cert.stationarity_residual <= 1e-10 * np.linalg.norm(dense_gram(gram), 2)
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
            ({"stat_tol": float("inf")}, "stat_tol"),
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
                best = sign_enumeration_max(dense_gram(gram))
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

    def test_one_product_per_certificate(self, gram_products, rng):
        inst = generate_instance("uniform_cube", 20, 10, 3, 0.3, seed=4)
        gram = build_gram(inst.observed, center_first=False)
        solved = solve(gram, GpmConfig(init="spectral", tol=1e-10),
                       d_for_init=build_data_matrix(inst.observed)).solution
        for s in (solved, random_stack(rng, 20, 3), random_stack(rng, 20, 3, 5)):
            before = gram_products[0]
            cert = certify(gram, s)
            cert.to_json_dict()  # reads every eigenvalue
            assert gram_products[0] - before == 1


def solved_certified():
    inst = generate_instance("uniform_cube", 20, 12, 3, 0.3, seed=8)
    gram = build_gram(inst.observed, center_first=False)
    return gram, solve(gram, GpmConfig(init="random", seed=8, tol=1e-10)).solution


def opposed_stack(n, d):
    """Half the blocks I, half -I.

    A noiseless C has C S = 0 there: a stationary point at which
    Lambda - C = -C is not PSD.
    """
    blocks = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    blocks[n // 2 :] *= -1.0
    return StiefelStack(blocks)


def sign_saddle(d):
    """A stationary, uncertified stack on three equal clouds: its middle block is flipped.

    At d = 1, (+, -, +) on C = 11^T.  At d = 2, C_ij = diag(1, 4) and
    S = (I, diag(1, -1), I), where Lambda_22 = diag(3, -4).
    """
    if d == 1:
        gram = GramMatrix(factor=np.ones((3, 1)), n=3, d=1)
        s = StiefelStack(np.array([1.0, -1.0, 1.0]).reshape(3, 1, 1))
    else:
        gram = GramMatrix(factor=np.tile(np.diag([1.0, 2.0]), (3, 1)), n=3, d=2)
        s = StiefelStack(np.stack([np.eye(2), np.diag([1.0, -1.0]), np.eye(2)]))
    return gram, s


# (lambda_min, min_block_eig) of each sign saddle.
SIGN_SADDLE_EIGS = {"sign_saddle_d1": (-3.0, -1.0), "sign_saddle_d2": (-12.0, -4.0)}


@pytest.fixture
def searches(monkeypatch):
    """The k of every lambda_kth_smallest call that certify's module makes, in order."""
    calls = []

    def counted(mu, e, k):
        calls.append(k)
        return lambda_kth_smallest(mu, e, k)

    monkeypatch.setattr("gopp.certificate.lambda_kth_smallest", counted)
    return calls


class TestLazyEigenvalues:
    def test_not_stationary_reads_no_eigenvalue(self, rng, searches):
        inst = generate_instance("uniform_cube", 8, 10, 3, 0.3, seed=3)
        gram = build_gram(inst.observed, center_first=False)
        cert = certify(gram, random_stack(rng, 8, 3))
        assert cert.verdict is Verdict.NOT_STATIONARY
        assert searches == []
        reads = [("lambda_d_plus_1", [4]), ("lambda_min", [4, 1]), ("min_block_eig", [4, 1])]
        for name, calls in reads:
            assert name not in vars(cert)
            first = getattr(cert, name)
            assert getattr(cert, name) == first and vars(cert)[name] == first
            assert searches == calls

    def test_min_block_eig_first_starts_no_search(self, rng, searches):
        inst = generate_instance("uniform_cube", 8, 10, 3, 0.3, seed=3)
        gram = build_gram(inst.observed, center_first=False)
        cert = certify(gram, random_stack(rng, 8, 3))
        assert "spectrum" not in vars(cert)
        assert cert.min_block_eig == np.min(vars(cert)["spectrum"][0])
        assert searches == []
        cert.lambda_min
        assert searches == [1]

    def test_gap_below_psd_tol_skips_lambda_min(self, searches):
        gram, s = solved_certified()
        cert = certify(gram, s, psd_tol=1e300)
        assert cert.verdict is Verdict.STATIONARY_NOT_CERTIFIED
        assert searches == [4]
        assert "lambda_min" not in vars(cert)

    def test_certified_searches_d_plus_1_then_min(self, searches):
        gram, s = solved_certified()
        cert = certify(gram, s)
        assert cert.verdict is Verdict.CERTIFIED_UNIQUE_GLOBAL
        assert searches == [4, 1]
        cert.to_json_dict()
        assert searches == [4, 1]

    @pytest.mark.parametrize("case", ["solved", "random"])
    def test_blocks_decomposed_once_and_only_when_read(self, rng, monkeypatch, case):
        gram, s = solved_certified()
        if case == "random":
            s = random_stack(rng, gram.n, gram.d)
        decompositions = []  # batched eigh / eigvalsh calls on (n, d, d) stacks
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(a, *args, name=name, original=original, **kwargs):
                if np.ndim(a) == 3:
                    decompositions.append(name)
                return original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        cert = certify(gram, s)
        assert decompositions == ([] if case == "random" else ["eigh"])
        cert.to_json_dict()
        assert decompositions == ["eigh"]

    @pytest.mark.parametrize(
        "case, verdict",
        [
            ("random", Verdict.NOT_STATIONARY),
            ("opposed", Verdict.STATIONARY_NOT_CERTIFIED),
            ("solved", Verdict.CERTIFIED_UNIQUE_GLOBAL),
            ("sign_saddle_d1", Verdict.STATIONARY_NOT_CERTIFIED),
            ("sign_saddle_d2", Verdict.STATIONARY_NOT_CERTIFIED),
        ],
    )
    def test_json_matches_dense_oracle(self, rng, case, verdict):
        if case == "solved":
            gram, s = solved_certified()
        elif case in SIGN_SADDLE_EIGS:
            gram, s = sign_saddle(int(case[-1]))
        else:
            sigma = 0.3 if case == "random" else 0.0
            inst = generate_instance("uniform_cube", 10, 12, 3, sigma, seed=9)
            gram = build_gram(inst.observed, center_first=False)
            s = random_stack(rng, 10, 3) if case == "random" else opposed_stack(10, 3)
        doc = certify(gram, s).to_json_dict()
        want, blocks, eigs, residual = dense_certify(gram, s)
        assert want is verdict and doc["verdict"] == verdict.value
        n, d = gram.n, gram.d
        raw = (dense_gram(gram) @ s.stacked).reshape(n, d, s.p) @ s.blocks.transpose(0, 2, 1)
        block_eigs = np.linalg.eigvalsh(blocks)
        scale = np.max(np.abs(block_eigs)) + gram.spectral_norm()
        gap_s = dense_gap(blocks, gram.factor) @ s.stacked
        assert doc["stationarity_residual"] == pytest.approx(residual, rel=1e-9, abs=1e-12 * scale)
        assert doc["stationarity_residual_fro"] == pytest.approx(
            np.linalg.norm(gap_s), rel=1e-9, abs=1e-12 * scale
        )
        assert abs(doc["lambda_d_plus_1"] - eigs[d]) <= 1e-11 * scale
        assert abs(doc["lambda_min"] - eigs[0]) <= 1e-11 * scale
        assert abs(doc["min_block_eig"] - np.min(block_eigs)) <= 1e-11 * scale
        asym = np.max(np.linalg.norm(raw - raw.transpose(0, 2, 1), axis=(1, 2)))
        assert doc["asymmetry"] == pytest.approx(asym, abs=1e-12 * scale)
        assert np.allclose(doc["lambda_blocks"], blocks.reshape(n, -1), rtol=0, atol=1e-12 * scale)
        if case in SIGN_SADDLE_EIGS:
            assert doc["stationarity_residual"] == 0.0
            want_min, want_block = SIGN_SADDLE_EIGS[case]
            assert doc["lambda_min"] == pytest.approx(want_min, rel=0, abs=1e-12 * scale)
            assert doc["min_block_eig"] == pytest.approx(want_block, rel=0, abs=1e-12 * scale)


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
    cert = certify(gram, s)
    for k in range(1, n * d + 1):
        assert abs(lambda_kth_smallest(*cert.spectrum, k) - eigs[k - 1]) <= 1e-11 * scale
    # A verdict is decided only up to the accuracy of what it compares.
    undecided = (
        min(abs(eigs[d]), abs(eigs[0] + 1e-6)) <= 1e-11 * scale
        or abs(residual - 1e-6) <= 1e-9 * scale
    )
    if not undecided:
        assert cert.verdict is verdict
