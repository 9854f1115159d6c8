"""Acceptance suite: one test per headline guarantee, with a PASS/FAIL line each.

Every test prints `criterion N PASS/FAIL: <summary>` so the gate's outcome is
visible in the pytest log even when run with -q.
"""
import itertools
import math
import time

import numpy as np
import pytest

from gopp.bench import (
    PhaseGrid,
    crossing_sigma,
    generate_instance,
    phase_diagram,
)
from gopp.bm import BmConfig, retract, riemannian_gradient, solve_bm
from gopp.certificate import certify, snr_check
from gopp.gpm import GpmConfig, estimate_rate, objective, solve
from gopp.linops import StiefelStack, align, df, df_squared_identity, polar
from gopp.model import build_data_matrix, build_gram

from conftest import random_stack, random_tangent


def report(num, ok, summary):
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {summary}")
    assert ok, summary


def test_criterion_1_noiseless_exact_recovery():
    t0 = time.perf_counter()
    inst = generate_instance("uniform_cube", 50, 25, 3, 0.0, seed=0)
    gram = build_gram(inst.observed, center_first=False)
    solved = solve(
        gram, GpmConfig(init="spectral"), d_for_init=build_data_matrix(inst.observed)
    )
    cert = certify(gram, solved.solution)
    z = StiefelStack.identity(50, 3)
    dist = df(solved.solution, z)

    # Independent eigenvalue oracle: the optimality gap matrix is the graph
    # Laplacian (n I - J) tensored with A A^T, so its spectrum enumerates as
    # all pairwise products.
    lap_eigs = np.linalg.eigvalsh(50 * np.eye(50) - np.ones((50, 50)))
    aat_eigs = np.linalg.eigvalsh(inst.truth.points @ inst.truth.points.T)
    enumerated = np.sort(np.multiply.outer(lap_eigs, aat_eigs).ravel())
    oracle = enumerated[3]
    closed_form = 50 * np.linalg.svd(inst.truth.points, compute_uv=False)[-1] ** 2
    elapsed = time.perf_counter() - t0

    ok = (
        solved.converged
        and dist <= 1e-8
        and cert.certified
        and abs(oracle - closed_form) <= 1e-6 * closed_form
        and abs(cert.lambda_d_plus_1 - closed_form) <= 1e-6 * closed_form
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"noiseless recovery d_F={dist:.2e}, lambda_gap rel err "
        f"{abs(cert.lambda_d_plus_1 - closed_form) / closed_form:.2e}, {elapsed:.2f}s",
    )


def run_phase(model):
    grid = PhaseGrid(
        cloud_model=model,
        d=3,
        m_list=(25,),
        n_list=(100,),
        sigma_list=(0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4),
        trials_per_cell=20,
        base_seed=2,
    )
    t0 = time.perf_counter()
    rows = phase_diagram(grid, method="gpm_random")
    return rows, time.perf_counter() - t0


def test_criterion_2_phase_transition_uniform():
    rows, elapsed = run_phase("uniform_cube")
    frac = {r.sigma: r.success_fraction for r in rows}
    cross = crossing_sigma(rows)
    ok = (
        all(frac[s] >= 0.9 for s in (0.2, 0.4))
        and all(frac[s] <= 0.1 for s in (1.4,))
        and cross is not None
        and 0.55 <= cross <= 1.15
        and elapsed <= 600.0
    )
    report(
        2,
        ok,
        f"uniform clouds crossing at sigma={cross}, fractions "
        f"{[frac[s] for s in sorted(frac)]}, {elapsed:.0f}s",
    )


def test_criterion_3_phase_transition_gaussian():
    rows, elapsed = run_phase("standard_normal")
    cross = crossing_sigma(rows)
    ok = cross is not None and 0.45 <= cross <= 1.0 and elapsed <= 600.0
    report(3, ok, f"gaussian clouds crossing at sigma={cross}, {elapsed:.0f}s")


def test_criterion_4_sign_vector_enumeration():
    violations = 0
    certified = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        sigma = float(rng.choice([0.0, 0.05, 0.2, 0.5, 1.0, 2.0]))
        inst = generate_instance("uniform_cube", n, 6, 1, sigma, seed=seed)
        gram = build_gram(inst.observed, center_first=False)
        solved = solve(
            gram,
            GpmConfig(init="spectral", tol=1e-10),
            d_for_init=build_data_matrix(inst.observed),
        )
        cert = certify(gram, solved.solution)
        if not cert.certified:
            continue
        certified += 1
        best = max(
            float(np.array(signs) @ gram.data @ np.array(signs))
            for signs in itertools.product((-1.0, 1.0), repeat=n)
        )
        if objective(gram, solved.solution) < best - 1e-8 * max(1.0, abs(best)):
            violations += 1
    ok = violations == 0 and certified > 0
    report(4, ok, f"{certified} certified cases, {violations} enumeration violations")


def test_criterion_5_polar_perturbation_bounds():
    violations = 0
    for d in (1, 2, 3, 5):
        rng = np.random.default_rng(d)
        for _ in range(1000):
            x = rng.standard_normal((d, d))
            y = rng.standard_normal((d, d))
            denom = (
                np.linalg.svd(x, compute_uv=False)[-1]
                + np.linalg.svd(y, compute_uv=False)[-1]
            )
            if denom == 0.0:
                continue
            diff = polar(x) - polar(y)
            if np.linalg.norm(diff, 2) > 2.0 * np.linalg.norm(x - y, 2) / denom + 1e-10:
                violations += 1
            if np.linalg.norm(diff) > 4.0 * np.linalg.norm(x - y) / denom + 1e-10:
                violations += 1
    report(5, violations == 0, f"{violations} violations over 4000 random pairs")


def test_criterion_6_alignment_metric_identities():
    violations = 0
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        x = random_stack(rng, n, d)
        y = random_stack(rng, n, d)
        w = random_stack(rng, n, d)
        res = align(x, y)
        lhs = np.linalg.norm(y.stacked.T @ x.stacked - n * res.aligner)
        if lhs > 0.5 * res.distance**2 + 1e-8:
            violations += 1
        direct, formula = df_squared_identity(x, y)
        if abs(direct - formula) > 1e-8:
            violations += 1
        if df(x, w) > df(x, y) + df(y, w) + 1e-8:
            violations += 1
    report(6, violations == 0, f"{violations} violations over 1000 stack triples")


def test_criterion_7_gradient_finite_differences():
    failures = 0
    worst = 0.0
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(100):
        n = int(rng.integers(3, 6))
        d = int(rng.integers(1, 4))
        m = d + int(rng.integers(1, 5))
        p = d + int(rng.integers(0, 3))
        inst = generate_instance(
            "uniform_cube", n, m, d, float(rng.uniform(0.0, 0.5)), seed=int(rng.integers(1 << 31))
        )
        gram = build_gram(inst.observed, center_first=False)
        s = random_stack(rng, n, d, p)
        t = random_tangent(rng, s)
        fd = (
            objective(gram, retract(s, t, h)) - objective(gram, retract(s, -t, h))
        ) / (2.0 * h)
        analytic = 2.0 * float(np.sum(riemannian_gradient(gram, s) * t))
        rel = abs(fd - analytic) / max(1.0, abs(analytic))
        worst = max(worst, rel)
        if rel > 1e-4:
            failures += 1
    report(7, failures == 0, f"{failures} failures, worst relative error {worst:.2e}")


def test_criterion_8_overparameterized_ascent_matches_power_method():
    inst = generate_instance("uniform_cube", 100, 25, 3, 0.3, seed=8)
    gram = build_gram(inst.observed, center_first=False)
    gpm = solve(
        gram,
        GpmConfig(init="spectral", tol=1e-10),
        d_for_init=build_data_matrix(inst.observed),
    )
    assert certify(gram, gpm.solution).certified
    g_ref = gpm.solution.stacked @ gpm.solution.stacked.T
    hits = 0
    for seed in range(20):
        bm = solve_bm(gram, BmConfig(p=7, seed=seed))
        sv = np.array(bm.singular_values_of_s)
        if sv[3] > 1e-6:
            continue
        ss = bm.solution.stacked @ bm.solution.stacked.T
        if np.linalg.norm(ss - g_ref) <= 1e-6 * np.linalg.norm(g_ref):
            hits += 1
    report(8, hits >= 18, f"{hits}/20 rank-3 runs matched the certified solution")


def test_criterion_9_linear_convergence():
    inst = generate_instance("uniform_cube", 100, 25, 3, 0.3, seed=9)
    gram = build_gram(inst.observed, center_first=False)
    solved = solve(
        gram,
        GpmConfig(init="spectral", keep_iterates=True, tol=1e-12, max_iter=200),
        d_for_init=build_data_matrix(inst.observed),
    )
    rate = estimate_rate(solved, solved.solution)
    dists = [df(s, solved.solution) for s in solved.iterates]
    positive = [x for x in dists if x > 1e-12]
    decades = math.log10(positive[0] / positive[-1]) if len(positive) >= 2 else 0.0
    ok = 0.0 < rate < 1.0 and decades >= 2.0
    report(9, ok, f"fitted rate {rate:.3f}, {decades:.1f} decades of decrease")


def test_criterion_10_low_noise_always_certifies():
    certified = 0
    for seed in range(50):
        probe = generate_instance("uniform_cube", 10, 8, 2, 1.0, seed=seed)
        check = snr_check(probe)
        max_w = max(np.linalg.norm(probe.noise[i], 2) for i in range(probe.n))
        sigma = 0.5 * check.threshold_main / max_w
        inst = generate_instance("uniform_cube", 10, 8, 2, sigma, seed=seed)
        assert snr_check(inst).satisfied_main
        gram = build_gram(inst.observed, center_first=False)
        solved = solve(
            gram,
            GpmConfig(tol=1e-12),
            s_init=inst.rotations,
        )
        if certify(gram, solved.solution).certified:
            certified += 1
    report(10, certified == 50, f"{certified}/50 below-threshold instances certified")
