"""The benchmark's workloads: set-up, one timed pass, and the checks of a pass.

Every workload is closed-loop and single-process: one unit at a time, the
next only after the previous one returned.  A pass is the smallest piece of
work the harness times; its outputs are checked after its clock stops, from
quantities recomputed here, independently of the code under test.
"""
from __future__ import annotations

import contextlib
import json
import math
import time
from dataclasses import dataclass

import numpy as np

import gopp.bench
import gopp.bm
import gopp.cli
from gopp.bench import PhaseGrid, generate_instance
from gopp.bm import BmConfig
from gopp.gpm import GpmConfig, solve
from gopp.model import PointCloud, PointCloudSet, build_data_matrix, build_gram, write_cloud_set

STAT_TOL = 1e-6  # the certificate's default stationarity tolerance
CERTIFIED = "certified_unique_global"
VERDICTS = (CERTIFIED, "stationary_not_certified", "not_stationary")
# A success-rate check fails only when a one-sided binomial test rejects the
# required rate at this level (see rate_plausible).
RATE_ALPHA = 1e-3


@dataclass
class Unit:
    """One checked unit of work: a `gopp solve` call, a trial or an ascent."""

    seconds: float
    ok: bool
    key: str = ""  # the input it ran on, for the per-input verdict baseline
    verdict: str = ""
    certified: bool = False
    residual: float = math.nan  # stationarity residual, recomputed from the factor D
    df_truth: float = math.nan
    why: str = ""  # the failed check, if any


# ---------------------------------------------------------------------------
# Independent checks.
# ---------------------------------------------------------------------------


def factor_residual(d_mat: np.ndarray, blocks: np.ndarray) -> float:
    """||(Lambda - C) S||_2 with C S = D (D^T S), never forming the nd x nd C."""
    n, d, p = blocks.shape
    s = blocks.reshape(n * d, p)
    cs = d_mat @ (d_mat.T @ s)
    lam = cs.reshape(n, d, p) @ blocks.transpose(0, 2, 1)
    lam = 0.5 * (lam + lam.transpose(0, 2, 1))
    return float(np.linalg.norm((lam @ blocks).reshape(n * d, p) - cs, 2))


def check_residual(unit: Unit, d_mat: np.ndarray, blocks: np.ndarray, reported: float,
                   certified: bool) -> None:
    """Recompute the residual into ``unit``; set ``unit.why`` if the report disagrees."""
    unit.residual = factor_residual(d_mat, blocks)
    if abs(unit.residual - reported) > 1e-9 * max(1.0, reported):
        unit.why = f"residual {reported:.3e} reported, {unit.residual:.3e} recomputed"
    elif certified and not unit.residual < STAT_TOL:
        unit.why = f"certified with residual {unit.residual:.3e} >= {STAT_TOL}"


def df_normalized(blocks: np.ndarray, truth: np.ndarray) -> float:
    """min over orthogonal Q of ||S - Z Q||_F / sqrt(nd), for (n, d, p) stacks."""
    n, d, p = blocks.shape
    s, z = blocks.reshape(n * d, p), truth.reshape(n * d, p)
    u, _, vt = np.linalg.svd(z.T @ s)
    return float(np.linalg.norm(s - z @ (u @ vt)) / math.sqrt(n * d))


def rows_orthonormal(blocks: np.ndarray, tol: float = 1e-8) -> bool:
    gram = blocks @ blocks.transpose(0, 2, 1)
    return bool(np.all(np.isfinite(blocks))) and float(
        np.max(np.abs(gram - np.eye(blocks.shape[1])))
    ) <= tol


def rate_plausible(successes: int, trials: int, rate: float, at_least: bool) -> bool:
    """False when the counts reject "true rate >= rate" (or "<= rate") at RATE_ALPHA."""
    ks = range(successes + 1) if at_least else range(successes, trials + 1)
    tail = sum(math.comb(trials, k) * rate**k * (1 - rate) ** (trials - k) for k in ks)
    return tail >= RATE_ALPHA


def haar_rotations(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, d, d)))
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class SolveN1000:
    """`gopp solve FILE --out REPORT` in-process, CLI defaults, n=1000 clouds.

    The pool is eight base instances (uniform_cube, d=3, m=25, instance seeds
    1..8, sigma 0.3 on odd and 0.6 on even seeds).  The workload seed draws a
    Haar rotation for every cloud of every instance.  The solver is
    rotation-equivariant, so the frame leaves iterations, residuals and
    verdicts unchanged while every input value and the ground truth change;
    with about half of all instances near stat_tol, a seed-drawn pool of
    eight would make certified_fraction unresolvable.  (Shifts are not drawn:
    the spectral start uses the uncentered clouds, so a shift changes the
    trajectory.)  Timed runs go over the pool in whole cycles.
    """

    name = "solve_n1000"
    why = ("near the n=1e4 target; dense O((nd)^3) certify and nd x nd Gram residual dominate, "
           "plus file read and JSON emit; verdicts sit at stat_tol 1e-6")
    n, d, m = 1000, 3, 25
    pool = tuple((k, 0.3 if k % 2 else 0.6) for k in range(1, 9))
    cycle = len(pool)

    def setup(self, seed: int, workdir) -> None:
        rng = np.random.default_rng([seed, 1000])
        self.workdir = workdir
        self.inputs = []
        for k, sigma in self.pool:
            base = generate_instance("uniform_cube", self.n, self.m, self.d, sigma, seed=k)
            rots = haar_rotations(rng, self.n, self.d)
            points = rots @ np.stack([c.points for c in base.observed.clouds])
            path = str(workdir / f"clouds_{k}.txt")
            write_cloud_set(path, PointCloudSet(tuple(PointCloud(p) for p in points)))
            centered = points - points.mean(axis=2, keepdims=True)
            self.inputs.append((path, centered.reshape(self.n * self.d, self.m), rots))
        self._unit(self.inputs[0][0], str(workdir / "warmup.json"))

    @staticmethod
    def _unit(path: str, out: str) -> int:
        return gopp.cli.main(["solve", path, "--out", out])

    def run_pass(self, index: int):
        k = index % self.cycle
        t0 = time.perf_counter()
        code = self._unit(self.inputs[k][0], str(self.workdir / "report.json"))
        return time.perf_counter() - t0, k, code

    def check(self, raw) -> list[Unit]:
        seconds, k, code = raw
        _, d_mat, rots = self.inputs[k]
        unit = Unit(seconds, ok=False, key="seed{}_sigma{}".format(*self.pool[k]))
        if code != 0:
            unit.why = f"exit code {code}"
            return [unit]
        try:
            with open(self.workdir / "report.json") as fh:
                doc = json.load(fh)
            sol = doc["solution"]
            blocks = np.array(sol["blocks_row_major"], dtype=float).reshape(
                sol["n"], sol["d"], sol["p"]
            )
            verdict = doc["certificate"]["verdict"]
            reported = float(doc["certificate"]["stationarity_residual"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            unit.why = f"bad report: {exc!r}"
            return [unit]
        if blocks.shape != (self.n, self.d, self.d) or not rows_orthonormal(blocks):
            unit.why = "solution is not a stack of orthogonal blocks"
        elif verdict not in VERDICTS:
            unit.why = f"unknown verdict {verdict!r}"
        else:
            check_residual(unit, d_mat, blocks, reported, verdict == CERTIFIED)
        if not unit.why:
            unit.ok = True
            unit.verdict = verdict
            unit.certified = verdict == CERTIFIED
            unit.df_truth = df_normalized(blocks, rots)
        return [unit]

    def workload_checks(self, units: list[Unit]) -> dict:
        return {}


class PhaseN100:
    """`bench.phase_diagram` over sigma in {0.4, 0.8, 1.2}, gpm_random, workers=1.

    A pass is one phase_diagram call with ``trials`` trials per cell and a base
    seed drawn from the workload seed and the pass index.  A unit is one
    trial: its time is that of the run_trial call, recorded by a wrapper at
    the name phase_diagram looks up; certify is wrapped the same way so the
    returned stack can be checked.
    """

    name = "phase_n100"
    why = ("many small trials where per-call Python overhead dominates: sign loop, 300x300 "
           "certify, trial bookkeeping; sigmas straddle the transition")
    sigmas = (0.4, 0.8, 1.2)
    trials = 4
    cycle = 1

    def setup(self, seed: int, workdir) -> None:
        self.seed = seed
        self.outcomes = {}  # (sigma, trial seed) -> certified; a traced rerun counts once
        self._pass(-1, trials=1)

    def _grid(self, index: int, trials: int) -> PhaseGrid:
        base = int(np.random.default_rng([self.seed, index + 1]).integers(2**62))
        return PhaseGrid(
            cloud_model="uniform_cube", d=3, m_list=(25,), n_list=(100,),
            sigma_list=self.sigmas, trials_per_cell=trials, base_seed=base,
        )

    def _pass(self, index: int, trials: int):
        records = []
        run_trial, certify = gopp.bench.run_trial, gopp.bench.certify

        def recorded_trial(*args, **kwargs):
            records.append({})
            t0 = time.perf_counter()
            result = run_trial(*args, **kwargs)
            records[-1].update(seconds=time.perf_counter() - t0, result=result)
            return result

        def captured_certify(gram, s, *args, **kwargs):
            cert = certify(gram, s, *args, **kwargs)
            records[-1].update(
                blocks=s.blocks, verdict=cert.verdict.value,
                residual=cert.stationarity_residual,
            )
            return cert

        with contextlib.ExitStack() as stack:
            for attr, fn in (("run_trial", recorded_trial), ("certify", captured_certify)):
                stack.callback(setattr, gopp.bench, attr, getattr(gopp.bench, attr))
                setattr(gopp.bench, attr, fn)
            rows = gopp.bench.phase_diagram(self._grid(index, trials), method="gpm_random", workers=1)
        return records, rows

    def run_pass(self, index: int):
        return self._pass(index, self.trials)

    def check(self, raw) -> list[Unit]:
        records, rows = raw
        units = [self._check_trial(rec) for rec in records]
        for row in rows:
            got = [r["result"] for r in records if r["result"].sigma == row.sigma]
            if row.successes != sum(r.certified for r in got) or row.trials != len(got):
                units.append(Unit(0.0, ok=False, why=f"cell sigma={row.sigma} miscounted"))
            for r in got:
                self.outcomes[(row.sigma, r.seed)] = r.certified
        return units

    def _check_trial(self, rec: dict) -> Unit:
        result = rec["result"]
        unit = Unit(rec["seconds"], ok=False, key=f"sigma{result.sigma}")
        if result.timeout:
            unit.why = "timed out"
        elif "blocks" not in rec:
            unit.why = "numerical error"
        elif rec["verdict"] not in VERDICTS:
            unit.why = f"unknown verdict {rec['verdict']!r}"
        if unit.why:
            return unit
        inst = generate_instance("uniform_cube", result.n, result.m, result.d, result.sigma,
                                 seed=result.seed)
        blocks = rec["blocks"]
        df_truth = df_normalized(blocks, inst.rotations.blocks)
        check_residual(unit, build_data_matrix(inst.observed), blocks, rec["residual"],
                       result.certified)
        if not unit.why and result.certified and rec["verdict"] != CERTIFIED:
            unit.why = f"trial certified with verdict {rec['verdict']}"
        if not unit.why and abs(df_truth * math.sqrt(result.n * result.d) - result.df_to_truth) > 1e-8:
            unit.why = "df_to_truth disagrees with the recomputed distance"
        if not unit.why:
            unit.ok = True
            unit.verdict = rec["verdict"] if result.gpm_converged else "not_converged"
            unit.certified = bool(result.certified)
            unit.df_truth = df_truth
        return unit

    def workload_checks(self, units) -> dict:
        def counts(sigma):
            got = [ok for (s, _), ok in self.outcomes.items() if s == sigma]
            return sum(got), len(got)

        return {
            "success_rate_sigma0.4_at_least_0.9": rate_plausible(*counts(0.4), 0.9, at_least=True),
            "success_rate_sigma1.2_at_most_0.1": rate_plausible(*counts(1.2), 0.1, at_least=False),
        }


class BmP7:
    """`bm.solve_bm(gram, BmConfig(p=7, seed=k))` on the criterion-8 instance.

    The instance is fixed (uniform_cube, n=100, m=25, sigma=0.3, instance seed
    8, uncentered Gram) and so are the random starts: k = 0..29, the twenty
    runs of criterion 8 and ten more.  The workload seed only permutes their
    order.  Ascent time is heavy-tailed: about one start in thirty stalls
    until max_iter (~16 s against ~0.3 s), so a seed-drawn set of starts
    would change the throughput by whether it held a stall.  Which start
    stalls depends on BLAS rounding (k=25 with one thread, k=6 with two);
    this pool holds one either way.  Timed
    runs go over the starts in whole cycles.  A run passes when its stack
    collapses to rank 3 (sigma_4 <= 1e-6) and its Gram matrix matches the
    certified tol=1e-10 power-method solution to 1e-6 relative.
    """

    name = "bm_p7"
    why = ("same C*S and polar layers used as an Armijo-backtracked retraction over ~60 cheap "
           "steps, not a few power steps; certify does no work here")
    p = 7
    starts = tuple(range(30))
    cycle = len(starts)

    def setup(self, seed: int, workdir) -> None:
        self.order = np.random.default_rng([seed, 7]).permutation(self.starts)
        inst = generate_instance("uniform_cube", 100, 25, 3, 0.3, seed=8)
        self.gram = build_gram(inst.observed, center_first=False)
        ref = solve(self.gram, GpmConfig(init="spectral", tol=1e-10),
                    d_for_init=build_data_matrix(inst.observed))
        self.ref_certified = gopp.bench.certify(self.gram, ref.solution).certified
        self.ref_gram = ref.solution.stacked @ ref.solution.stacked.T
        self.truth = np.zeros((inst.n, inst.d, self.p))
        self.truth[:, :, : inst.d] = inst.rotations.blocks
        gopp.bm.solve_bm(self.gram, BmConfig(p=self.p, seed=self.starts[0]))  # warm-up

    def run_pass(self, index: int):
        start = int(self.order[index % self.cycle])
        t0 = time.perf_counter()
        report = gopp.bm.solve_bm(self.gram, BmConfig(p=self.p, seed=start))
        return time.perf_counter() - t0, start, report

    def check(self, raw) -> list[Unit]:
        seconds, start, report = raw
        blocks = report.solution.blocks
        unit = Unit(seconds, ok=rows_orthonormal(blocks), key=f"start{start}")
        if not unit.ok:
            unit.why = "solution rows are not orthonormal"
            return [unit]
        s = report.solution.stacked
        sigma4 = np.linalg.svd(s, compute_uv=False)[3]
        mismatch = np.linalg.norm(s @ s.T - self.ref_gram) / np.linalg.norm(self.ref_gram)
        unit.certified = bool(sigma4 <= 1e-6 and mismatch <= 1e-6)
        unit.verdict = "rank3_gram_match" if unit.certified else "miss"
        unit.df_truth = df_normalized(blocks, self.truth)
        return [unit]

    def workload_checks(self, units) -> dict:
        passed = {u.key: u.certified for u in units}  # a traced rerun counts once
        return {
            "reference_certified": bool(self.ref_certified),
            "pass_rate_at_least_0.9": rate_plausible(
                sum(passed.values()), len(passed), 0.9, at_least=True
            ),
        }


WORKLOADS = {w.name: w for w in (SolveN1000, PhaseN100, BmP7)}
