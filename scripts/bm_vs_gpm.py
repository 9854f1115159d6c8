"""Compare Stiefel gradient ascent against the power method on one instance.

Runs both solvers on a high-SNR uniform instance and reports whether the
overparameterized ascent lands on the same rank-d optimizer.
"""
import argparse

import numpy as np

from gopp.bench import generate_instance
from gopp.bm import BmConfig, solve_bm
from gopp.certificate import certify
from gopp.gpm import GpmConfig, solve
from gopp.linops import gram_change
from gopp.model import build_gram


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--m", type=int, default=25)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--sigma", type=float, default=0.3)
    ap.add_argument("--p", type=int, default=BmConfig.p, help="default 2d+1")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    inst = generate_instance(
        "uniform_cube", args.n, args.m, args.d, args.sigma, seed=args.seed
    )
    gram = build_gram(inst.observed, center_first=False)

    gpm = solve(gram, GpmConfig(init="random", seed=args.seed))
    cert = certify(gram, gpm.solution)
    print(f"power method: iters={gpm.iterations} verdict={cert.verdict.value}")

    bm = solve_bm(gram, BmConfig(p=args.p, seed=args.seed))
    sv = np.linalg.svd(bm.solution.stacked, compute_uv=False)
    print(f"stiefel ascent (p={bm.solution.p}): iters={bm.iterations} sigma_d+1={sv[args.d]:.2e}")

    # ||S_bm S_bm^T - S S^T||_F / ||S S^T||_F, with no nd x nd product:
    # S padded with zero columns to p has the same S S^T.
    s = gpm.solution.stacked
    padded = np.hstack([s, np.zeros((s.shape[0], bm.solution.p - s.shape[1]))])
    rel = gram_change(padded, bm.solution.stacked) / np.linalg.norm(s.T @ s)
    print(f"relative Gram mismatch: {rel:.2e}")


if __name__ == "__main__":
    main()
