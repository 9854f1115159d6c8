"""Phase-transition sweep at desk scale for either cloud model.

Runs the random-init power method over a noise sweep and writes the
success-fraction table as CSV. The 50% crossing sits near 0.3*sqrt(m/d) for
uniform-cube clouds and moves down to roughly 0.25*sqrt(m/d) for
standard-normal clouds.
"""
import argparse

from gopp.bench import CLOUD_MODELS, PhaseGrid, crossing_sigma, phase_diagram, write_phase_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", choices=CLOUD_MODELS, default="uniform_cube")
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--m", type=int, default=25)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", help="CSV output path (default phase_<model>.csv)")
    args = ap.parse_args()
    out = args.out or f"phase_{args.model}.csv"

    grid = PhaseGrid(
        cloud_model=args.model,
        d=args.d,
        m_list=(args.m,),
        n_list=(args.n,),
        sigma_list=tuple(round(0.2 * k, 10) for k in range(1, 8)),
        trials_per_cell=args.trials,
        base_seed=args.seed,
    )
    rows = phase_diagram(grid, method="gpm_random", workers=args.workers)
    write_phase_csv(out, rows)
    for row in rows:
        print(f"sigma={row.sigma:.2f}  success={row.successes}/{row.trials}")
    cross = crossing_sigma(rows)
    print(f"50% crossing: {cross if cross is not None else 'not bracketed'}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
