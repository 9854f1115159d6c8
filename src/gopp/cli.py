"""Command-line interface.

Subcommands: generate (emit instance files), solve (power method on a
cloud-set file, JSON report), certify (cloud set + stack file, certificate
JSON), bm (Stiefel ascent), phase (grid run, CSV; the interpolated 50%
success crossing of each (n, m) group goes to stderr).

Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 timeout-dominated grid.
"""
from __future__ import annotations

import argparse
import inspect
import itertools
import json
import sys

import numpy as np

from .bench import (
    CLOUD_MODELS,
    METHODS,
    PhaseGrid,
    crossing_sigma,
    generate_instance,
    phase_diagram,
    write_phase_csv,
)
from .bm import BmConfig, solve_bm
from . import certificate
from .certificate import certify
from .gpm import INIT_MODES, GpmConfig, NumericalError, solve
from .model import (
    build_data_matrix,
    build_gram,
    read_cloud_set,
    read_stack,
    write_cloud,
    write_cloud_set,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_TIMEOUT = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        self.options = {}  # dest -> the Action add_argument returned
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest] = action
        return action

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_config_defaults(path) -> dict:
    """key=value lines, '#' comments: {key: (line number, value string)}."""
    defaults = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            defaults[key.strip().replace("-", "_")] = (lineno, value.strip())
    return defaults


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _config_value(action: argparse.Action, value: str):
    """A config-file string checked and converted as the option would be."""
    if isinstance(action.default, bool):
        if value.lower() not in _BOOLEANS:
            raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, got {value!r}")
        return _BOOLEANS[value.lower()]
    if action.type is not None:
        try:
            value = action.type(value)
        except (TypeError, ValueError):
            raise ValueError(f"invalid {action.type.__name__} value: {value!r}") from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ValueError(f"invalid choice: {value!r} (choose from {choices})")
    return value


def _list_of(kind):
    """An argparse type: comma-separated values, each converted by `kind`, as a tuple."""
    def parse(text: str) -> tuple:
        return tuple(kind(v) for v in text.split(","))
    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse names it in errors
    return parse


def _add_common(parser):
    parser.add_argument("--config", help="key=value config file; flags override it")


def build_parser() -> _Parser:
    parser = _Parser(prog="gopp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser

    g = sub.add_parser("generate", parents=[], help="emit a synthetic cloud-set file")
    g.add_argument("--model", choices=CLOUD_MODELS, default="uniform_cube")
    g.add_argument("--n", type=int, default=100)
    g.add_argument("--m", type=int, default=25)
    g.add_argument("--d", type=int, default=3)
    g.add_argument("--sigma", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--with-shifts", action="store_true")
    g.add_argument("--haar-rotations", action="store_true")
    g.add_argument("--out", required=True, help="cloud-set output file")
    g.add_argument("--truth-out", help="optional file for the latent cloud")
    _add_common(g)

    s = sub.add_parser("solve", help="power method on a cloud-set file")
    s.add_argument("input", help="cloud-set file")
    s.add_argument("--init", choices=INIT_MODES, default=GpmConfig.init)
    s.add_argument("--tol", type=float, default=GpmConfig.tol)
    s.add_argument("--max-iter", type=int, default=GpmConfig.max_iter)
    s.add_argument("--seed", type=int, default=GpmConfig.seed)
    s.add_argument("--center", action=argparse.BooleanOptionalAction, default=True)
    s.add_argument("--out", help="JSON report path (default stdout)")
    _add_common(s)

    c = sub.add_parser("certify", help="certificate for a candidate stack")
    c.add_argument("clouds", help="cloud-set file defining C")
    c.add_argument("stack", help="stack file with the candidate S")
    tols = inspect.signature(certificate.certify).parameters  # a traced run wraps cli.certify
    c.add_argument("--stat-tol", type=float, default=tols["stat_tol"].default)
    c.add_argument("--psd-tol", type=float, default=tols["psd_tol"].default)
    c.add_argument("--center", action=argparse.BooleanOptionalAction, default=True)
    c.add_argument("--out", help="JSON output path (default stdout)")
    _add_common(c)

    b = sub.add_parser("bm", help="Stiefel-manifold gradient ascent")
    b.add_argument("input", help="cloud-set file")
    b.add_argument("--p", type=int, default=BmConfig.p, help="columns per block (default 2d+1)")
    b.add_argument("--grad-tol", type=float, default=BmConfig.grad_tol)
    b.add_argument("--max-iter", type=int, default=BmConfig.max_iter)
    b.add_argument("--seed", type=int, default=BmConfig.seed)
    b.add_argument("--center", action=argparse.BooleanOptionalAction, default=True)
    b.add_argument("--out", help="JSON report path (default stdout)")
    _add_common(b)

    ph = sub.add_parser("phase", help="Monte Carlo phase-transition grid")
    ph.add_argument("--model", choices=CLOUD_MODELS, default=PhaseGrid.cloud_model)
    ph.add_argument("--d", type=int, default=PhaseGrid.d)
    ph.add_argument("--m", type=_list_of(int), default=PhaseGrid.m_list,
                    help="comma-separated m values")
    ph.add_argument("--n", type=_list_of(int), default=PhaseGrid.n_list,
                    help="comma-separated n values")
    ph.add_argument("--sigmas", type=_list_of(float), default=PhaseGrid.sigma_list,
                    help="comma-separated noise levels")
    ph.add_argument("--trials", type=int, default=PhaseGrid.trials_per_cell)
    ph.add_argument("--seed", type=int, default=PhaseGrid.base_seed)
    ph.add_argument("--method", choices=METHODS,
                    default=inspect.signature(phase_diagram).parameters["method"].default)
    ph.add_argument("--p", type=int, help="columns per block for method=bm")
    ph.add_argument("--time-limit", type=float, default=PhaseGrid.time_limit_s,
                    help="per-trial cap in seconds")
    ph.add_argument("--workers", type=int, default=1)
    ph.add_argument("--out", required=True, help="CSV output path")
    _add_common(ph)
    return parser


def _emit_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc)  # one line: with indent, json falls back to its slow Python encoder
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_generate(args) -> int:
    instance = generate_instance(
        args.model,
        args.n,
        args.m,
        args.d,
        args.sigma,
        with_shifts=args.with_shifts,
        seed=args.seed,
        haar_rotations=args.haar_rotations,
    )
    write_cloud_set(args.out, instance.observed)
    if args.truth_out:
        write_cloud(args.truth_out, instance.truth)
    return EXIT_OK


def _cmd_solve(args) -> int:
    clouds = read_cloud_set(args.input)
    gram = build_gram(clouds, center_first=args.center)
    config = GpmConfig(tol=args.tol, max_iter=args.max_iter, init=args.init, seed=args.seed)
    d_init = build_data_matrix(clouds) if args.init == "spectral" else None
    report = solve(gram, config, d_for_init=d_init)
    doc = report.to_json_dict()
    doc["certificate"] = certify(gram, report.solution).to_json_dict()
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    clouds = read_cloud_set(args.clouds)
    gram = build_gram(clouds, center_first=args.center)
    stack = read_stack(args.stack)
    cert = certify(gram, stack, stat_tol=args.stat_tol, psd_tol=args.psd_tol)
    _emit_json(cert.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_bm(args) -> int:
    clouds = read_cloud_set(args.input)
    gram = build_gram(clouds, center_first=args.center)
    config = BmConfig(p=args.p, grad_tol=args.grad_tol, max_iter=args.max_iter, seed=args.seed)
    report = solve_bm(gram, config)
    doc = report.to_json_dict()
    doc["certificate"] = certify(gram, report.solution).to_json_dict()
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_phase(args) -> int:
    if args.p is not None and args.method != "bm":
        raise ValueError(f"--p applies only to --method bm, not {args.method}")
    grid = PhaseGrid(
        cloud_model=args.model,
        d=args.d,
        m_list=args.m,
        n_list=args.n,
        sigma_list=args.sigmas,
        trials_per_cell=args.trials,
        base_seed=args.seed,
        time_limit_s=args.time_limit,
    )
    rows = phase_diagram(grid, method=args.method, p=args.p, workers=args.workers)
    write_phase_csv(args.out, rows)
    for (n, m), group in itertools.groupby(rows, key=lambda r: (r.n, r.m)):
        cross = crossing_sigma(list(group))
        shown = "not bracketed" if cross is None else repr(cross)
        print(f"n={n} m={m}: 50% crossing at sigma {shown}", file=sys.stderr)
    total_trials = sum(r.trials for r in rows)
    total_timeouts = sum(r.timeouts for r in rows)
    if total_timeouts > total_trials / 2:
        return EXIT_TIMEOUT
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "bm": _cmd_bm,
    "phase": _cmd_phase,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # A config file supplies defaults; explicit flags override them.
        try:
            defaults = _load_config_defaults(args.config)
        except (OSError, ValueError) as exc:
            print(f"gopp: bad config file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        child = parser.commands[args.command]
        options = {key for command in parser.commands.values() for key in command.options}
        known = {}
        for key, (lineno, value) in defaults.items():
            if key not in options and key != "command":
                print(f"gopp: bad config file: {args.config}: line {lineno}: "
                      f"unknown option {key!r}", file=sys.stderr)
                return EXIT_USAGE
            if key == "command" or not hasattr(args, key):
                continue  # an option of another subcommand: one file serves several
            action = child.options[key]
            try:
                known[key] = _config_value(action, value)
            except ValueError as exc:
                name = action.option_strings[0] if action.option_strings else key
                print(f"gopp: bad config file: {args.config}: line {lineno}: {name}: {exc}",
                      file=sys.stderr)
                return EXIT_USAGE
        child.set_defaults(**known)
        args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"gopp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"gopp: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
