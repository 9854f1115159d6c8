"""End-to-end tests for the command-line interface."""
import dataclasses
import inspect
import json
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gopp.bench
import gopp.bm
import gopp.cli
import gopp.gpm
from gopp.bench import generate_instance, run_trial
from gopp.cli import EXIT_OK, EXIT_USAGE, main
from gopp.linops import StiefelStack
from gopp.model import PointCloudSet, read_stack, write_cloud_set, write_stack

from conftest import random_stack


def run_cli(args):
    try:
        return main(list(args))
    except SystemExit as exc:  # argparse usage failures
        return exc.code


@pytest.fixture
def cloud_set_file(tmp_path):
    path = tmp_path / "set.txt"
    code = run_cli(
        [
            "generate",
            "--model",
            "uniform_cube",
            "--n",
            "6",
            "--m",
            "10",
            "--d",
            "2",
            "--sigma",
            "0.1",
            "--seed",
            "5",
            "--out",
            str(path),
        ]
    )
    assert code == EXIT_OK
    return path


class TestGenerate:
    def test_writes_readable_cloud_set(self, cloud_set_file):
        lines = cloud_set_file.read_text().splitlines()
        assert lines[0] == "6"
        assert lines[1] == "2 10"

    def test_truth_out(self, tmp_path):
        out = tmp_path / "set.txt"
        truth = tmp_path / "truth.txt"
        code = run_cli(
            ["generate", "--n", "4", "--m", "6", "--d", "2", "--out", str(out),
             "--truth-out", str(truth)]
        )
        assert code == EXIT_OK
        assert truth.read_text().splitlines()[0] == "2 6"


class TestSolve:
    def test_report_with_certificate(self, cloud_set_file, tmp_path):
        report_path = tmp_path / "report.json"
        code = run_cli(["solve", str(cloud_set_file), "--out", str(report_path)])
        assert code == EXIT_OK
        doc = json.loads(report_path.read_text())
        assert doc["converged"] is True
        assert doc["certificate"]["verdict"] == "certified_unique_global"
        assert doc["solution"]["n"] == 6

    def test_random_init_flag(self, cloud_set_file, tmp_path):
        report_path = tmp_path / "report.json"
        code = run_cli(
            ["solve", str(cloud_set_file), "--init", "random", "--seed", "3",
             "--out", str(report_path)]
        )
        assert code == EXIT_OK
        assert json.loads(report_path.read_text())["converged"] is True

    def test_report_is_one_line_of_json(self, cloud_set_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert run_cli(["solve", str(cloud_set_file), "--out", str(report_path)]) == EXIT_OK
        text = report_path.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        assert run_cli(["solve", str(cloud_set_file)]) == EXIT_OK
        assert capsys.readouterr().out == text
        doc = json.loads(text)
        assert np.array(doc["solution"]["blocks_row_major"]).shape == (6, 4)
        assert np.array(doc["certificate"]["lambda_blocks"]).shape == (6, 4)

    def test_traced_names_are_looked_up_once(self, cloud_set_file, tmp_path, monkeypatch):
        # The benchmark times these layers by wrapping the gopp.cli attributes.
        calls = {}
        for name in ("read_cloud_set", "build_gram", "solve", "certify"):
            def counted(*args, _name=name, _original=getattr(gopp.cli, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(gopp.cli, name, counted)
        out = tmp_path / "report.json"
        assert run_cli(["solve", str(cloud_set_file), "--out", str(out)]) == EXIT_OK
        assert calls == {"read_cloud_set": 1, "build_gram": 1, "solve": 1, "certify": 1}

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run_cli(["solve", str(tmp_path / "nope.txt")]) == EXIT_USAGE

    def test_lapack_failure_is_numerical(self, cloud_set_file, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, which is the usage error's exception.
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(gopp.cli, "solve", failing)
        assert run_cli(["solve", str(cloud_set_file)]) == gopp.cli.EXIT_NUMERICAL == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e77, 1e100])
    def test_huge_clouds_report_is_finite_json(self, tmp_path, scale):
        points = np.random.default_rng(0).standard_normal((6, 2, 5)) * scale
        path, out = tmp_path / "clouds.txt", tmp_path / "report.json"
        write_cloud_set(path, PointCloudSet.from_array(points))
        assert run_cli(["solve", str(path), "--out", str(out)]) == EXIT_OK

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        json.loads(out.read_text(), parse_constant=reject)

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_tol_not_positive_and_finite_rejected(self, cloud_set_file, tmp_path, capsys, tol):
        out = tmp_path / "report.json"
        code = run_cli(["solve", str(cloud_set_file), "--tol", tol, "--out", str(out)])
        assert code == EXIT_USAGE
        assert "tol must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_input_names_file_and_line(self, cloud_set_file, capsys):
        lines = cloud_set_file.read_text().splitlines(keepends=True)
        cloud_set_file.write_text("".join(lines[:-1]))
        assert run_cli(["solve", str(cloud_set_file)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{cloud_set_file}: line {len(lines)}: expected a cloud row" in err
        assert "Traceback" not in err


class TestCertify:
    def test_identity_stack_on_noisy_data(self, cloud_set_file, tmp_path):
        stack_path = tmp_path / "stack.txt"
        write_stack(stack_path, StiefelStack.identity(6, 2))
        out = tmp_path / "cert.json"
        code = run_cli(
            ["certify", str(cloud_set_file), str(stack_path), "--out", str(out)]
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["verdict"] == "not_stationary"

    def test_solved_stack_certifies(self, cloud_set_file, tmp_path):
        report_path = tmp_path / "report.json"
        run_cli(["solve", str(cloud_set_file), "--out", str(report_path)])
        doc = json.loads(report_path.read_text())
        blocks = np.array(doc["solution"]["blocks_row_major"]).reshape(6, 2, 2)
        stack_path = tmp_path / "stack.txt"
        write_stack(stack_path, StiefelStack(blocks))
        out = tmp_path / "cert.json"
        code = run_cli(
            ["certify", str(cloud_set_file), str(stack_path), "--out", str(out)]
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["verdict"] == "certified_unique_global"


    @pytest.mark.parametrize("stat_tol", ["nan", "0", "inf"])
    def test_stat_tol_not_positive_rejected(self, cloud_set_file, tmp_path, capsys, stat_tol):
        stack_path = tmp_path / "stack.txt"
        write_stack(stack_path, StiefelStack.identity(6, 2))
        out = tmp_path / "cert.json"
        code = run_cli(["certify", str(cloud_set_file), str(stack_path),
                        "--stat-tol", stat_tol, "--out", str(out)])
        assert code == EXIT_USAGE
        assert "stat_tol must be positive" in capsys.readouterr().err
        assert not out.exists()


class TestBm:
    def test_runs_and_reports_singular_values(self, cloud_set_file, tmp_path):
        out = tmp_path / "bm.json"
        code = run_cli(["bm", str(cloud_set_file), "--p", "5", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["p"] == 5
        assert len(doc["singular_values_of_S"]) == 5


    @pytest.mark.parametrize("grad_tol", ["0", "-0.5", "inf", "nan"])
    def test_nonpositive_grad_tol_rejected(self, cloud_set_file, capsys, grad_tol):
        assert run_cli(["bm", str(cloud_set_file), "--grad-tol", grad_tol]) == EXIT_USAGE
        assert "grad_tol must be positive" in capsys.readouterr().err

    def test_report_keys_match_solve(self, cloud_set_file, tmp_path):
        docs = []
        for cmd, extra in (("solve", []), ("bm", ["--p", "5"])):
            out = tmp_path / f"{cmd}.json"
            assert run_cli([cmd, str(cloud_set_file), *extra, "--out", str(out)]) == EXIT_OK
            docs.append(json.loads(out.read_text()))
        assert docs[0].keys() == docs[1].keys()
        assert not {"rate_estimate", "grad_norm_history"} & docs[0].keys()

class TestPhase:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "phase.csv"
        code = run_cli(
            ["phase", "--n", "6", "--m", "8", "--d", "2", "--sigmas", "0.0,2.0",
             "--trials", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "model,n,m,d,sigma,trials,successes,mean_iters,mean_df_truth,timeouts"
        )
        assert len(lines) == 3

    def test_crossing_line_matches_crossing_sigma(self, tmp_path, capsys):
        out = tmp_path / "phase.csv"
        code = run_cli(
            ["phase", "--n", "6", "--m", "8", "--d", "2", "--sigmas", "0.0,2.0",
             "--trials", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        grid = gopp.bench.PhaseGrid(
            d=2, m_list=(8,), n_list=(6,), sigma_list=(0.0, 2.0), trials_per_cell=2
        )
        rows = gopp.bench.phase_diagram(grid)
        cross = gopp.bench.crossing_sigma(rows)
        assert cross is not None
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"n=6 m=8: 50% crossing at sigma {cross!r}\n"
        # The CSV is what the library writes for the same grid: the line goes to stderr only.
        direct = tmp_path / "direct.csv"
        gopp.bench.write_phase_csv(direct, rows)
        assert out.read_bytes() == direct.read_bytes()

    def test_one_crossing_line_per_n_and_m(self, tmp_path, capsys):
        out = tmp_path / "phase.csv"
        code = run_cli(
            ["phase", "--n", "6,8", "--m", "8", "--d", "2", "--sigmas", "0.0",
             "--trials", "1", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "n=6 m=8: 50% crossing at sigma not bracketed",
            "n=8 m=8: 50% crossing at sigma not bracketed",
        ]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_rejected(self, tmp_path, capsys, workers):
        out = tmp_path / "phase.csv"
        code = run_cli(
            ["phase", "--n", "6", "--m", "8", "--d", "2", "--sigmas", "0.0",
             "--trials", "1", "--workers", workers, "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("limit", ["nan", "0", "-1"])
    def test_time_limit_not_positive_rejected_before_any_trial(
        self, tmp_path, capsys, monkeypatch, limit
    ):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(gopp.bench, "run_trial", no_trial)
        out = tmp_path / "phase.csv"
        code = run_cli(
            ["phase", "--n", "6", "--m", "8", "--d", "2", "--sigmas", "0.0",
             "--trials", "1", "--time-limit", limit, "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert "time_limit_s must be None or positive" in capsys.readouterr().err
        assert not out.exists()

    def test_timeout_dominated_grid_exits_3(self, tmp_path):
        out = tmp_path / "phase.csv"
        code = run_cli(
            ["phase", "--n", "10", "--m", "8", "--d", "2", "--sigmas", "0.5",
             "--trials", "3", "--time-limit", "1e-9", "--out", str(out)]
        )
        assert code == gopp.cli.EXIT_TIMEOUT == 3
        header, row = out.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["timeouts"] == "3"

    def test_p_with_a_method_other_than_bm_rejected(self, tmp_path, capsys):
        out = tmp_path / "phase.csv"
        code = run_cli(
            ["phase", "--n", "6", "--m", "8", "--d", "2", "--sigmas", "0.0",
             "--trials", "1", "--method", "gpm_random", "--p", "7", "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert "--p" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_sigma_rejected_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def no_trial(*args, **kwargs):
            pytest.fail("run_trial was called on a grid with a bad sigma")

        monkeypatch.setattr(gopp.bench, "run_trial", no_trial)
        out = tmp_path / "phase.csv"
        code = run_cli(
            ["phase", "--n", "6", "--m", "8", "--d", "2", "--sigmas", "0.2,-0.1",
             "--trials", "1", "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert "sigma must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value", [("--m", "8,"), ("--n", "6,x"), ("--sigmas", "0.1,,0.2")]
    )
    def test_bad_list_names_option(self, tmp_path, capsys, option, value):
        out = tmp_path / "phase.csv"
        code = run_cli(
            ["phase", "--n", "6", "--m", "8", "--d", "2", "--sigmas", "0.0",
             "--trials", "1", option, value, "--out", str(out)]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {option}: " in err and repr(value) in err
        assert not out.exists()

    def test_bad_list_in_config_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "phase.cfg"
        cfg.write_text("n=6\nm=8,\n")
        out = tmp_path / "phase.csv"
        assert run_cli(["phase", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{cfg}: line 2: --m" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_lists_from_config_match_flags(self, tmp_path):
        cfg = tmp_path / "phase.cfg"
        cfg.write_text("n=6\nm=8,9\nsigmas=0.0,0.1\n")
        grid = ["--d", "2", "--trials", "1"]
        paths = [tmp_path / "config.csv", tmp_path / "flag.csv"]
        assert run_cli(["phase", "--config", str(cfg), *grid, "--out", str(paths[0])]) == EXIT_OK
        flags = ["--n", "6", "--m", "8,9", "--sigmas", "0.0,0.1"]
        assert run_cli(["phase", *flags, *grid, "--out", str(paths[1])]) == EXIT_OK
        assert paths[0].read_text() == paths[1].read_text()
        assert len(paths[0].read_text().splitlines()) == 5


class TestChoices:
    def test_choice_lists_are_the_library_tuples(self):
        commands = gopp.cli.build_parser().commands
        assert commands["solve"].options["init"].choices is gopp.gpm.INIT_MODES
        assert commands["phase"].options["method"].choices is gopp.bench.METHODS
        for name in ("generate", "phase"):
            assert commands[name].options["model"].choices is gopp.bench.CLOUD_MODELS


@pytest.mark.parametrize(
    "command, dest, config, field",
    [
        ("solve", "init", gopp.gpm.GpmConfig, "init"),
        ("solve", "tol", gopp.gpm.GpmConfig, "tol"),
        ("solve", "max_iter", gopp.gpm.GpmConfig, "max_iter"),
        ("solve", "seed", gopp.gpm.GpmConfig, "seed"),
        ("bm", "p", gopp.bm.BmConfig, "p"),
        ("bm", "grad_tol", gopp.bm.BmConfig, "grad_tol"),
        ("bm", "max_iter", gopp.bm.BmConfig, "max_iter"),
        ("bm", "seed", gopp.bm.BmConfig, "seed"),
        ("certify", "stat_tol", gopp.cli.certify, "stat_tol"),
        ("certify", "psd_tol", gopp.cli.certify, "psd_tol"),
        ("phase", "model", gopp.bench.PhaseGrid, "cloud_model"),
        ("phase", "d", gopp.bench.PhaseGrid, "d"),
        ("phase", "m", gopp.bench.PhaseGrid, "m_list"),
        ("phase", "n", gopp.bench.PhaseGrid, "n_list"),
        ("phase", "sigmas", gopp.bench.PhaseGrid, "sigma_list"),
        ("phase", "trials", gopp.bench.PhaseGrid, "trials_per_cell"),
        ("phase", "seed", gopp.bench.PhaseGrid, "base_seed"),
        ("phase", "time_limit", gopp.bench.PhaseGrid, "time_limit_s"),
        ("phase", "method", gopp.bench.phase_diagram, "method"),
    ],
)
def test_cli_default_is_the_library_default(command, dest, config, field):
    required = {
        "solve": ["in.txt"],
        "certify": ["clouds.txt", "stack.txt"],
        "bm": ["in.txt"],
        "phase": ["--out", "out.csv"],
    }
    args = gopp.cli.build_parser().parse_args([command, *required[command]])
    if dataclasses.is_dataclass(config):
        defaults = {f.name: f.default for f in dataclasses.fields(config)}
    else:
        defaults = {k: v.default for k, v in inspect.signature(config).parameters.items()}
    assert getattr(args, dest) == defaults[field]


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run_cli(["fly"]) == EXIT_USAGE

    def test_unknown_flag(self, cloud_set_file):
        assert run_cli(["solve", str(cloud_set_file), "--warp", "9"]) == EXIT_USAGE

    def test_missing_required_out(self):
        assert run_cli(["generate"]) == EXIT_USAGE


class TestConfigFile:
    def test_config_supplies_defaults(self, cloud_set_file, tmp_path):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("init=random\nseed=11\n")
        out = tmp_path / "report.json"
        code = run_cli(
            ["solve", str(cloud_set_file), "--config", str(cfg), "--out", str(out)]
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["converged"] is True

    def test_flags_override_config(self, cloud_set_file, tmp_path):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("max-iter=1\ntol=1e-15\n")
        out = tmp_path / "report.json"
        code = run_cli(
            ["solve", str(cloud_set_file), "--config", str(cfg), "--max-iter", "500",
             "--tol", "1e-6", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["converged"] is True

    def test_boolean_from_config_matches_flag(self, cloud_set_file, tmp_path):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("center=false\n")
        docs = {}
        for name, extra in (("config", ["--config", str(cfg)]), ("flag", ["--no-center"]),
                            ("default", [])):
            out = tmp_path / f"{name}.json"
            assert run_cli(["solve", str(cloud_set_file), *extra, "--out", str(out)]) == EXIT_OK
            docs[name] = json.loads(out.read_text())
        assert docs["config"] == docs["flag"]
        assert docs["config"] != docs["default"]

    def test_bad_config_value_names_option(self, cloud_set_file, tmp_path, capsys):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("max_iter=abc\n")
        assert run_cli(["solve", str(cloud_set_file), "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--max-iter" in err
        assert "Traceback" not in err

    def test_bad_config_boolean_names_file_line_and_key(self, cloud_set_file, tmp_path, capsys):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("# typo below\ncenter=ture\n")
        out = tmp_path / "report.json"
        code = run_cli(["solve", str(cloud_set_file), "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{cfg}: line 2: --center" in err
        assert "Traceback" not in err

    def test_config_value_outside_choices_names_option_and_file(
        self, cloud_set_file, tmp_path, capsys
    ):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("seed=3\ninit=warm\n")
        assert run_cli(["solve", str(cloud_set_file), "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{cfg}: line 2: --init" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, key", [("max_itr=1\n", "max_itr"),
                                           ("seed=3\ncentre=false\n", "centre")])
    def test_unknown_config_key_names_file_and_line(
        self, cloud_set_file, tmp_path, capsys, text, key
    ):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text(text)
        out = tmp_path / "report.json"
        code = run_cli(["solve", str(cloud_set_file), "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()
        lineno = len(text.splitlines())
        assert capsys.readouterr().err == (
            f"gopp: bad config file: {cfg}: line {lineno}: unknown option {key!r}\n"
        )

    def test_config_key_of_another_subcommand_is_ignored(self, cloud_set_file, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("command=phase\ngrad-tol=1e-3\ntrials=2\n")
        paths = [tmp_path / "config.json", tmp_path / "plain.json"]
        extra = (["--config", str(cfg)], [])
        for path, args in zip(paths, extra):
            assert run_cli(["solve", str(cloud_set_file), *args, "--out", str(path)]) == EXIT_OK
        assert paths[0].read_text() == paths[1].read_text()

    def test_bad_config_line(self, cloud_set_file, tmp_path):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("this is not key value\n")
        assert run_cli(["solve", str(cloud_set_file), "--config", str(cfg)]) == EXIT_USAGE


class TestStackFile:
    def test_round_trip_exact(self, rng, tmp_path):
        s = random_stack(rng, 3, 2, 4)
        path = tmp_path / "stack.txt"
        write_stack(path, s)
        back = read_stack(path)
        assert np.array_equal(back.blocks, s.blocks)
        assert (back.n, back.d, back.p) == (3, 2, 4)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4),
        d=st.integers(min_value=1, max_value=3),
        p_extra=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_every_strict_prefix_and_extra_record_rejected(self, n, d, p_extra, seed):
        s = random_stack(np.random.default_rng(seed), n, d, d + p_extra)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/stack.txt"
            write_stack(path, s)
            with open(path) as fh:
                lines = fh.readlines()
            for k in range(len(lines)):
                with open(path, "w") as fh:
                    fh.writelines(lines[:k])
                with pytest.raises(ValueError, match=rf"{re.escape(path)}: line \d+: "):
                    read_stack(path)
            with open(path, "w") as fh:
                fh.writelines(lines + lines[-1:])  # one row past the declared n*d
            with pytest.raises(ValueError, match=f"line {len(lines) + 1}: unexpected data"):
                read_stack(path)


def test_no_dense_gram_outside_test_oracles(tmp_path):
    # The dense nd x nd C exists for test oracles only: every command and a
    # phase trial of each method must run in a quarter of its memory.
    n, d, m = 400, 3, 10
    clouds, stack = tmp_path / "set.txt", tmp_path / "stack.txt"
    args = ["--n", str(n), "--d", str(d), "--m", str(m), "--sigma", "0.2", "--seed", "1"]
    assert run_cli(["generate", *args, "--out", str(clouds)]) == EXIT_OK
    write_stack(stack, StiefelStack.identity(n, d))
    inst = generate_instance("uniform_cube", n, m, d, 0.2, seed=1)
    tracemalloc.start()
    try:
        for args in (
            ["solve", str(clouds)],
            ["certify", str(clouds), str(stack)],
            ["bm", str(clouds), "--max-iter", "50"],
        ):
            out = tmp_path / f"{args[0]}.json"
            assert run_cli([*args, "--out", str(out)]) == EXIT_OK
            assert json.loads(out.read_text())
        for method in ("gpm_random", "gpm_spectral", "bm"):
            assert run_trial(inst, method=method).iterations > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n * d) ** 2 * 8 / 4
