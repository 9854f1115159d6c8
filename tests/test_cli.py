"""End-to-end tests for the command-line interface."""
import json
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gopp.bench
import gopp.cli
import gopp.gpm
from gopp.bench import generate_instance, run_trial
from gopp.cli import EXIT_OK, EXIT_USAGE, main, read_stack, write_stack
from gopp.linops import StiefelStack
from gopp.model import GramMatrix

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


    @pytest.mark.parametrize("stat_tol", ["nan", "0"])
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


    @pytest.mark.parametrize("grad_tol", ["0", "-0.5"])
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


class TestChoices:
    def test_choice_lists_are_the_library_tuples(self):
        commands = gopp.cli.build_parser().commands
        assert commands["solve"].options["init"].choices is gopp.gpm.INIT_MODES
        assert commands["phase"].options["method"].choices is gopp.bench.METHODS
        for name in ("generate", "phase"):
            assert commands[name].options["model"].choices is gopp.bench.CLOUD_MODELS


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


def test_no_dense_gram_outside_test_oracles(cloud_set_file, tmp_path, monkeypatch):
    # The dense nd x nd C exists for test oracles only: every command and a
    # phase trial of each method must run without it.
    def dense(self):
        raise AssertionError("the dense nd x nd Gram matrix was built")

    monkeypatch.setattr(GramMatrix, "data", property(dense))
    stack = tmp_path / "stack.txt"
    write_stack(stack, StiefelStack.identity(6, 2))
    for args in (
        ["solve", str(cloud_set_file)],
        ["certify", str(cloud_set_file), str(stack)],
        ["bm", str(cloud_set_file), "--max-iter", "50"],
    ):
        out = tmp_path / f"{args[0]}.json"
        assert run_cli([*args, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())
    inst = generate_instance("uniform_cube", 8, 10, 2, 0.2, seed=1)
    for method in ("gpm_random", "gpm_spectral", "bm"):
        assert run_trial(inst, method=method).iterations > 0
