import json

import pytest

from costarb import (
    from_arrays, generate, load, maximize_dual, save, solve_constrained_arborescence,
)
from costarb.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredict:
    def test_case1_json(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--n", "3000", "--c0", "54.77", "--s", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "CASE1"
        assert abs(payload["w_star"] - 21.51) < 0.02

    def test_infeasible_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--n", "1000", "--c0", "0.8", "--s", "1")
        assert code == 1
        assert json.loads(out)["regime"] == "CASE3_INFEASIBLE"

    def test_alpha_flag(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--n", "1000", "--alpha", "0.6")
        assert code == 0
        assert json.loads(out)["regime"] == "CASE2_SLACK"

    def test_ambiguous_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--n", "2000", "--c0", "5", "--s", "0.5")
        assert code == 2
        assert "band" in err


class TestUsageErrors:
    def test_missing_subcommand_flags(self, capsys):
        assert run_cli(capsys, "predict", "--n", "100")[0] == 2

    def test_conflicting_budget_flags(self, capsys):
        code, _, _ = run_cli(
            capsys, "predict", "--n", "100", "--c0", "1", "--alpha", "0.2"
        )
        assert code == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("command", ["solve", "dual", "predict", "experiment"])
    @pytest.mark.parametrize("c0", ["inf", "nan"])
    def test_non_finite_budget(self, capsys, command, c0):
        code, out, err = run_cli(capsys, command, "--n", "30", "--c0", c0)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("command", ["solve", "dual", "predict", "experiment"])
    def test_overflowing_power_budget(self, capsys, command):
        # 30 ** 1000 overflows a float; refused as --alpha 1e308 is
        code, out, err = run_cli(capsys, command, "--n", "30", "--gamma", "1000")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_negative_oracle_count(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--count", "-5")
        assert code == 2
        assert out == ""
        assert "count must be nonnegative" in err

    @pytest.mark.parametrize("command", ["solve", "experiment"])
    @pytest.mark.parametrize("tighten", ["7.5", "-3"])
    def test_tighten_is_a_usage_error(self, capsys, command, tighten):
        # the pipeline spends the whole budget: no command takes a margin
        # (TestDualCommand checks dual)
        code, out, err = run_cli(
            capsys, command, "--n", "10", "--seed", "4", "--c0", "2.0", "--tighten", tighten
        )
        assert code == 2
        assert out == ""
        assert "--tighten" in err

    @pytest.mark.parametrize("command", ["solve", "dual"])
    @pytest.mark.parametrize("source", [(), ("--n", "5", "--in", "x.carb")])
    def test_one_instance_source(self, capsys, command, source):
        # --n draws an instance and --in loads one: exactly one is required
        code, out, err = run_cli(capsys, command, *source, "--c0", "1")
        assert code == 2
        assert out == ""
        assert "--n" in err and "--in" in err

    @pytest.mark.parametrize("command", ["solve", "dual"])
    @pytest.mark.parametrize("flag,value", [("--s", "0.3"), ("--seed", "99")])
    def test_draw_flags_with_a_file(self, tmp_path, capsys, command, flag, value):
        # --s and --seed describe a drawn instance; a loaded one has its own
        path = tmp_path / "x.carb"
        save(generate(5, 1.0, 3), path)
        code, out, err = run_cli(capsys, command, "--in", str(path), flag, value, "--c0", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and flag in err and "--in" in err

    @pytest.mark.parametrize("command", ["solve", "dual"])
    def test_multiplier_overflow(self, tmp_path, capsys, command):
        # weights x1e40 put lambda* past the bracket search's ceiling
        base = generate(6, 1.0, 0)
        path = tmp_path / "heavy.carb"
        save(from_arrays(base.weights * 1e40, base.costs), path)
        code, out, err = run_cli(capsys, command, "--in", str(path), "--c0", "0.8983")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "lambda overflow" in err

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_multiplier(self, capsys, lam):
        code, out, err = run_cli(capsys, "expect", "--n", "100", "--lam", lam, "--reps", "100")
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestSolve:
    def test_slack_budget_solves(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--n", "5", "--seed", "1", "--c0", "100"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["parent"].count(None) == 1
        assert payload["parent"][payload["root"]] is None
        assert payload["trace"]["cycles_broken"] >= 1

    def test_payload_is_the_tree_its_bound_and_the_trace(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--n", "30", "--seed", "2", "--c0", "6.0")
        assert code == 0
        result = solve_constrained_arborescence(generate(30, 1.0, 2), 6.0)
        assert json.loads(out) == {
            **result.arborescence.to_dict(),
            "lower_bound": result.lower_bound,
            "trace": result.trace,
        }
        assert "lower_bound" not in result.trace

    def test_writes_its_out_file(self, tmp_path, capsys):
        path = tmp_path / "tree.json"
        args = ("solve", "--n", "5", "--seed", "1", "--c0", "100")
        code, out, _ = run_cli(capsys, *args, "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text() == run_cli(capsys, *args)[1]
        assert json.loads(path.read_text())["parent"].count(None) == 1

    def test_infeasible_budget_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--n", "20", "--seed", "1", "--c0", "0.1"
        )
        assert code == 1
        assert "infeasible" in err

    def test_no_arborescence_fits_exit_1(self, tmp_path, capsys, two_cycles):
        # the two cycles fit the budget as a mapping; no arborescence does
        path = tmp_path / "two-cycles.carb"
        save(two_cycles, path)
        code, out, err = run_cli(capsys, "solve", "--in", str(path), "--c0", "1.04")
        assert code == 1
        assert out == ""
        assert "infeasible" in err


class TestGenAndFiles:
    def test_gen_binary_and_reload(self, tmp_path, capsys):
        path = tmp_path / "x.carb"
        code, _, _ = run_cli(
            capsys, "gen", "--n", "4", "--seed", "9", "--out", str(path)
        )
        assert code == 0
        inst = load(path)
        assert inst.n == 4 and inst.seed == 9

    def test_gen_csv(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        code, _, _ = run_cli(
            capsys, "gen", "--n", "3", "--seed", "2", "--out", str(path),
            "--format", "csv",
        )
        assert code == 0
        assert path.read_text().startswith("i,j,weight,cost")

    def test_solve_from_file(self, tmp_path, capsys):
        path = tmp_path / "x.carb"
        run_cli(capsys, "gen", "--n", "5", "--seed", "3", "--out", str(path))
        code, out, _ = run_cli(capsys, "solve", "--in", str(path), "--c0", "50")
        assert code == 0
        assert json.loads(out)["root"] is not None


class TestDualCommand:
    @pytest.mark.parametrize("command", ["solve", "dual"])
    def test_drawn_instance_defaults(self, capsys, command):
        # without --s and --seed an instance is drawn at s = 1.0, seed 0
        code, out, _ = run_cli(capsys, command, "--n", "7", "--c0", "2.0")
        assert code == 0
        assert run_cli(
            capsys, command, "--n", "7", "--s", "1.0", "--seed", "0", "--c0", "2.0"
        ) == (0, out, "")

    def test_reports_bracket(self, capsys):
        code, out, _ = run_cli(
            capsys, "dual", "--n", "10", "--seed", "4", "--c0", "2.0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mapping_high"]["cost"] <= payload["mapping_low"]["cost"]

    @pytest.mark.parametrize("n,c0", [(10, "2.0"), (300, "17.0")])
    def test_reports_the_counters(self, capsys, n, c0):
        code, out, _ = run_cli(capsys, "dual", "--n", str(n), "--seed", "4", "--c0", c0)
        assert code == 0
        payload = json.loads(out)
        opt = maximize_dual(generate(n, 1.0, 4), float(c0))
        assert payload["full_evaluations"] == opt.full_evaluations > 0
        assert payload["candidate_evaluations"] == opt.candidate_evaluations
        assert payload["candidate_width"] == opt.candidate_width > 0

    @pytest.mark.parametrize("tighten", ["7.5", "-3"])
    def test_tighten_is_a_usage_error(self, capsys, tighten):
        # the dual has no repair to reserve budget for; the flag was once
        # accepted and ignored
        code, out, err = run_cli(
            capsys, "dual", "--n", "10", "--seed", "4", "--c0", "2.0", "--tighten", tighten
        )
        assert code == 2
        assert out == ""
        assert "--tighten" in err


class TestExpectCommand:
    def test_runs_and_reports(self, capsys):
        code, out, _ = run_cli(
            capsys, "expect", "--n", "500", "--lam", "0.05", "--reps", "2000",
            "--seed", "6",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "E3"
        assert payload["rel_deviation"] < 0.2


class TestExperimentCommand:
    def test_writes_json_and_csv(self, tmp_path, capsys):
        prefix = tmp_path / "exp"
        code, _, _ = run_cli(
            capsys, "experiment", "--n", "6", "--trials", "3", "--seed", "5",
            "--c0", "5.0", "--out", str(prefix),
        )
        assert code == 0
        payload = json.loads((tmp_path / "exp.json").read_text())
        assert payload["schema"] == 4 and len(payload["rows"]) == 3
        assert (tmp_path / "exp.csv").read_text().count("\n") == 4

    def test_json_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "--n", "5", "--trials", "2", "--seed", "5",
            "--c0", "5.0", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 4 and len(payload["rows"]) == 2

    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "--n", "5", "--trials", "2", "--seed", "5",
            "--c0", "5.0", "--format", "csv",
        )
        assert code == 0
        assert out.startswith("trial,seed")


class TestOracleCommand:
    def test_passes_clean(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--count", "9", "--n-min", "4", "--n-max", "5",
            "--seed", "11",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True
