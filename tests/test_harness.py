import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from costarb import (
    BudgetSpec,
    ExperimentConfig,
    edmonds,
    generate,
    run_experiment,
    run_expectation_check,
    run_oracle_suite,
)
from costarb import arborescence as arb_mod
from costarb import dual, harness
from costarb import instance as instance_module
from costarb.errors import CostarbError, InfeasibleBudgetError
from costarb.harness import (
    _SUITE_BLOCK,
    OracleSuiteReport,
    _splitmix64,
    derive_trial_seed,
    write_report,
)


def small_config(**overrides):
    base = dict(
        n=6, s=1.0, trials=4, base_seed=42, budget=BudgetSpec("absolute", 5.0)
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestBudgetSpec:
    def test_resolution(self):
        assert BudgetSpec("absolute", 7.5).resolve(100) == 7.5
        assert BudgetSpec("alpha_n", 0.3).resolve(100) == pytest.approx(30.0)
        assert BudgetSpec("power", 0.5).resolve(100) == pytest.approx(10.0)

    def test_unknown_kind(self):
        for kind in ("mystery", "alpha_const"):
            with pytest.raises(ValueError):
                BudgetSpec(kind, 1.0).resolve(10)

    def test_power_overflow_is_an_infinite_budget(self):
        # 3000 ** 1000 overflows a float: the budget is refused as not
        # finite, as alpha_n's 1e308 * n is, not raised as OverflowError
        assert BudgetSpec("power", 1000.0).resolve(3000) == math.inf
        assert BudgetSpec("power", -1000.0).resolve(3000) == 0.0
        for value in (1000.0, -1000.0):
            with pytest.raises(ValueError, match="finite"):
                small_config(budget=BudgetSpec("power", value)).validate()


class TestTrialSeeds:
    def test_distinct_and_replayable(self):
        seeds = [derive_trial_seed(42, t) for t in range(100)]
        assert len(set(seeds)) == 100
        assert seeds == [derive_trial_seed(42, t) for t in range(100)]


class TestRunExperiment:
    def test_deterministic_reports(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert a.to_json() == b.to_json()
        assert a.rows_csv() == b.rows_csv()

    def test_parallelism_does_not_change_output(self):
        serial = run_experiment(small_config(trials=6, parallelism=1))
        parallel = run_experiment(small_config(trials=6, parallelism=3))
        assert serial.to_json() == parallel.to_json()
        assert serial.rows_csv() == parallel.rows_csv()

    def test_pool_never_outnumbers_the_trials(self, monkeypatch):
        # a forked pool starts all its workers on the first submit, so the
        # pool is sized to the trials; the fake pool starts no process
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work, chunksize=1):
                return map(fn, work)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        report = run_experiment(small_config(trials=2, parallelism=5000))
        run_experiment(small_config(trials=5, parallelism=3))
        assert sizes == [2, 3]
        assert report.to_json() == run_experiment(small_config(trials=2)).to_json()

    def test_slack_budget_single_trial_equals_edmonds(self):
        config = small_config(n=5, trials=1, base_seed=0, budget=BudgetSpec("absolute", 100.0))
        report = run_experiment(config)
        inst = generate(5, 1.0, derive_trial_seed(0, 0))
        assert report.rows[0]["w_arb"] == pytest.approx(edmonds(inst).weight)

    def test_rows_feasible_or_tagged(self):
        report = run_experiment(small_config(trials=8))
        assert len(report.rows) == 8
        for row in report.rows:
            assert (row["failure"] is None and row["c_arb"] <= report.c0) or row[
                "failure"
            ]

    def test_aggregates_match_rows(self):
        report = run_experiment(small_config(trials=8))
        ws = [r["w_arb"] for r in report.rows if r["failure"] is None]
        assert report.aggregates["w_arb"]["mean"] == pytest.approx(np.mean(ws))
        assert report.aggregates["w_arb"]["max"] == pytest.approx(np.max(ws))

    def test_infeasible_trials_recorded_not_raised(self):
        config = small_config(n=20, trials=3, budget=BudgetSpec("absolute", 0.2))
        report = run_experiment(config)
        assert report.aggregates["failures"].get("infeasible") == 3
        assert report.aggregates["w_arb"] is None
        assert report.aggregates["feasibility_rate"] == 0.0

    def test_schema_and_files(self, tmp_path):
        report = run_experiment(small_config())
        payload = report.to_dict()
        assert payload["schema"] == 4
        assert "tighten" not in payload["config"]
        assert "parallelism" not in payload["config"]
        jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
        write_report(report, jp, cp)
        loaded = json.loads(jp.read_text())
        assert loaded["c0"] == report.c0
        header = cp.read_text().splitlines()[0]
        assert header.startswith("trial,seed,lower_bound,w_arb,c_arb,lambda_star,mapping_weight")
        assert header.split(",")[5:-1] == list(arb_mod.Trace._fields)
        assert header.endswith(",edmonds_calls,failure")
        assert all(r["edmonds_calls"] == 0 for r in report.rows if r["failure"] is None)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_experiment(small_config(trials=0))
        with pytest.raises(ValueError):
            run_experiment(small_config(budget=BudgetSpec("absolute", -1.0)))
        for field, message in (
            (dict(n=1), "n must be at least 2"),
            (dict(s=1.5), "s must lie in"),
            (dict(parallelism=0), "parallelism must be at least 1"),
        ):
            with pytest.raises(ValueError, match=message):
                run_experiment(small_config(**field))

    @pytest.mark.parametrize("c0", [math.inf, math.nan])
    def test_rejects_a_non_finite_budget(self, c0):
        with pytest.raises(ValueError, match="finite"):
            run_experiment(small_config(budget=BudgetSpec("absolute", c0)))

    def test_no_prediction_when_the_regime_is_ambiguous(self):
        # c0 = 1 at s = 1 is the one constant budget predict leaves open
        config = ExperimentConfig(
            n=50, s=1.0, trials=6, base_seed=7, budget=BudgetSpec("absolute", 1.0)
        )
        report = run_experiment(config)
        assert report.prediction is None
        assert report.aggregates["ratio"] is None
        assert report.aggregates["failures"] == {"infeasible": 4}
        assert report.warnings == []

    def test_prediction_attached_when_regime_known(self):
        config = ExperimentConfig(
            n=400, s=1.0, trials=2, base_seed=1, budget=BudgetSpec("power", 0.5)
        )
        report = run_experiment(config)
        assert report.prediction["regime"] == "CASE1"
        assert report.aggregates["ratio"] == pytest.approx(
            report.aggregates["w_arb"]["mean"] / report.prediction["w_star"]
        )

    def test_case1_warns_when_w_max_used_leaves_its_envelope(self, monkeypatch):
        config = ExperimentConfig(
            n=400, s=1.0, trials=2, base_seed=1, budget=BudgetSpec("power", 0.5)
        )
        assert run_experiment(config).warnings == []
        pipeline = arb_mod.solve_constrained_arborescence

        def heavy_edge(inst, c0):
            result = pipeline(inst, c0)
            return dataclasses.replace(result, trace={**result.trace, "w_max_used": 50.0})

        monkeypatch.setattr(arb_mod, "solve_constrained_arborescence", heavy_edge)
        report = run_experiment(config)
        assert report.prediction["regime"] == "CASE1"
        assert [r["w_max_used"] for r in report.rows] == [50.0, 50.0]
        envelope = 20.0 * math.sqrt(math.log(400) / 400)
        worst = 50.0 - envelope * (1.0 + min(r["lambda_star"] for r in report.rows))
        assert report.warnings == [
            f"w_max_used exceeded 20*(1+lambda*)*sqrt(log n/n) by up to {worst:.4g}"
        ]
        assert report.to_dict()["warnings"] == report.warnings


class TestExpectationCheck:
    def test_lambda_zero_matches_exact_mean(self):
        # E[min of n uniforms] = 1/(n+1) exactly
        n = 1000
        rep = run_expectation_check(n, 0.0, 1.0, repetitions=50_000, seed=3)
        assert abs(rep.empirical_mean - 1.0 / (n + 1)) / (1.0 / (n + 1)) < 0.02
        with pytest.raises(ValueError, match="repetitions must be at least 1, got 0"):
            run_expectation_check(n, 0.0, 1.0, repetitions=0, seed=3)

    def test_mid_regime(self):
        rep = run_expectation_check(2000, 0.05, 1.0, repetitions=20_000, seed=4)
        assert rep.regime == "E3"
        assert rep.rel_deviation < 0.03

    def test_power_law(self):
        rep = run_expectation_check(2000, 1.0, 0.5, repetitions=20_000, seed=5)
        assert rep.regime == "ES"
        assert rep.rel_deviation < 0.05


class TestOracleSuite:
    def test_clean_run_passes(self):
        report = run_oracle_suite(60, range(4, 7), seed=123)
        assert report.passed, report.violations
        assert report.instances == 60
        assert report.checks == 240

    def test_block_600_passes(self):
        report = run_oracle_suite(108, range(4, 7), seed=600)
        assert report.passed, report.violations

    def test_one_dual_solve_per_instance_and_check(self, monkeypatch):
        # checks (b) and (d) read the pipeline's (c) one dual solve
        calls = []
        maximize = dual.maximize_dual
        monkeypatch.setattr(
            dual, "maximize_dual", lambda *args: calls.append(1) or maximize(*args)
        )
        report = run_oracle_suite(108, (4, 5, 6), 601)
        assert len(calls) == 108
        assert report.to_dict() == {
            "instances": 108, "checks": 432, "violations": [], "passed": True
        }

    def test_one_validation_per_instance(self, monkeypatch):
        # check (c) reads validity from the pipeline, which validates its tree
        calls = []
        validate = arb_mod.validate
        monkeypatch.setattr(
            arb_mod, "validate", lambda *args: calls.append(1) or validate(*args)
        )
        report = run_oracle_suite(108, (4, 5, 6), 601)
        assert len(calls) == 108
        assert report.passed, report.violations

    def test_no_exhaustive_optimum_is_built(self, monkeypatch):
        # checks (a) and (b) read only the exhaustive optimum's weight
        calls = []
        for name in ("exact_arborescence_oracle", "exact_mapping_oracle"):
            oracle = getattr(arb_mod, name)
            monkeypatch.setattr(
                arb_mod, name, lambda *args, oracle=oracle: calls.append(1) or oracle(*args)
            )
        report = run_oracle_suite(108, (4, 5, 6), 601)
        assert calls == []
        assert report.passed, report.violations

    def test_rejects_a_negative_count(self):
        with pytest.raises(ValueError, match="count must be nonnegative, got -5"):
            run_oracle_suite(-5, (4, 5, 6), seed=0)
        assert run_oracle_suite(0, (4, 5, 6), seed=0).to_dict() == {
            "instances": 0, "checks": 0, "violations": [], "passed": True
        }

    def test_an_invalid_pipeline_tree_raises(self, monkeypatch):
        # vertices 1 and 2 point at each other: the pipeline's own validation
        # raises AssertionError, which the suite does not record but passes on
        def cyclic(mapping, instance, c0, lambda_star, dec):
            parent = np.zeros(instance.n, dtype=np.int64)
            parent[:3] = -1, 2, 1
            return arb_mod.Arborescence(root=0, parent=parent, weight=0.0, cost=0.0)

        monkeypatch.setattr(arb_mod, "repair", cyclic)
        with pytest.raises(AssertionError, match="invalid arborescence"):
            run_oracle_suite(5, [4], seed=7)

    def test_no_dual_evaluation_for_the_budget_range(self, monkeypatch):
        # the top of each instance's budget range is the cost of its rows'
        # lightest edges, which the instance holds: no lambda=0 pass
        calls = []
        evaluate = dual.phi
        monkeypatch.setattr(dual, "phi", lambda *args: calls.append(1) or evaluate(*args))
        run_oracle_suite(108, (4, 5, 6), 601)
        assert calls == []

    def test_one_cheapest_cost_pass_per_instance(self, monkeypatch):
        # generate finds each row's cheapest weight and cost edge while it
        # draws the instance: one block scan of each small matrix, no later one
        scans = []
        scan = instance_module._row_minima
        monkeypatch.setattr(
            instance_module, "_row_minima", lambda *args: scans.append(1) or scan(*args)
        )
        run_oracle_suite(108, (4, 5, 6), 601)
        assert len(scans) == 2 * 108

    def test_includes_n2_edge_case(self):
        report = run_oracle_suite(10, [2], seed=9)
        assert report.passed, report.violations

    def test_mutation_is_caught_with_seed(self, monkeypatch):
        def too_heavy(inst):
            arb = edmonds(inst)
            return dataclasses.replace(arb, weight=arb.weight + 0.5)

        monkeypatch.setattr(arb_mod, "edmonds", too_heavy)
        report = run_oracle_suite(5, [4], seed=7)
        assert not report.passed
        assert all(v["check"] == "edmonds" for v in report.violations)
        assert all("seed" in v for v in report.violations)

    def test_gap_mutation_is_caught(self, monkeypatch):
        solve_mapping = arb_mod.solve_mapping

        def bound_too_low(*args, **kwargs):
            sol = solve_mapping(*args, **kwargs)
            return dataclasses.replace(sol, lower_bound=sol.lower_bound - 1.0)

        monkeypatch.setattr(arb_mod, "solve_mapping", bound_too_low)
        report = run_oracle_suite(5, [4], seed=7)
        assert not report.passed
        assert {v["check"] for v in report.violations} == {"gap-sandwich"}

    def test_bound_above_the_optimum_is_caught_with_seed(self, monkeypatch):
        # a dual bound 1.0 above its own value lies above the exact
        # constrained-mapping optimum of every instance: check (b) fires
        solve_mapping = arb_mod.solve_mapping

        def bound_too_high(*args, **kwargs):
            sol = solve_mapping(*args, **kwargs)
            return dataclasses.replace(sol, lower_bound=sol.lower_bound + 1.0)

        monkeypatch.setattr(arb_mod, "solve_mapping", bound_too_high)
        report = run_oracle_suite(5, [4], seed=7)
        assert not report.passed
        assert [v["check"] for v in report.violations] == ["weak-duality"] * 5
        assert [v["seed"] for v in report.violations] == [
            derive_trial_seed(7, idx) for idx in range(5)
        ]

    def test_tree_over_budget_is_caught_with_seed(self, monkeypatch):
        # a returned tree that costs 1.0 more than the budget: check (c) fires
        pipeline = arb_mod.solve_constrained_arborescence

        def over_budget(inst, c0):
            result = pipeline(inst, c0)
            arb = dataclasses.replace(result.arborescence, cost=c0 + 1.0)
            return dataclasses.replace(result, arborescence=arb)

        monkeypatch.setattr(arb_mod, "solve_constrained_arborescence", over_budget)
        report = run_oracle_suite(5, [4], seed=7)
        assert not report.passed
        assert [v["check"] for v in report.violations] == ["pipeline"] * 5
        assert [v["seed"] for v in report.violations] == [
            derive_trial_seed(7, idx) for idx in range(5)
        ]

    def test_rejects_big_n(self):
        with pytest.raises(ValueError):
            run_oracle_suite(2, [8], seed=0)


def _reference_oracle_suite(count, n_range, seed):
    """run_oracle_suite as it was before it ran stage by stage: every check
    of one instance before the next instance is drawn."""
    n_values = sorted(n_range)
    if not n_values or n_values[0] < 2 or n_values[-1] > 7:
        raise ValueError(f"n_range must sit within [2, 7], got {n_values}")
    violations = []
    checks = 0

    for idx in range(count):
        n = n_values[idx % len(n_values)]
        inst_seed = derive_trial_seed(seed, idx)
        inst = instance_module.generate(n, 1.0, inst_seed)
        low = dual.min_cost_sum(inst)
        high = float(inst.costs[np.arange(n), inst.cheapest_weights[0]].sum())
        u = 0.3 + 1.2 * ((_splitmix64(idx) >> 11) / 2**53)
        c0 = low + u * max(high - low, 1e-6)
        ctx = {"seed": inst_seed, "n": n, "c0": c0}

        def record(name: str, detail: str) -> None:
            violations.append({**ctx, "check": name, "detail": detail})

        checks += 1
        unconstrained = arb_mod.edmonds(inst)
        oracle_free = arb_mod.exact_arborescence_oracle(inst, math.inf)
        if abs(unconstrained.weight - oracle_free.weight) > 1e-9:
            record("edmonds", f"{unconstrained.weight!r} != oracle {oracle_free.weight!r}")

        checks += 3
        try:
            result = arb_mod.solve_constrained_arborescence(inst, c0)
        except CostarbError as exc:
            for name in ("weak-duality", "pipeline", "gap-sandwich"):
                record(name, f"{type(exc).__name__}: {exc}")
            continue
        tr = result.trace

        exact_map = arb_mod.exact_mapping_oracle(inst, c0)
        if result.lower_bound > exact_map.weight + 1e-9:
            record("weak-duality", f"phi* {result.lower_bound!r} > IP {exact_map.weight!r}")

        if result.arborescence.cost > c0:
            record("pipeline", f"cost {result.arborescence.cost!r} > budget {c0!r}")

        bound = result.lower_bound + tr["w_max_used"] + 1e-9
        if tr["mapping_weight"] > bound:
            record("gap-sandwich", f"weight {tr['mapping_weight']!r} > phi*+w_max {bound!r}")

    return OracleSuiteReport(
        instances=count, checks=checks, violations=violations,
        passed=not violations,
    )


class TestEqualsTheInstanceLoop:
    """run_oracle_suite, which runs a block stage by stage, reports what the
    instance-by-instance loop did, violation by violation."""

    @staticmethod
    def assert_same(args):
        report, reference = run_oracle_suite(*args), _reference_oracle_suite(*args)
        assert report.violations == reference.violations
        assert report.to_dict() == reference.to_dict()
        return report

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_counts_around_the_block(self, offset):
        self.assert_same((_SUITE_BLOCK + offset, (4, 5, 6), 17))

    @pytest.mark.parametrize("n_range,count", [((2,), 40), ((2, 3), 41), ((6, 7), 9)])
    def test_n_ranges(self, n_range, count):
        self.assert_same((count, n_range, 23))

    def test_smaller_blocks(self, monkeypatch):
        monkeypatch.setattr(harness, "_SUITE_BLOCK", 4)
        for count in (0, 3, 4, 5, 11):
            assert self.assert_same((count, range(2, 8), 29)).checks == 4 * count

    @pytest.mark.parametrize("block", [4, _SUITE_BLOCK])
    def test_injected_faults(self, monkeypatch, block):
        # a heavier Edmonds tree for every third instance and an infeasible
        # pipeline for every fifth: both kinds, apart and together
        edmonds_tree, pipeline = arb_mod.edmonds, arb_mod.solve_constrained_arborescence

        def heavier(inst):
            arb = edmonds_tree(inst)
            extra = 1.0 if inst.seed % 3 == 0 else 0.0
            return dataclasses.replace(arb, weight=arb.weight + extra)

        def refuses(inst, c0):
            if inst.seed % 5 == 0:
                raise InfeasibleBudgetError(f"injected at seed {inst.seed}")
            return pipeline(inst, c0)

        monkeypatch.setattr(harness, "_SUITE_BLOCK", block)
        monkeypatch.setattr(arb_mod, "edmonds", heavier)
        monkeypatch.setattr(arb_mod, "solve_constrained_arborescence", refuses)
        report = self.assert_same((30, (4, 5, 6), 31))
        checks = [v["check"] for v in report.violations]
        assert "edmonds" in checks and "pipeline" in checks
        seeds = [v["seed"] for v in report.violations]
        assert any(seed % 15 == 0 for seed in seeds), "no instance has both faults"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Schema 4 renamed three row keys and the aggregate w_map, dropped
# edges_added and added slack_used and the dual's counters.
_SCHEMA_3_NAMES = {"mapping_weight": "w_map", "mapping_cost": "c_map", "cycles_broken": "cycles"}
_SCHEMA_4_ONLY = (
    "slack_used", "dual_full_evaluations", "dual_candidate_evaluations", "dual_candidate_width",
)


def _schema_3_json(report) -> str:
    """A schema-4 report mapped back to the schema-3 layout, as to_json wrote it."""
    payload = report.to_dict()
    rows = []
    for row in payload["rows"]:
        old = {_SCHEMA_3_NAMES.get(k, k): v for k, v in row.items() if k not in _SCHEMA_4_ONLY}
        cycles = row["cycles_broken"]
        old["edges_added"] = None if cycles is None else cycles - 1
        rows.append(old)
    aggregates = {_SCHEMA_3_NAMES.get(k, k): v for k, v in payload["aggregates"].items()}
    payload.update(schema=3, rows=rows, aggregates=aggregates)
    return json.dumps(payload, sort_keys=True, indent=2)


def _assert_slack_is_the_cost_difference(report):
    for row in report.rows:
        if row["failure"] is None:
            assert row["slack_used"] == row["c_arb"] - row["mapping_cost"]


class TestFrozenOutputs:
    """Reports pinned by SHA-256: a refactor that keeps outputs must keep
    these bytes. n=600 starts the dual's bracket search from the paper's
    maximiser; block 720 holds an instance where greedy repair breaches the
    budget and the Lagrangian arborescence fallback runs, so its clean
    report has the bytes of blocks 600 and 601.

    Each experiment report, mapped back to schema 3, keeps the bytes that
    schema 3 pinned."""

    @pytest.mark.parametrize("s,budget,digest,schema_3_digest", [
        (1.0, BudgetSpec("power", 0.5),
         "1ad76550aed61176a0158853d42b607d7f1be42efaaa6bd1739b345a7a276ace",
         "d039da9b52fcad29be0f206a24fd0dd9b1718891a958e92e8c3f2889dd2decae"),
        (1.0, BudgetSpec("alpha_n", 0.3),
         "51ac2c3154c38c3caa0e81f660cf569ecb410e1ef271fbad056c838b33f8ff72",
         "0ae95ca921ea895b8cfbf57964f57fc3e794475d9a8e289d0170d03ac4e12d18"),
        (1.0, BudgetSpec("absolute", 2.0),
         "b9f1972e6cf18dd797362dd758e54bc087275ab672cfd263956307b0398194c3",
         "9e280a6005e1ebec17242c7e4d0e44f52b70b8d2f70743d6fc963aaf1ab1de1d"),
        (0.5, BudgetSpec("power", 0.75),
         "0f664332c555cc289fbdb953bcb0de96e08c367131e158194612f486f95a6c90",
         "36958ab0d93f4b7f4eae7239b0b2bff1e27240646677f9a48db8aa627be27413"),
    ], ids=["CASE1", "CASE2", "CASE3", "THEOREM2"])
    def test_experiment_report(self, s, budget, digest, schema_3_digest):
        config = ExperimentConfig(n=600, s=s, trials=3, base_seed=11, budget=budget)
        report = run_experiment(config)
        assert _digest(report.to_json()) == digest
        assert _digest(_schema_3_json(report)) == schema_3_digest
        _assert_slack_is_the_cost_difference(report)

    def test_fallback_trial_report(self):
        # trial 2 breaches the budget in repair and returns the fallback's
        # tree; the schema-3 digest was taken before the rows took the
        # trace's names
        config = ExperimentConfig(
            n=300, s=1.0, trials=3, base_seed=3, budget=BudgetSpec("absolute", 2.0)
        )
        report = run_experiment(config)
        assert [row["edmonds_calls"] for row in report.rows] == [0, 0, 12]
        assert _digest(report.to_json()) == (
            "5fdcd9c0f8d0f7096bb35d3b668512f93f3b2961c180f683cfb023618383b26c"
        )
        assert _digest(_schema_3_json(report)) == (
            "dc3856357bd4e37e963100fabad15786ff4c8552b93636e4c2cc9de83d7db640"
        )
        _assert_slack_is_the_cost_difference(report)

    @pytest.mark.parametrize("block,digest", [
        (600, "5cb790b1e74cf21e38fc0e3931b4345c806c05cbfce841a55a85f39e2ea6b90e"),
        (601, "5cb790b1e74cf21e38fc0e3931b4345c806c05cbfce841a55a85f39e2ea6b90e"),
        (720, "5cb790b1e74cf21e38fc0e3931b4345c806c05cbfce841a55a85f39e2ea6b90e"),
    ])
    def test_oracle_suite_report(self, block, digest):
        report = run_oracle_suite(108, (4, 5, 6), block)
        assert _digest(json.dumps(report.to_dict(), sort_keys=True)) == digest
