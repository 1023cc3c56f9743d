"""Experiment runner: instance ensembles, Monte Carlo aggregates, reports.

Trials are independent — each derives its own seed from the base seed and
its index — so they can run across a worker pool; rows are always merged in
trial order, making reports byte-identical at any parallelism level.
Reports go out as JSON (schema version 4) plus a CSV of the per-trial rows,
whose columns are the trial's own and the pipeline's ``Trace`` fields.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import arborescence as arb_mod
from . import asymptotics, dual, instance as inst_mod
from .errors import AmbiguousRegimeError, CostarbError, InfeasibleBudgetError

SCHEMA_VERSION = 4

_ROW_FIELDS = (
    "trial", "seed", "lower_bound", "w_arb", "c_arb", *arb_mod.Trace._fields, "failure",
)


@dataclass(frozen=True)
class BudgetSpec:
    """Budget as an absolute value, a fraction of n, or a power of n."""

    kind: str  # absolute | alpha_n | power
    value: float

    def resolve(self, n: int) -> float:
        if self.kind == "absolute":
            return self.value
        if self.kind == "alpha_n":
            return self.value * n
        if self.kind == "power":
            try:
                return float(n ** self.value)
            except OverflowError:  # too large a budget: refused as not finite
                return math.inf
        raise ValueError(f"unknown budget kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    s: float
    trials: int
    base_seed: int
    budget: BudgetSpec
    parallelism: int = 1

    def validate(self) -> float:
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if not 0.0 < self.s <= 1.0:
            raise ValueError(f"s must lie in (0, 1], got {self.s}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be at least 1, got {self.parallelism}")
        c0 = self.budget.resolve(self.n)
        if not 0 < c0 < math.inf:
            raise ValueError(f"budget must resolve to a positive finite value, got {c0}")
        return c0


def _splitmix64(x: int) -> int:
    mask = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def derive_trial_seed(base_seed: int, trial: int) -> int:
    """Independent replayable per-trial seed: base_seed XOR mix(trial)."""
    return (base_seed ^ _splitmix64(trial + 1)) & ((1 << 64) - 1)


def _run_trial(args: tuple) -> dict:
    trial, n, s, seed, c0 = args
    inst = inst_mod.generate(n, s, seed)
    row = dict.fromkeys(_ROW_FIELDS)
    row["trial"] = trial
    row["seed"] = seed
    try:
        result = arb_mod.solve_constrained_arborescence(inst, c0)
    except InfeasibleBudgetError:
        row["failure"] = "infeasible"
        return row
    row.update(
        result.trace, lower_bound=result.lower_bound,
        w_arb=result.arborescence.weight, c_arb=result.arborescence.cost,
    )
    return row


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    c0: float
    prediction: Optional[dict]
    rows: list
    aggregates: dict
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def rows_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_ROW_FIELDS)
        for row in self.rows:
            writer.writerow(
                ["" if row[k] is None else repr(row[k]) if isinstance(row[k], float) else row[k]
                 for k in _ROW_FIELDS]
            )
        return buf.getvalue()


def _aggregate(values: list) -> Optional[dict]:
    if not values:
        return None
    arr = np.asarray(values)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the configured ensemble and compare aggregates to the prediction.

    Infeasible trials are recorded as tagged rows and never abort the
    ensemble. The report is a pure function of (n, s, trials, base_seed,
    budget): parallelism only changes wall time.
    """
    c0 = config.validate()
    work = [
        (t, config.n, config.s, derive_trial_seed(config.base_seed, t), c0)
        for t in range(config.trials)
    ]
    if config.parallelism > 1 and config.trials > 1:
        # forked workers all start on the first submit: no more than trials
        with ProcessPoolExecutor(max_workers=min(config.parallelism, config.trials)) as pool:
            rows = list(pool.map(_run_trial, work, chunksize=1))
    else:
        rows = [_run_trial(w) for w in work]
    rows.sort(key=lambda r: r["trial"])

    try:
        prediction = asymptotics.predict(config.n, c0, config.s).to_dict()
    except AmbiguousRegimeError:
        prediction = None

    good = [r for r in rows if r["failure"] is None]
    aggregates = {
        "w_arb": _aggregate([r["w_arb"] for r in good]),
        "mapping_weight": _aggregate([r["mapping_weight"] for r in good]),
        "feasibility_rate": sum(
            1 for r in good if r["c_arb"] <= c0
        ) / config.trials,
        "failures": {
            tag: sum(1 for r in rows if r["failure"] == tag)
            for tag in sorted({r["failure"] for r in rows if r["failure"]})
        },
    }
    ratio = None
    if prediction and prediction.get("w_star") and aggregates["w_arb"]:
        ratio = aggregates["w_arb"]["mean"] / prediction["w_star"]
    aggregates["ratio"] = ratio

    warnings = []
    if prediction and prediction["regime"] == "CASE1" and good:
        # report-only envelope on the largest mapping edge weight used
        log_term = math.sqrt(math.log(config.n) / config.n)
        worst = max(
            r["w_max_used"] - 20.0 * (1.0 + r["lambda_star"]) * log_term for r in good
        )
        if worst > 0:
            warnings.append(
                f"w_max_used exceeded 20*(1+lambda*)*sqrt(log n/n) by up to {worst:.4g}"
            )

    # parallelism only changes wall time, so the report leaves it out
    config_dict = asdict(config)
    del config_dict["parallelism"]
    return ExperimentReport(
        config=config_dict, c0=c0, prediction=prediction,
        rows=rows, aggregates=aggregates, warnings=warnings,
    )


def write_report(report: ExperimentReport, json_path=None, csv_path=None) -> None:
    if json_path is not None:
        with open(json_path, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    if csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write(report.rows_csv())


@dataclass(frozen=True)
class ExpectationReport:
    n: int
    lam: float
    s: float
    repetitions: int
    empirical_mean: float
    predicted: float
    regime: str
    rel_deviation: float

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d


def run_expectation_check(
    n: int, lam: float, s: float, repetitions: int, seed: int
) -> ExpectationReport:
    """Monte Carlo mean of min_i (X_i + lam*Y_i) against the closed form."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    predicted = asymptotics.expected_min(n, lam, s)
    # keyed apart from the instance stream of the same seed
    key = np.random.SeedSequence([seed & ((1 << 64) - 1), 1])
    rng = np.random.Generator(np.random.PCG64(key))
    chunk = max(1, min(repetitions, 10_000_000 // n))
    total = 0.0
    done = 0
    while done < repetitions:
        m = min(chunk, repetitions - done)
        x = rng.random((m, n))
        y = rng.random((m, n))
        if s != 1.0:
            np.power(x, s, out=x)
            np.power(y, s, out=y)
        x += lam * y
        total += float(x.min(axis=1).sum())
        done += m
    mean = total / repetitions
    rel = abs(mean - predicted.value) / predicted.value
    return ExpectationReport(
        n=n, lam=lam, s=s, repetitions=repetitions,
        empirical_mean=mean, predicted=predicted.value,
        regime=predicted.regime, rel_deviation=rel,
    )


@dataclass(frozen=True)
class OracleSuiteReport:
    instances: int
    checks: int
    violations: list
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


# Instances per block of the oracle suite. Each stage runs over a whole
# block before the next starts; the block bounds the instances held at once.
_SUITE_BLOCK = 256


def run_oracle_suite(count: int, n_range, seed: int) -> OracleSuiteReport:
    """Cross-validate the solver stack against exhaustive small-n oracles.

    For each seeded instance: (a) Edmonds' tree weighs what the exhaustive
    unconstrained optimum weighs, (b) the dual maximum never exceeds the
    exhaustive constrained-mapping optimum's weight, (c) the full pipeline
    yields an arborescence within budget (it validates the tree itself and
    raises AssertionError on an invalid one), (d) the mapping's weight stays
    below its dual bound plus its heaviest edge. Violations carry the
    replaying seed.

    Indices run in blocks of _SUITE_BLOCK, and inside a block stage by stage:
    draw every instance and its budget, check (a), run the pipeline, then
    check (b) and (d) against the exact mapping optimum. Violations are
    listed by index, and by check within an index, so the report does not
    depend on the block size or the stage order.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    n_values = sorted(n_range)
    if not n_values or n_values[0] < 2 or n_values[-1] > 7:
        raise ValueError(f"n_range must sit within [2, 7], got {n_values}")
    violations = []
    checks = 0
    for start in range(0, count, _SUITE_BLOCK):
        block = range(start, min(start + _SUITE_BLOCK, count))
        violations += _oracle_block(block, n_values, seed)
        checks += 4 * len(block)
    return OracleSuiteReport(
        instances=count, checks=checks, violations=violations,
        passed=not violations,
    )


def _oracle_block(indices: range, n_values: list, seed: int) -> list:
    """The oracle suite's violations over ``indices``, in index order."""
    cases = []
    for idx in indices:
        n = n_values[idx % len(n_values)]
        inst_seed = derive_trial_seed(seed, idx)
        inst = inst_mod.generate(n, 1.0, inst_seed)
        # budget between the cheapest possible mapping and well past the
        # lightest one's cost, varying deterministically per index
        low = dual.min_cost_sum(inst)
        high = float(inst.costs[np.arange(n), inst.cheapest_weights[0]].sum())
        u = 0.3 + 1.2 * ((_splitmix64(idx) >> 11) / 2**53)
        c0 = low + u * max(high - low, 1e-6)
        cases.append((inst, c0, {"seed": inst_seed, "n": n, "c0": c0}))
    # one list per instance, so each instance's violations keep check order
    found = [[] for _ in cases]

    # (a) and (b) read only the exhaustive optimum's weight, which the
    # oracles' own enumeration gives without building the optimum
    for (inst, _, _), out in zip(cases, found):
        unconstrained = arb_mod.edmonds(inst)
        optimum = arb_mod._exact_arborescence_weight(inst)
        if abs(unconstrained.weight - optimum) > 1e-9:
            out.append(("edmonds", f"{unconstrained.weight!r} != oracle {optimum!r}"))

    # The pipeline's one dual solve serves checks (b) and (d) too; an
    # error it raises is recorded by (b), (c) and (d) each.
    results = []
    for (inst, c0, _), out in zip(cases, found):
        try:
            results.append(arb_mod.solve_constrained_arborescence(inst, c0))
        except CostarbError as exc:
            results.append(None)
            for name in ("weak-duality", "pipeline", "gap-sandwich"):
                out.append((name, f"{type(exc).__name__}: {exc}"))

    for (inst, c0, _), result, out in zip(cases, results, found):
        if result is None:
            continue
        tr = result.trace
        optimum = arb_mod._exact_mapping_weight(inst, c0)
        if result.lower_bound > optimum + 1e-9:
            out.append(("weak-duality", f"phi* {result.lower_bound!r} > IP {optimum!r}"))

        # the pipeline validated its tree, and raises AssertionError on an invalid one
        if result.arborescence.cost > c0:
            out.append(("pipeline", f"cost {result.arborescence.cost!r} > budget {c0!r}"))

        bound = result.lower_bound + tr["w_max_used"] + 1e-9
        if tr["mapping_weight"] > bound:
            out.append(("gap-sandwich", f"weight {tr['mapping_weight']!r} > phi*+w_max {bound!r}"))

    return [
        {**ctx, "check": name, "detail": detail}
        for (_, _, ctx), out in zip(cases, found)
        for name, detail in out
    ]
