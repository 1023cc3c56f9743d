#!/usr/bin/env python3
"""Closed-loop benchmark of whole costarb trials, one client, one op at a time.

    python3 bench/run.py --workload case1-n3000 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics (op_s, peak_rss_mb, setup_s); with
``--trace 1`` it holds the per-layer metrics of a run whose public costarb
functions are wrapped by ``layertrace``. Every operation's output is checked
by ``checks``; per-run details and spans go to ``bench/results/``. See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layertrace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# The first one or two trials of a process run generation up to twice as
# slowly as later ones, so two operations run before timing starts.
WARMUP_OPS = 2
SETUP_PROBES = 9
TRIAL_N = 3000
# Oracle blocks are fixed inputs, not drawn from --seed: the repair fault
# hits a small share of random instances, so seed-drawn blocks would make
# the failed share differ between runs. Block seed 600 holds the known failing
# instance (suite index 106, n = 5); 108 = 36 instances of each n in 4..6.
ORACLE_BLOCK = 108
ORACLE_SEEDS = (600, 601, 602, 603, 604)

WORKLOADS = ("case1-n3000", "slack-n3000", "oracle-n4to6")

PER_LAYER = {
    "instance.generate_s": ("self_s", "instance.generate"),
    "dual.maximize_dual_s": ("self_s", "dual.maximize_dual"),
    "dual.maximize_dual_calls": ("calls", "dual.maximize_dual"),
    "dual.min_cost_sum_s": ("self_s", "dual.min_cost_sum"),
    "dual.min_cost_sum_calls": ("calls", "dual.min_cost_sum"),
    "dual.solve_mapping_s": ("self_s", "dual.solve_mapping"),
    "arborescence.solve_self_s": ("self_s", "arborescence.solve_constrained_arborescence"),
    "arborescence.decompose_s": ("self_s", "arborescence.decompose"),
    "arborescence.decompose_calls": ("calls", "arborescence.decompose"),
    "arborescence.repair_s": ("self_s", "arborescence.repair"),
    "arborescence.validate_s": ("self_s", "arborescence.validate"),
    "arborescence.cycles_broken": ("count", "arborescence.cycles_broken"),
    "arborescence.edmonds_s": ("self_s", "arborescence.edmonds"),
    "arborescence.exact_arborescence_oracle_s": ("self_s", "arborescence.exact_arborescence_oracle"),
    "arborescence.exact_mapping_oracle_s": ("self_s", "arborescence.exact_mapping_oracle"),
    "harness.oracle_suite_self_s": ("self_s", "harness.run_oracle_suite"),
    "asymptotics.predict_calls": ("calls", "asymptotics.predict"),
}

# A child interpreter that starts, imports the package and reports the
# monotonic clock, which is shared by all processes of the machine.
_SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import costarb\n"
    "print(repr(time.perf_counter()))\n"
)


def import_program():
    """Import costarb from this checkout's src/, never from elsewhere."""
    if not (SRC / "costarb" / "__init__.py").is_file():
        sys.exit(f"bench: no costarb package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import costarb

    if Path(costarb.__file__).resolve().parent != (SRC / "costarb").resolve():
        sys.exit(f"bench: imported costarb from {costarb.__file__}, not from {SRC}")
    from costarb import arborescence, errors, harness, instance

    return arborescence, errors, harness, instance


class TrialWorkload:
    """One op: generate(n=3000, s=1, seed_i), then the full pipeline at c0.

    ``target`` is the paper's closed form for the mean arborescence weight,
    written out here rather than taken from the program's asymptotics."""

    round_size = 1

    def __init__(self, program, seed: int, c0: float, target: float, band: tuple):
        self.arborescence, self.errors, _, self.instance = program
        self.rng = random.Random(seed)
        self.c0, self.target, self.band = c0, target, band
        self.ratios: list = []

    def next_input(self, k: int) -> int:
        return self.rng.getrandbits(63)

    def run(self, inst_seed: int):
        inst = self.instance.generate(TRIAL_N, 1.0, inst_seed)
        try:
            return inst, self.arborescence.solve_constrained_arborescence(inst, self.c0)
        except self.errors.CostarbError as exc:
            return inst, exc

    def check(self, inst_seed: int, output) -> tuple:
        """(failure details, problems) for one op's output."""
        inst, res = output
        if isinstance(res, Exception):
            return [f"seed {inst_seed}: {type(res).__name__}: {res}"], []
        arb, trace = res.arborescence, res.trace
        W, C = inst.weights, inst.costs
        problems = checks.arborescence_problems(
            arb.parent, arb.root, arb.weight, arb.cost, W, C, self.c0
        ) + checks.bound_problems(
            res.lower_bound, trace["mapping_weight"], W, C, trace["lambda_star"], self.c0
        )
        self.ratios.append(arb.weight / self.target)
        return [], [f"seed {inst_seed}: {p}" for p in problems]

    def finish(self) -> list:
        if not self.ratios:
            return []
        return checks.band_problems(statistics.fmean(self.ratios), *self.band)


class OracleWorkload:
    """One op: run_oracle_suite over one fixed block of n = 4, 5, 6 instances.

    An op fails when its suite reports a violation; every violation must be
    the known repair fault, confirmed by an exhaustive search that finds an
    in-budget arborescence for the instance the pipeline gave up on."""

    round_size = len(ORACLE_SEEDS)

    def __init__(self, program):
        self.arborescence, _, self.harness, self.instance = program

    def next_input(self, k: int) -> int:
        return ORACLE_SEEDS[k % len(ORACLE_SEEDS)]

    def run(self, block_seed: int):
        return self.harness.run_oracle_suite(ORACLE_BLOCK, (4, 5, 6), block_seed)

    def check(self, block_seed: int, report) -> tuple:
        problems = []
        if report.instances != ORACLE_BLOCK or report.checks != 4 * ORACLE_BLOCK:
            problems.append(f"block {block_seed}: ran {report.instances} instances, "
                            f"{report.checks} checks")
        if report.passed == bool(report.violations):
            problems.append(f"block {block_seed}: passed={report.passed} with "
                            f"{len(report.violations)} violations")
        for v in report.violations:
            if not self._known_repair_fault(v):
                problems.append(f"block {block_seed}: unexpected violation {v}")
        return report.violations, problems

    def _known_repair_fault(self, v: dict) -> bool:
        if v["check"] != "pipeline" or not v["detail"].startswith("RepairBudgetExceededError"):
            return False
        inst = self.instance.generate(v["n"], 1.0, v["seed"])
        return self.arborescence.exact_arborescence_oracle(inst, v["c0"]).cost <= v["c0"]

    def finish(self) -> list:
        return []


def make_workload(name: str, seed: int, program):
    if name == "case1-n3000":
        c0 = math.sqrt(TRIAL_N)
        return TrialWorkload(program, seed, c0, math.pi * TRIAL_N / (8 * c0), (0.90, 1.10))
    if name == "slack-n3000":
        return TrialWorkload(program, seed, 0.6 * TRIAL_N, 1.0, (0.90, 1.15))
    return OracleWorkload(program)


def measure_setup() -> float:
    """Time from spawning an interpreter to the package being ready."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1]) - start


def run_one(args) -> dict:
    program = import_program()
    arborescence, _, _, instance = program
    problems = []
    for case, ok in checks.self_test(instance, arborescence):
        print(f"bench: self-test: {case}: {'ok' if ok else 'FAILED'}")
        if not ok:
            problems.append(f"self-test failed: {case}")

    wl = make_workload(args.workload, args.seed, program)
    tracer = layertrace.LayerTracer().install() if args.trace else None

    failed_ops = []

    def run_checked(k: int, op):
        x = wl.next_input(k)
        if tracer:
            tracer.op = op
        start = time.perf_counter()
        out = wl.run(x)
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.op = None
        failure, found = wl.check(x, out)
        problems.extend(found)
        if failure:
            failed_ops.append({"op": op, "input": x, "detail": failure})
        return elapsed

    for k in range(WARMUP_OPS):
        run_checked(k, None)
    failed_ops.clear()  # warm-up operations are checked but not counted

    # Set-up probes are spread over the run, between operations, so that
    # their median does not hang on the machine's state in one moment.
    probes = 0 if args.trace else SETUP_PROBES
    setup_samples = []
    times = []
    start = time.perf_counter()
    while True:
        times.append(run_checked(WARMUP_OPS + len(times), len(times)))
        now = time.perf_counter() - start
        if len(setup_samples) < probes and now >= len(setup_samples) * args.seconds / probes:
            setup_samples.append(measure_setup())
        if len(times) % wl.round_size == 0 and now >= args.seconds:
            break
    while len(setup_samples) < probes:
        setup_samples.append(measure_setup())
    if tracer:
        tracer.uninstall()
    problems.extend(wl.finish())

    ops, failed = len(times), len(failed_ops)
    if tracer:
        metrics = tracer.metrics(ops, PER_LAYER)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        metrics = {
            "op_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }
    result = {"correct": not problems, "attempted": ops, "failed": failed, "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "op_times_s": times, "setup_samples_s": setup_samples,
                   "problems": problems, "failed_ops": failed_ops, **result}, fh, indent=1)
    if tracer:
        tracer.write(RESULTS / f"{stem}_spans.json")

    for p in problems[:20]:
        print(f"bench: CHECK FAILED: {p}")
    print(f"bench: {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={ops} failed={failed} (+{WARMUP_OPS} warm-up ops) "
          f"op_s={statistics.median(times):.4f} s (median of {ops})")
    for name, m in metrics.items():
        print(f"bench:   {name} = {m['value']:.6g} {m['unit']}")
    return result


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory is its own."""
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, end="")
            print(f"bench: {name} exited with {proc.returncode}")
            return 1
        summary[name] = json.loads(lines[-1])
    for name, res in summary.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
