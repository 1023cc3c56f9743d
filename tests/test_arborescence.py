import hashlib
import math
import sys
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costarb import (
    Arborescence,
    arborescence as arb_mod,
    InfeasibleBudgetError,
    Instance,
    SizeLimitError,
    decompose,
    edmonds,
    exact_arborescence_oracle,
    exact_mapping_oracle,
    from_arrays,
    generate,
    make_mapping,
    maximize_dual,
    min_cost_sum,
    repair,
    run_oracle_suite,
    solve_constrained_arborescence,
    uniform_mapping,
    validate,
)
from costarb.dual import _BRACKET_FACTOR, _lambda_ceiling
from costarb.harness import derive_trial_seed


class TestDecompose:
    def test_two_cycle_with_tail(self):
        d = decompose(np.array([1, 0, 1]))
        assert d.cycles == [[0, 1]]
        assert d.component_sizes == [3]

    def test_pure_cycle(self):
        d = decompose(np.array([1, 2, 0]))
        assert d.cycles == [[0, 1, 2]]
        assert d.component_sizes == [3]

    def test_two_components(self):
        f = np.array([1, 0, 3, 2, 2])  # {0,1} cycle, {2,3} cycle with tail 4
        d = decompose(f)
        assert sorted(sorted(c) for c in d.cycles) == [[0, 1], [2, 3]]
        assert sorted(d.component_sizes) == [2, 3]
        assert d.component_of[4] == d.component_of[2]

    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(self, n, seed):
        rng = np.random.default_rng(seed)
        f = uniform_mapping(n, rng)
        assert np.all(f != np.arange(n))
        d = decompose(f)
        assert sum(d.component_sizes) == n
        assert len(d.component_sizes) == len(d.cycles)
        for cid, cyc in enumerate(d.cycles):
            # each cycle is f-closed and belongs to its own component
            for v, nxt in zip(cyc, cyc[1:] + cyc[:1]):
                assert f[v] == nxt
                assert d.component_of[v] == cid
        # every vertex's forward orbit settles in its component's cycle
        counts = np.bincount(d.component_of, minlength=len(d.cycles))
        assert list(counts) == d.component_sizes

    def test_cycle_count_bound_random_mappings(self):
        # cycles of a random mapping concentrate around (1/2) log n
        n, trials = 10_000, 1000
        rng = np.random.default_rng(77)
        counts = [len(decompose(uniform_mapping(n, rng)).cycles) for _ in range(trials)]
        bound = 4 * math.log2(n)
        assert sum(1 for c in counts if c <= bound) >= trials - 1


class TestRepair:
    def test_single_cycle_deletion_only(self, worked):
        m = make_mapping(worked, [1, 0, 1])
        arb = repair(m, worked, 10.0, 0.0, decompose(m))
        assert arb.root in (0, 1)
        ok, diags = validate(arb, worked)
        assert ok, diags
        # deletion only: weight drops by exactly the removed out-edge
        deleted = m.weight - arb.weight
        assert deleted == pytest.approx(worked.weights[arb.root, m.f[arb.root]])

    def test_pure_cycle_becomes_path(self, worked):
        m = make_mapping(worked, [1, 2, 0])
        arb = repair(m, worked, 10.0, 0.0, decompose(m))
        ok, _ = validate(arb, worked)
        assert ok
        assert arb.weight == pytest.approx(m.weight - worked.weights[arb.root, m.f[arb.root]])

    def test_two_cycles_adds_one_edge(self):
        inst = generate(6, 1.0, 4)
        f = np.array([1, 0, 3, 2, 0, 2])  # cycles {0,1} and {2,3}
        m = make_mapping(inst, f)
        c0 = m.cost + 1.0
        arb = repair(m, inst, c0, 0.5, decompose(m))
        ok, diags = validate(arb, inst)
        assert ok, diags
        assert arb.cost <= c0
        changed = sum(
            1 for v in range(6) if v != arb.root and arb.parent[v] != f[v]
        )
        assert changed == 1  # exactly one replacement edge

    @pytest.mark.parametrize("lambda_star", [math.nan, math.inf, -0.5])
    def test_rejects_a_multiplier_outside_the_model(self, lambda_star):
        # a NaN score never equals the maximum, which once failed deep in
        # break_vertex with "min() arg is an empty sequence"
        inst = generate(6, 1.0, 4)
        m = make_mapping(inst, [1, 0, 3, 2, 0, 2])
        with pytest.raises(ValueError, match="nonnegative and finite"):
            repair(m, inst, m.cost + 1.0, lambda_star, decompose(m))

    def test_budget_breach_signalled_with_best_effort(self, two_cycles):
        # every cross-component edge costs far more than any budget
        # headroom, so reconnection must breach: repair returns its best
        # effort, and the pipeline, finding no arborescence within the
        # budget that the mapping fits, raises
        inst = two_cycles
        m = make_mapping(inst, [1, 0, 3, 2])
        c0 = m.cost + 1.0
        arb = repair(m, inst, c0, 0.0, decompose(m))
        assert isinstance(arb, Arborescence)
        ok, diags = validate(arb, inst)
        assert ok, diags
        assert arb.cost > c0
        with pytest.raises(InfeasibleBudgetError):
            solve_constrained_arborescence(inst, c0)

    def test_repair_feasible_across_seeds(self):
        for seed in range(25):
            inst = generate(8, 1.0, seed)
            rng = np.random.default_rng(seed)
            m = make_mapping(inst, uniform_mapping(8, rng))
            c0 = m.cost + 0.5
            arb = repair(m, inst, c0, 1.0, decompose(m))
            ok, diags = validate(arb, inst)
            assert ok, diags
            assert arb.cost <= c0


class TestValidate:
    def test_detects_cycle(self, worked):
        arb = Arborescence(root=2, parent=np.array([1, 0, -1]), weight=0.7, cost=0.8)
        ok, diags = validate(arb, worked)
        assert not ok
        assert any("cycle" in d for d in diags)

    def test_detects_weight_tampering(self, worked):
        arb = Arborescence(root=2, parent=np.array([1, 2, -1]), weight=0.31, cost=1.40)
        ok, diags = validate(arb, worked)
        assert not ok
        assert any("weight" in d for d in diags)
        arb = Arborescence(root=2, parent=np.array([1, 2, -1]), weight=0.30, cost=1.45)
        assert validate(arb, worked) == (False, ["cost field 1.45 != recomputed 1.4"])

    def test_detects_bad_parent_values(self, worked):
        arb = Arborescence(root=2, parent=np.array([0, 2, -1]), weight=0.0, cost=0.0)
        ok, diags = validate(arb, worked)
        assert not ok and any("own parent" in d for d in diags)
        arb = Arborescence(root=1, parent=np.array([1, -1]), weight=0.0, cost=0.0)
        assert validate(arb, worked) == (False, ["parent array has shape (2,), expected (3,)"])

    def test_accepts_good_tree(self, worked):
        arb = Arborescence(root=2, parent=np.array([1, 2, -1]), weight=0.30, cost=1.40)
        ok, diags = validate(arb, worked)
        assert ok, diags

    # Diagnostics as the code that indexed the numpy array gave them.
    @pytest.mark.parametrize("root,parent,diags", [
        (1, [7, -1, 1, 2, 5],
         ["vertex 0 has out-of-range parent 7", "vertex 4 has out-of-range parent 5"]),
        (1, [1, -1, 9, -3, 4],
         ["vertex 2 has out-of-range parent 9", "vertex 3 has out-of-range parent -3",
          "vertex 4 is its own parent"]),
        (1, [0, -1, 1, 1, 1], ["vertex 0 is its own parent"]),
        (3, [1, 3, 1, 1, 2], ["root 3 has parent 1"]),
        (3, [1, 3, 2, 1, 2], ["root 3 has parent 1", "vertex 2 is its own parent"]),
        (0, [4, 0, 1, 2, 3], ["root 0 has parent 4"]),
        (3, [1, 2, 0, -1, 3], ["cycle reachable from vertex 0: [0, 1, 2]"]),
        (4, [1, 0, 4, 2, -1], ["cycle reachable from vertex 0: [0, 1]"]),
        # the first stray vertex hangs on a tail: the cycle it runs into is named
        (0, [-1, 2, 3, 2], ["cycle reachable from vertex 1: [2, 3]"]),
    ], ids=["out-of-range", "mixed", "self-parent", "root-parent", "root-and-self",
            "root-parent-only", "cycle", "cycle-with-tail", "tail-into-cycle"])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_diagnostics_on_corrupted_parents(self, root, parent, diags, dtype):
        arb = Arborescence(root=root, parent=np.array(parent, dtype=dtype), weight=0.0, cost=0.0)
        assert validate(arb, generate(len(parent), 1.0, 3)) == (False, diags)


class TestEdmonds:
    def test_n2_picks_cheaper_edge(self):
        inst = generate(2, 1.0, 3)
        arb = edmonds(inst)
        assert arb.weight == pytest.approx(min(inst.weights[0, 1], inst.weights[1, 0]))

    def test_worked_example_optimum(self, worked):
        arb = edmonds(worked)
        assert arb.weight == pytest.approx(0.30)
        ok, _ = validate(arb, worked)
        assert ok

    def test_matches_exhaustive_oracle(self):
        for seed in range(60):
            n = 4 + seed % 3
            inst = generate(n, 1.0, seed)
            arb = edmonds(inst)
            oracle = exact_arborescence_oracle(inst, math.inf)
            assert abs(arb.weight - oracle.weight) < 1e-9
            ok, diags = validate(arb, inst)
            assert ok, diags

    def test_zero_cost_score_equals_weight_score(self):
        inst = generate(6, 1.0, 9)
        a = edmonds(inst)
        b = edmonds(inst, lam=0.0)
        assert (a.root, a.parent.tolist()) == (b.root, b.parent.tolist())
        assert a.weight == exact_arborescence_oracle(inst, math.inf).weight

    def test_lagrangian_score(self):
        inst = generate(5, 1.0, 12)
        lam = 0.7
        arb = edmonds(inst, lam=lam)
        oracle = exact_arborescence_oracle(inst, math.inf)
        # scored tree minimises W + lam*C, so its score is <= the W-optimum's
        rows = [v for v in range(5) if v != arb.root]
        score = sum(
            inst.weights[v, arb.parent[v]] + lam * inst.costs[v, arb.parent[v]]
            for v in rows
        )
        rows_o = [v for v in range(5) if v != oracle.root]
        score_o = sum(
            inst.weights[v, oracle.parent[v]] + lam * inst.costs[v, oracle.parent[v]]
            for v in rows_o
        )
        assert score <= score_o + 1e-9

    @pytest.mark.parametrize("lam", [-0.5, math.nan, math.inf])
    def test_rejects_a_multiplier_outside_the_model(self, lam):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            edmonds(generate(5, 1.0, 3), lam=lam)

    def test_runs_at_n3000_under_the_default_recursion_limit(self):
        # one contraction per recursion level once hit the limit near n=2000
        assert sys.getrecursionlimit() <= 1000
        inst = generate(3000, 1.0, 0)
        arb = edmonds(inst)
        ok, diags = validate(arb, inst)
        assert ok, diags
        # each non-root vertex pays at least its row minimum
        row_min = inst.cheapest_weights[1]
        assert arb.weight >= row_min.sum() - row_min.max() - 1e-9

    @pytest.mark.parametrize("n,lam,digest", [
        (1000, 0.0, "bb10eebfb2c4786a9da20e97777e2a1f38edb8c104596f136c1a2eebde7d9e83"),
        (1000, 0.4, "4d3985306453b006aba5f7bfa9eafbab87ac0fb2940acbba7eec3fd7245f6c71"),
        (3000, 0.0, "529a51ac3653c9c929a5624ec31e55a8bceaa3f46da7d27dbc8f1853f3aff269"),
        (3000, 0.4, "b02413bb59ffb8d852574b19195b3d83678ecbbb499307ab6b88dfc4fd228002"),
    ], ids=["1000-0.0", "1000-0.4", "3000-0.0", "3000-0.4"])
    def test_frozen_output_at_large_n(self, n, lam, digest):
        # pinned by SHA-256 of the root, the parent bytes and the weight and
        # cost bits: the recursive reference needs 1.4 GB at n=1000
        arb = edmonds(generate(n, 1.0, 0), lam)
        h = hashlib.sha256(str(arb.root).encode() + arb.parent.tobytes())
        h.update(arb.weight.hex().encode() + arb.cost.hex().encode())
        assert h.hexdigest() == digest


class TestOracles:
    def test_mapping_worked_examples(self, worked):
        assert exact_mapping_oracle(worked, 1.4).weight == pytest.approx(1.10)
        assert exact_mapping_oracle(worked, 3.0).weight == pytest.approx(0.70)
        with pytest.raises(InfeasibleBudgetError):
            exact_mapping_oracle(worked, 0.6)

    def test_arborescence_worked_examples(self, worked):
        arb = exact_arborescence_oracle(worked, 1.4)
        assert arb.weight == pytest.approx(0.30)
        assert arb.root == 2
        assert list(arb.parent) == [1, 2, -1]
        tighter = exact_arborescence_oracle(worked, 1.39)
        assert tighter.weight > 0.30 + 1e-9

    def test_n2_formula(self):
        inst = generate(2, 1.0, 8)
        arb = exact_arborescence_oracle(inst, 2.0)
        assert arb.weight == pytest.approx(min(inst.weights[0, 1], inst.weights[1, 0]))

    @pytest.mark.parametrize("oracle", [exact_mapping_oracle, exact_arborescence_oracle])
    def test_nan_budget_is_a_value_error(self, oracle):
        # refused as every other entry point refuses it, not called infeasible
        with pytest.raises(ValueError, match="c0 must be a number, got nan"):
            oracle(generate(4, 1.0, 3), math.nan)

    def test_size_limit(self):
        inst = generate(8, 1.0, 0)
        with pytest.raises(SizeLimitError):
            exact_mapping_oracle(inst, 1.0)
        with pytest.raises(SizeLimitError):
            exact_arborescence_oracle(inst, 1.0)

    def test_mapping_vs_arborescence_envelope(self):
        # sanity envelope: the mapping optimum has one more edge but is less
        # constrained, so it stays within one max edge of the tree optimum
        for seed in range(30):
            inst = generate(5, 1.0, seed + 50)
            c0 = 3.0
            try:
                m = exact_mapping_oracle(inst, c0)
                a = exact_arborescence_oracle(inst, c0)
            except InfeasibleBudgetError:
                continue
            off = ~np.eye(5, dtype=bool)
            assert m.weight <= a.weight + inst.weights[off].max() + 1e-9


class TestPipeline:
    def test_weight_bracketed_by_oracle_at_small_n(self):
        for seed in range(20):
            inst = generate(6, 1.0, seed)
            res = solve_constrained_arborescence(inst, 10.0)
            oracle = exact_arborescence_oracle(inst, 10.0)
            ratio = res.arborescence.weight / oracle.weight
            assert 1.0 - 1e-12 <= ratio <= 3.0
            ok, diags = validate(res.arborescence, inst)
            assert ok, diags
            assert res.arborescence.cost <= 10.0

    def test_repair_that_regains_the_budget_does_not_raise(self):
        # one reconnection here has no in-budget edge, yet the finished
        # arborescence fits c0; repair once raised on it
        inst = generate(1000, 1.0, 1)
        res = solve_constrained_arborescence(inst, 2.0)
        ok, diags = validate(res.arborescence, inst)
        assert ok, diags
        assert res.arborescence.cost == pytest.approx(1.99947, abs=1e-5)
        assert res.arborescence.cost <= 2.0

    def test_fallback_reaches_the_oracle_at_block_720(self):
        # oracle-suite block 720, index 78: greedy repair costs 1.7228, over
        # the suite's budget there; meeting the Lagrangian arborescences'
        # lines from 0 and lambda* finds the exhaustive optimum
        inst = generate(4, 1.0, derive_trial_seed(720, 78))
        c0 = 1.471967889805256
        res = solve_constrained_arborescence(inst, c0)
        oracle = exact_arborescence_oracle(inst, c0)
        assert res.trace["edmonds_calls"] == 3
        assert (res.arborescence.weight, res.arborescence.cost) == (oracle.weight, oracle.cost)

    def test_fallback_on_breaching_small_instances(self):
        # budgets just above the cheapest mapping make greedy repair breach
        # on a few percent of instances; the fallback's tree then fits
        breaches = 0
        for n in range(4, 8):
            for seed in range(40):
                inst = generate(n, 1.0, seed)
                for u in (0.02, 0.1):
                    c0 = min_cost_sum(inst) * (1.0 + u)
                    try:
                        res = solve_constrained_arborescence(inst, c0)
                    except InfeasibleBudgetError:
                        with pytest.raises(InfeasibleBudgetError):
                            exact_arborescence_oracle(inst, c0)
                        continue
                    if res.trace["edmonds_calls"] == 0:
                        continue
                    breaches += 1
                    arb = res.arborescence
                    ok, diags = validate(arb, inst)
                    assert ok, diags
                    assert arb.cost <= c0
                    assert arb.weight >= exact_arborescence_oracle(inst, c0).weight - 1e-12
        assert breaches >= 5

    def test_lower_bound_does_not_bound_the_arborescence(self):
        # lower_bound bounds the constrained mapping optimum only: a
        # Lagrangian arborescence within c0 is lighter than it
        inst = generate(300, 1.0, 0)
        c0 = math.sqrt(300)
        res = solve_constrained_arborescence(inst, c0)
        arb = edmonds(inst, lam=0.4105)
        ok, diags = validate(arb, inst)
        assert ok, diags
        assert arb.cost == pytest.approx(17.28950, abs=1e-5)
        assert arb.cost <= c0
        assert arb.weight == pytest.approx(7.14981, abs=1e-5)
        assert res.lower_bound == pytest.approx(7.21297, abs=1e-5)
        assert arb.weight < res.lower_bound

    def test_infeasible_budget_raises(self, worked):
        with pytest.raises(InfeasibleBudgetError):
            solve_constrained_arborescence(worked, 0.5)

    def test_trace_fields(self):
        inst = generate(30, 1.0, 2)
        res = solve_constrained_arborescence(inst, 6.0)
        tr = res.trace
        assert list(tr) == list(arb_mod.Trace._fields)
        assert tr["cycles_broken"] >= 1
        assert tr["lambda_star"] >= 0
        assert tr["edmonds_calls"] == 0
        assert res.lower_bound <= res.arborescence.weight + tr["w_max_used"] + 1e-9

    def test_lower_bound_below_mapping_weight(self):
        for seed in range(10):
            inst = generate(40, 1.0, seed + 7)
            res = solve_constrained_arborescence(inst, 8.0)
            assert res.lower_bound <= res.trace["mapping_weight"] + 1e-9

    def test_optimal_mapping_cycle_structure_matches_uniform(self):
        # dual argmin mappings should look like uniform random mappings
        n, trials = 300, 120
        rng = np.random.default_rng(5)
        uniform_counts = [
            len(decompose(uniform_mapping(n, rng)).cycles) for _ in range(trials)
        ]
        opt_counts = []
        for t in range(trials):
            inst = generate(n, 1.0, 9000 + t)
            res = solve_constrained_arborescence(inst, math.sqrt(n))
            opt_counts.append(res.trace["cycles_broken"])
        assert abs(np.mean(opt_counts) - np.mean(uniform_counts)) <= 0.25 * np.mean(
            uniform_counts
        )


def test_arborescence_json_dict(worked):
    arb = exact_arborescence_oracle(worked, 1.4)
    d = arb.to_dict()
    assert d == {"root": 2, "parent": [1, 2, None], "weight": arb.weight, "cost": arb.cost}


# Reference: the cycle search that the recursive Edmonds made with a colour
# walk of its own before it called decompose. Kept verbatim apart from the
# name and the return.
def _reference_colour_walk_cycle(parent: np.ndarray, root: int):
    n = len(parent)
    # locate a cycle among the chosen out-edges, if any
    color = np.zeros(n, dtype=np.int8)  # 0 new, 1 active, 2 done
    color[root] = 2
    cycle = None
    for start in range(n):
        if color[start]:
            continue
        path = []
        v = start
        while color[v] == 0:
            color[v] = 1
            path.append(v)
            v = parent[v]
        if color[v] == 1:
            cycle = path[path.index(v):]
        for u in path:
            color[u] = 2
        if cycle:
            break
    return cycle


# Reference: exact_arborescence_oracle as it was before it summed with
# _enumerate_choice_sums. Kept verbatim apart from the name and the size
# limit, which is the shipped one.
def _reference_arborescence_oracle(instance, c0: float) -> Arborescence:
    n = instance.n
    if n > 7:
        raise SizeLimitError(f"arborescence oracle capped at n=7, got {n}")
    best = None
    for root in range(n):
        non_root = [v for v in range(n) if v != root]
        m = (n - 1) ** (n - 1)
        parents = np.empty((m, n), dtype=np.int64)
        parents[:, root] = root  # self-loop: the chase below parks at the root
        stride = m
        for v in non_root:
            cols = np.asarray([u for u in range(n) if u != v])
            stride //= n - 1
            idx = (np.arange(m) // stride) % (n - 1)
            parents[:, v] = cols[idx]

        reach = parents.copy()
        rows = np.arange(m)[:, None]
        for _ in range(n - 1):
            reach = parents[rows, reach]
        valid = (reach == root).all(axis=1)
        if not valid.any():
            continue
        w = np.zeros(m)
        c = np.zeros(m)
        for v in non_root:
            w += instance.weights[v, parents[:, v]]
            c += instance.costs[v, parents[:, v]]
        feasible = valid & (c <= c0)
        if not feasible.any():
            continue
        i = int(np.argmin(np.where(feasible, w, np.inf)))
        if best is None or w[i] < best[0]:
            best = (float(w[i]), root, parents[i].copy())

    if best is None:
        raise InfeasibleBudgetError(f"no arborescence fits budget {c0:.6g}")
    weight, root, parent = best
    parent[root] = -1
    rows = np.asarray([v for v in range(n) if v != root])
    cost = float(instance.costs[rows, parent[rows]].sum())
    return Arborescence(root=root, parent=parent, weight=weight, cost=cost)


# Reference: exact_mapping_oracle as it was before it read its choice
# columns from a per-n table. Kept verbatim apart from the names and the
# size limit, which is the shipped one.
def _reference_enumerate_choice_sums(values: np.ndarray, choices: list) -> np.ndarray:
    """Total over the cartesian product of per-row choices, in lex order."""
    totals = np.zeros(1)
    for i, cols in enumerate(choices):
        totals = (totals[:, None] + values[i, cols][None, :]).ravel()
    return totals


def _reference_mapping_oracle(instance, c0: float):
    """Global constrained-mapping optimum by enumerating all (n-1)^n maps."""
    n = instance.n
    if n > 7:
        raise SizeLimitError(f"mapping oracle capped at n=7, got {n}")
    choices = [[j for j in range(n) if j != i] for i in range(n)]
    weights = _reference_enumerate_choice_sums(instance.weights, choices)
    costs = _reference_enumerate_choice_sums(instance.costs, choices)
    feasible = costs <= c0
    if not feasible.any():
        raise InfeasibleBudgetError(f"no mapping fits budget {c0:.6g}")
    best = int(np.argmin(np.where(feasible, weights, np.inf)))
    # digit r of row i is its r-th out-neighbour: r, or r + 1 from r = i on
    r = np.array(np.unravel_index(best, (n - 1,) * n))
    return make_mapping(instance, r + (r >= np.arange(n)))


# Reference: the recursive Edmonds that contracted one cycle per level on
# rebuilt copies of the score matrix. Kept verbatim apart from the names.
def _reference_min_out_tree(score: np.ndarray, root: int) -> np.ndarray:
    """Minimum spanning out-edge tree: every v != root picks one out-edge
    (v -> parent) and parent chains reach the root.

    Recursive cycle contraction. Ties break toward the smallest vertex
    index, making the result deterministic.
    """
    n = score.shape[0]
    masked = score.copy()
    np.fill_diagonal(masked, np.inf)
    masked[root, :] = np.inf
    parent = np.argmin(masked, axis=1)
    # a cycle among the chosen out-edges, if any, besides the root made a loop
    parent[root] = root
    cycle = next((c for c in decompose(parent).cycles if c != [root]), None)
    parent[root] = -1
    if cycle is None:
        return parent

    in_cycle = np.zeros(n, dtype=bool)
    in_cycle[cycle] = True
    keep = [v for v in range(n) if not in_cycle[v]]
    m = len(keep)
    q = m  # contracted supernode id in the reduced graph
    new_id = {v: i for i, v in enumerate(keep)}

    reduced = np.full((m + 1, m + 1), np.inf)
    reduced[np.ix_(range(m), range(m))] = score[np.ix_(keep, keep)]

    cyc = np.asarray(cycle)
    chosen = score[cyc, parent[cyc]]  # cost of each cycle vertex's cycle edge
    # out of the cycle: leaving vertex v pays its edge minus the cycle edge it drops
    out_scores = score[cyc][:, keep] - chosen[:, None]
    exit_vertex = cyc[np.argmin(out_scores, axis=0)]
    reduced[q, :m] = out_scores.min(axis=0)
    # into the cycle: remember which cycle vertex each outside vertex would target
    in_scores = score[keep][:, cyc]
    entry_target = cyc[np.argmin(in_scores, axis=1)]
    reduced[:m, q] = in_scores.min(axis=1)

    reduced_root = new_id[root]
    sub_parent = _reference_min_out_tree(reduced, reduced_root)

    result = np.empty(n, dtype=np.int64)
    result[root] = -1
    for v in keep:
        p = sub_parent[new_id[v]]
        if v == root:
            continue
        result[v] = entry_target[new_id[v]] if p == q else keep[p]
    for v in cyc:
        result[v] = parent[v]
    # the supernode's out-edge is realised by one cycle vertex, which drops
    # its cycle edge
    p = int(sub_parent[q])
    result[int(exit_vertex[p])] = keep[p]
    return result


def _reference_edmonds(
    instance: Instance,
    edge_score: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> Arborescence:
    """Minimum-total-score spanning arborescence over all roots.

    ``edge_score`` receives the weight and cost matrices and returns the score
    matrix; the default scores by weight alone. The best root is found in one
    pass via a virtual super-root joined to every vertex at a uniform large
    score, so exactly one real vertex attaches to it.
    """
    n = instance.n
    if edge_score is None:
        score = instance.weights.copy()
    else:
        with np.errstate(invalid="ignore"):  # score fns may turn the inf diagonal into nan
            score = np.array(edge_score(instance.weights, instance.costs), dtype=np.float64)
        if score.shape != (n, n):
            raise ValueError(f"edge_score returned shape {score.shape}, expected {(n, n)}")
    np.fill_diagonal(score, np.inf)
    finite = score[np.isfinite(score)]
    big = 2.0 * (n + 1) * (float(np.abs(finite).max()) + 1.0) if finite.size else 1.0

    full = np.full((n + 1, n + 1), np.inf)
    full[:n, :n] = score
    full[:n, n] = big
    parent = _reference_min_out_tree(full, n)

    root = int(np.nonzero(parent[:n] == n)[0][0])
    parent = parent[:n].copy()
    parent[root] = -1
    rows = np.asarray([v for v in range(n) if v != root])
    weight = float(instance.weights[rows, parent[rows]].sum())
    cost = float(instance.costs[rows, parent[rows]].sum())
    return Arborescence(root=root, parent=parent, weight=weight, cost=cost)


# Reference: the Lagrangian-arborescence fallback with its own copy of the
# dual's bracket search and line meeting. Kept verbatim apart from the name.
def _reference_lagrangian_arborescence(
    instance: Instance, c0: float, lambda_star: float
) -> tuple[Arborescence, int]:
    n = instance.n
    lo = edmonds(instance)
    if lo.cost <= c0:
        return lo, 1
    lam_lo, lam_hi, ceiling = 0.0, lambda_star or n * math.log(n), _lambda_ceiling(n)
    hi = edmonds(instance, lam_hi)
    calls = 2
    while hi.cost > c0:
        if lam_hi == ceiling:
            raise InfeasibleBudgetError(
                f"cheapest arborescence costs {hi.cost:.6g} > budget {c0:.6g}"
            )
        lo, lam_lo, lam_hi = hi, lam_hi, min(lam_hi * _BRACKET_FACTOR, ceiling)
        hi = edmonds(instance, lam_hi)
        calls += 1
    while True:
        lam = (hi.weight - lo.weight) / (lo.cost - hi.cost)
        if not lam_lo < lam < lam_hi:
            return hi, calls
        tree = edmonds(instance, lam)
        calls += 1
        if (tree.weight, tree.cost) in ((lo.weight, lo.cost), (hi.weight, hi.cost)):
            return hi, calls
        if tree.cost > c0:
            lo, lam_lo = tree, lam
        else:
            hi, lam_hi = tree, lam


# Reference: validate as it was before it walked the parents with
# decompose. Kept verbatim apart from the name.
def _reference_validate(arb: Arborescence, instance: Instance) -> tuple[bool, list]:
    """Structural and bookkeeping checks; diagnostics name each violation."""
    n = instance.n
    diags = []
    parent = arb.parent
    if parent.shape != (n,):
        return False, [f"parent array has shape {parent.shape}, expected ({n},)"]
    if not 0 <= arb.root < n:
        diags.append(f"root {arb.root} out of range")
        return False, diags
    parent_list = parent.tolist()
    if parent_list[arb.root] != -1:
        diags.append(f"root {arb.root} has parent {parent_list[arb.root]}")
    non_root = [v for v in range(n) if v != arb.root]
    for v in non_root:
        p = parent_list[v]
        if not 0 <= p < n:
            diags.append(f"vertex {v} has out-of-range parent {p}")
        elif p == v:
            diags.append(f"vertex {v} is its own parent")
    if diags:
        return False, diags

    # memoized parent chase: each vertex is walked at most once overall
    reaches_root = bytearray(n)
    reaches_root[arb.root] = 1
    for v in non_root:
        if reaches_root[v]:
            continue
        path = []
        u = v
        while not reaches_root[u]:
            path.append(u)
            u = parent_list[u]
            if len(path) > n:
                # walk never reached the root: v sits on or below a cycle
                cycle = [v]
                u = parent_list[v]
                while u != v and len(cycle) <= n:
                    cycle.append(u)
                    u = parent_list[u]
                diags.append(f"cycle reachable from vertex {v}: {cycle[:8]}")
                return False, diags
        for w in path:
            reaches_root[w] = 1

    rows = np.asarray(non_root)
    w = float(instance.weights[rows, parent[rows]].sum())
    c = float(instance.costs[rows, parent[rows]].sum())
    if abs(w - arb.weight) > 1e-9:
        diags.append(f"weight field {arb.weight!r} != recomputed {w!r}")
    if abs(c - arb.cost) > 1e-9:
        diags.append(f"cost field {arb.cost!r} != recomputed {c!r}")
    return (not diags), diags


def _bits(a: Arborescence):
    return a.root, a.parent.dtype, a.parent.tolist(), a.weight.hex(), a.cost.hex()


def _arborescence_or_error(oracle, inst, c0):
    try:
        return _bits(oracle(inst, c0))
    except InfeasibleBudgetError as exc:
        return type(exc)


def _mapping_or_error(oracle, inst, c0):
    try:
        m = oracle(inst, c0)
    except InfeasibleBudgetError as exc:
        return type(exc)
    return m.f.dtype, m.f.tolist(), m.weight.hex(), m.cost.hex()


class TestEqualsTheOldCode:
    """The cycle search, both exhaustive oracles, Edmonds and validate give
    what the code they replaced gave, bit for bit (Edmonds on tie-free
    input, validate unless the first stray vertex hangs on a tail)."""

    def test_cycle_search_is_the_colour_walk(self):
        rng = np.random.default_rng(8)
        found = 0
        for _ in range(3000):
            n = int(rng.integers(2, 13))
            root = int(rng.integers(n))
            # out-edges of an argmin over a masked diagonal: no self-loops
            # except at the root, which the recursive Edmonds made a fixed point
            parent = uniform_mapping(n, rng)
            parent[root] = root
            cycle = next((c for c in decompose(parent).cycles if c != [root]), None)
            assert cycle == _reference_colour_walk_cycle(parent, root), (parent, root)
            found += cycle is not None
        assert 0 < found < 3000

    @pytest.mark.parametrize("n", range(2, 8))
    def test_arborescence_oracle_on_random_instances(self, n):
        for seed in range(12 if n < 7 else 3):
            inst = generate(n, 1.0, seed)
            for c0 in (math.inf, 0.5 * n, 0.3 * n, 0.1):
                assert _arborescence_or_error(exact_arborescence_oracle, inst, c0) == (
                    _arborescence_or_error(_reference_arborescence_oracle, inst, c0)
                ), (n, seed, c0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_arborescence_oracle_on_a_grid_of_eighths(self, n):
        from costarb import from_arrays

        rng = np.random.default_rng(200 + n)
        for _ in range(12):
            inst = from_arrays(rng.integers(0, 9, (n, n)) / 8, rng.integers(0, 9, (n, n)) / 8)
            for c0 in (math.inf, 0.5 * n, 0.3 * n, 0.1):
                assert _arborescence_or_error(exact_arborescence_oracle, inst, c0) == (
                    _arborescence_or_error(_reference_arborescence_oracle, inst, c0)
                ), (n, c0)

    @pytest.mark.parametrize("s", [1.0, 0.5])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_arborescence_oracle_at_the_feasibility_edge(self, n, s):
        for seed in range(8):
            inst = generate(n, s, seed)
            # the min-cost arborescence's cost, summed as the oracles sum it
            edge = _reference_arborescence_oracle(
                from_arrays(inst.costs, inst.costs), math.inf
            ).weight
            for c0 in (edge, np.nextafter(edge, 0.0)):
                assert _arborescence_or_error(exact_arborescence_oracle, inst, c0) == (
                    _arborescence_or_error(_reference_arborescence_oracle, inst, c0)
                ), (n, s, seed, c0)
            assert exact_arborescence_oracle(inst, edge).cost == edge
            with pytest.raises(InfeasibleBudgetError):
                exact_arborescence_oracle(inst, np.nextafter(edge, 0.0))

    @pytest.mark.parametrize("s", [1.0, 0.5])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_mapping_oracle_on_random_instances(self, n, s):
        for seed in range(8 if n < 7 else 2):
            inst = generate(n, s, seed)
            edge = min_cost_sum(inst)
            for c0 in (math.inf, 0.5 * n, 0.3 * n, edge, np.nextafter(edge, 0.0)):
                assert _mapping_or_error(exact_mapping_oracle, inst, c0) == (
                    _mapping_or_error(_reference_mapping_oracle, inst, c0)
                ), (n, s, seed, c0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_mapping_oracle_on_a_grid_of_eighths(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(12):
            inst = from_arrays(rng.integers(0, 9, (n, n)) / 8, rng.integers(0, 9, (n, n)) / 8)
            edge = min_cost_sum(inst)
            for c0 in (math.inf, 0.5 * n, 0.3 * n, edge, np.nextafter(edge, 0.0)):
                assert _mapping_or_error(exact_mapping_oracle, inst, c0) == (
                    _mapping_or_error(_reference_mapping_oracle, inst, c0)
                ), (n, c0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_oracles_on_signed_zeros(self, n):
        # -0.0 is inside the model; sums from 0.0 turn it into +0.0
        rng = np.random.default_rng(400 + n)
        for _ in range(6):
            w, c = np.where(rng.random((2, n, n)) < 0.5, -0.0, rng.integers(1, 9, (2, n, n)) / 8)
            inst = from_arrays(w, c)
            for c0 in (math.inf, 0.3 * n, 0.0):
                assert _mapping_or_error(exact_mapping_oracle, inst, c0) == (
                    _mapping_or_error(_reference_mapping_oracle, inst, c0)
                ), (n, c0)
                assert _arborescence_or_error(exact_arborescence_oracle, inst, c0) == (
                    _arborescence_or_error(_reference_arborescence_oracle, inst, c0)
                ), (n, c0)


    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_edmonds_on_random_instances(self, n, lam):
        for seed in range(200):
            inst = generate(n, 1.0, seed)
            assert _bits(edmonds(inst, lam)) == _bits(
                _reference_edmonds(inst, lambda w, c: w + lam * c)
            ), (n, seed)

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    @pytest.mark.parametrize("n", [20, 50, 120, 300])
    def test_edmonds_on_larger_instances(self, n, lam):
        for seed in range(3):
            inst = generate(n, 0.5 + 0.25 * seed, seed)
            assert _bits(edmonds(inst, lam)) == _bits(
                _reference_edmonds(inst, lambda w, c: w + lam * c)
            ), (n, seed)

    @pytest.mark.parametrize("s", [1.0, 0.6])
    @pytest.mark.parametrize("n", range(4, 8))
    def test_lagrangian_fallback(self, n, s):
        # from lambda=0 and the mapping dual's lambda*: the same tree, the
        # same Edmonds calls, or the same error. Seeds 111 and 201 add
        # instances whose cheapest arborescence breaches min_cost_sum.
        def run(fallback, inst, c0, lambda_star):
            try:
                arb, calls = fallback(inst, c0, lambda_star)
            except InfeasibleBudgetError as exc:
                return type(exc), str(exc)
            return _bits(arb), calls

        rows = np.arange(n)
        errors = 0
        for seed in (*range(40), 111, 201):
            inst = generate(n, s, seed)
            low = min_cost_sum(inst)
            high = float(inst.costs[rows, inst.cheapest_weights[0]].sum())
            budgets = (low, low * 1.02, low + 0.3 * (high - low), low + 0.7 * (high - low))
            for c0 in budgets + (math.sqrt(n), 2.0):
                try:
                    lambda_star = maximize_dual(inst, c0).lambda_star
                except InfeasibleBudgetError:
                    continue
                result = run(arb_mod._lagrangian_arborescence, inst, c0, lambda_star)
                assert result == run(
                    _reference_lagrangian_arborescence, inst, c0, lambda_star
                ), (n, s, seed, c0)
                errors += result[0] is InfeasibleBudgetError
        assert (errors > 0) == ((n, s) in ((6, 1.0), (6, 0.6), (7, 1.0))), errors

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.7])
    def test_edmonds_on_grids_of_eighths(self, lam):
        # weights and costs are eighths, so ties are frequent: trees may
        # differ, optimal scores may not. Scores are compared exactly, with
        # lam read as the decimal it is written as: two trees whose such
        # scores differ, differ by at least 1/80, far above rounding
        rng = np.random.default_rng(31)
        for n in range(3, 31):
            for _ in range(10):
                w, c = rng.integers(0, 9, (2, n, n)) / 8

                def score(tree):
                    rows = np.flatnonzero(tree.parent >= 0)
                    edges = rows, tree.parent[rows]
                    return Fraction(w[edges].sum()) + Fraction(str(lam)) * Fraction(c[edges].sum())

                inst = from_arrays(w, c)
                arb = edmonds(inst, lam)
                ok, diags = validate(arb, inst)
                assert ok, diags
                ref = _reference_edmonds(inst, lambda w, c: w + lam * c)
                assert score(arb) == score(ref), n
                if n <= 7:
                    scored = from_arrays(w + lam * c, c)
                    oracle = exact_arborescence_oracle(scored, math.inf)
                    assert score(arb) == score(oracle), n

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_validate_on_random_parents(self, dtype):
        rng = np.random.default_rng(19)
        inst = {n: generate(n, 1.0, n) for n in range(2, 61)}
        seen = dict.fromkeys(["ok", "on-cycle", "on-tail", "other-fault"], 0)
        for _ in range(1500):
            n = int(rng.integers(2, 61))
            root = int(rng.integers(n))
            # a random tree: each vertex after the root picks an earlier one
            order = np.concatenate([[root], rng.permutation(np.delete(np.arange(n), root))])
            parent = np.full(n, -1, dtype=dtype)
            for k in range(1, n):
                parent[order[k]] = order[rng.integers(k)]
            kind = rng.integers(6)
            non_root = order[1:]
            if kind == 1:  # a cycle, often with tails hanging off it
                if n > 2:
                    ring = rng.choice(non_root, size=int(rng.integers(2, n)), replace=False)
                    parent[ring] = np.roll(ring, 1)
            elif kind == 2:
                v = rng.choice(non_root)
                parent[v] = v
            elif kind == 3:
                parent[rng.choice(non_root)] = rng.choice([-1, -7, n, n + 5])
            elif kind == 4:
                parent[root] = rng.choice(non_root)
            elif kind == 5:
                root = int(rng.choice([-1, n, n + 3]))
            rows = np.flatnonzero(np.arange(n) != root)
            edges = rows, np.clip(parent[rows], 0, n - 1)
            weight, cost = float(inst[n].weights[edges].sum()), float(inst[n].costs[edges].sum())
            if rng.random() < 0.1:
                weight += 1.0
            arb = Arborescence(root=root, parent=parent, weight=weight, cost=cost)
            got, ref = validate(arb, inst[n]), _reference_validate(arb, inst[n])
            if got == ref:
                on_cycle = not ref[0] and ref[1][-1].startswith("cycle")
                seen["ok" if ref[0] else "on-cycle" if on_cycle else "other-fault"] += 1
                continue
            # the first stray vertex hangs on a tail: the new diagnostic
            # names the decompose cycle of that vertex's component
            chains = parent.copy()
            chains[root] = root
            dec = decompose(chains)
            v = int(np.flatnonzero(dec.component_of != dec.component_of[root])[0])
            cycle = dec.cycles[dec.component_of[v]]
            assert v not in cycle, (root, parent)
            assert ref[0] is False and len(ref[1]) == 1
            assert ref[1][0].startswith(f"cycle reachable from vertex {v}: ")
            assert got == (False, [f"cycle reachable from vertex {v}: {cycle[:8]}"])
            seen["on-tail"] += 1
        assert min(seen.values()) > 50, seen


def _choice_digits(parents: np.ndarray, root: int) -> np.ndarray:
    """Each non-root vertex's digit: its parent's rank among its out-neighbours."""
    non_root = [v for v in range(parents.shape[1]) if v != root]
    cols = parents[:, non_root]
    return cols - (cols > np.asarray(non_root))


class TestArborescenceTable:
    """The per-n table the arborescence oracle enumerates."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_invariants(self, n):
        table = arb_mod._arborescence_table(n)
        per_root = n ** (n - 2)  # Cayley
        assert table.shape == (n - 1, n * per_root)
        assert table.dtype == np.int64
        assert not table.flags.writeable
        rows = np.arange(per_root)[:, None]
        for root in range(n):
            block = table[:, root * per_root : (root + 1) * per_root]
            # row k holds the flat edge v*n + parent[v] of the k-th non-root v
            non_root = [v for v in range(n) if v != root]
            assert (block // n == np.asarray(non_root)[:, None]).all()
            parents = np.full((per_root, n), root)
            parents[:, non_root] = (block % n).T
            # a chase of n - 1 steps, with the root parked on itself
            reach = parents.copy()
            for _ in range(n - 1):
                reach = parents[rows, reach]
            assert (reach == root).all()
            # strictly ascending digit strings, read as base-(n-1) numbers
            parents[:, root] = -1
            digits = _choice_digits(parents, root)
            code = digits @ ((n - 1) ** np.arange(n - 2, -1, -1))
            assert (np.diff(code) > 0).all()
        assert arb_mod._arborescence_table(n) is table

    def test_oracle_suite_builds_each_table_once(self):
        arb_mod._arborescence_table.cache_clear()
        report = run_oracle_suite(108, (4, 5, 6), 601)
        assert report.instances == 108
        info = arb_mod._arborescence_table.cache_info()
        assert (info.misses, info.currsize) == (3, 3)

    def test_no_table_work_once_built(self, monkeypatch):
        inst = generate(6, 1.0, 5)
        exact_arborescence_oracle(inst, math.inf)

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle rebuilt its table")

        for name in ("indices", "insert", "take_along_axis"):
            monkeypatch.setattr(np, name, forbidden)
        arb = exact_arborescence_oracle(generate(6, 1.0, 6), 3.0)
        # the answer is the caller's own array, not a view of the table
        assert arb.parent.flags.writeable and arb.parent.flags.owndata


def _instances_for_the_optimum_weights(n):
    """Drawn instances at s = 1 and 0.6, then grids of eighths, one with
    -0.0 for its zeros."""
    for s in (1.0, 0.6):
        for seed in range(6 if n < 7 else 2):
            yield generate(n, s, seed)
    rng = np.random.default_rng(500 + n)
    for k in range(8 if n < 7 else 2):
        w, c = rng.integers(0, 9, (2, n, n)) / 8
        if k % 2:
            w, c = np.where(w == 0, -0.0, w), np.where(c == 0, -0.0, c)
        yield from_arrays(w, c)


class TestOptimumWeights:
    """The oracle suite's checks (a) and (b) read the exhaustive optimum's
    weight without building the optimum; it is the public oracle's, bit for
    bit, and the same error where no mapping fits."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_arborescence_weight_is_the_oracle_weight(self, n):
        for inst in _instances_for_the_optimum_weights(n):
            expected = exact_arborescence_oracle(inst, math.inf).weight
            assert arb_mod._exact_arborescence_weight(inst).hex() == expected.hex()

    @pytest.mark.parametrize("n", range(2, 8))
    def test_mapping_weight_is_the_oracle_weight(self, n):
        def weight_or_error(weight_of, inst, c0):
            try:
                return weight_of(inst, c0).hex()
            except InfeasibleBudgetError as exc:
                return str(exc)

        def public(inst, c0):
            return exact_mapping_oracle(inst, c0).weight

        for inst in _instances_for_the_optimum_weights(n):
            edge = min_cost_sum(inst)
            below = float(np.nextafter(edge, -math.inf))
            for c0 in (math.inf, 0.5 * n, 0.3 * n, edge, below):
                assert weight_or_error(arb_mod._exact_mapping_weight, inst, c0) == (
                    weight_or_error(public, inst, c0)
                ), (n, c0)
            # the cheapest map fits its own cost, and nothing fits below it
            assert weight_or_error(public, inst, edge).startswith("0x")
            assert weight_or_error(public, inst, below).startswith("no mapping fits")
