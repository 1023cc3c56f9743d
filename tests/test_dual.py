import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costarb import (
    BudgetSpec,
    CostarbError,
    DualEvaluation,
    ExperimentConfig,
    InfeasibleBudgetError,
    Mapping,
    empirical_concentration,
    exact_arborescence_oracle,
    exact_mapping_oracle,
    from_arrays,
    generate,
    lambda_hint,
    make_mapping,
    maximize_dual,
    min_cost_sum,
    phi,
    run_experiment,
    solve_constrained_arborescence,
    solve_mapping,
)
from costarb import dual as dual_module
from costarb import instance as instance_module
from costarb.harness import derive_trial_seed
from costarb.instance import _ROW_BLOCK, _row_minima
from conftest import all_mappings


def brute_force_phi(inst, lam, c0):
    best = math.inf
    for f in all_mappings(inst.n):
        m = make_mapping(inst, f)
        best = min(best, m.weight + lam * m.cost)
    return best - lam * c0


class TestPhi:
    def test_lambda_zero_reduces_to_row_minima(self, worked):
        e = phi(worked, 0.0, 1.0)
        assert e.phi == pytest.approx(0.70)
        assert list(e.argmin.f) == [1, 2, 1]

    def test_unit_lambda_worked_example(self, worked):
        e = phi(worked, 1.0, 1.0)
        assert list(e.argmin.f) == [1, 0, 1]
        assert e.argmin.weight == pytest.approx(1.10)
        assert e.argmin.cost == pytest.approx(1.30)
        assert e.phi == pytest.approx(1.40)

    def test_subgradient_is_cost_minus_budget(self, worked):
        e = phi(worked, 0.7, 1.25)
        assert e.subgradient == pytest.approx(e.argmin.cost - 1.25)

    def test_phi_field_consistent(self, worked):
        e = phi(worked, 0.7, 1.25)
        assert abs(e.phi - (e.argmin.weight + 0.7 * e.argmin.cost - 0.7 * 1.25)) < 1e-9

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        lam=st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed, lam):
        inst = generate(4, 1.0, seed)
        assert phi(inst, lam, 1.0).phi == pytest.approx(brute_force_phi(inst, lam, 1.0))

    def test_rejects_negative_lambda(self, worked):
        with pytest.raises(ValueError):
            phi(worked, -0.1, 1.0)
        # nor does make_mapping take a mapping that is not one
        for f in ([1, 1, 0], [1, 3, 0]):
            with pytest.raises(ValueError, match="different vertex"):
                make_mapping(worked, f)


class TestMaximizeDual:
    def test_slack_budget_stops_at_zero(self, worked):
        opt = maximize_dual(worked, 2.0)
        assert opt.lambda_star == 0.0
        assert list(opt.mapping_high.f) == [1, 2, 1]
        assert opt.mapping_high.cost == pytest.approx(1.90)

    def test_tight_budget_brackets_the_kink(self, worked):
        opt = maximize_dual(worked, 1.4)
        assert 0.0 < opt.lambda_star < 1.0
        assert list(opt.mapping_high.f) == [1, 0, 1]
        assert opt.mapping_high.cost <= 1.4 <= opt.mapping_low.cost

    def test_infeasible_budget_detected(self, worked):
        # per-row cost minima sum to 0.15 + 0.20 + 0.30 = 0.65
        assert min_cost_sum(worked) == pytest.approx(0.65)
        with pytest.raises(InfeasibleBudgetError):
            maximize_dual(worked, 0.5)

    def test_bracket_cost_ordering(self):
        for seed in range(20):
            inst = generate(30, 1.0, seed)
            opt = maximize_dual(inst, 5.0)
            assert opt.mapping_high.cost <= opt.mapping_low.cost

    def test_phi_star_dominates_probes(self, worked):
        opt = maximize_dual(worked, 1.4)
        for lam in np.linspace(0, 2, 41):
            assert opt.phi_star >= phi(worked, float(lam), 1.4).phi - 1e-9


class TestConcavityAndMonotonicity:
    @given(
        seed=st.integers(min_value=0, max_value=500),
        lams=st.tuples(
            st.floats(min_value=0, max_value=30),
            st.floats(min_value=0, max_value=30),
            st.floats(min_value=0, max_value=30),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_phi_concave_in_lambda(self, seed, lams):
        l1, l2, l3 = sorted(lams)
        if l3 - l1 < 1e-9 or l2 - l1 < 1e-12 or l3 - l2 < 1e-12:
            return
        inst = generate(12, 1.0, seed)
        p1, p2, p3 = (phi(inst, lam, 2.0).phi for lam in (l1, l2, l3))
        chord = ((l3 - l2) * p1 + (l2 - l1) * p3) / (l3 - l1)
        assert p2 >= chord - 1e-9

    def test_argmin_cost_non_increasing_in_lambda(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            inst = generate(15, 1.0, int(rng.integers(1 << 32)))
            a, b = sorted(rng.uniform(0, 10, size=2))
            if b - a < 1e-12:
                continue
            assert phi(inst, b, 1.0).argmin.cost <= phi(inst, a, 1.0).argmin.cost + 1e-12


class TestSolveMapping:
    def test_worked_example_matches_exact_optimum(self, worked):
        sol = solve_mapping(worked, 1.4)
        assert sol.mapping.weight == pytest.approx(1.10)
        assert sol.mapping.cost <= 1.4
        exact = exact_mapping_oracle(worked, 1.4)
        assert exact.weight == pytest.approx(sol.mapping.weight)

    def test_slack_budget_returns_unconstrained_minimum(self, worked):
        sol = solve_mapping(worked, 1.95)
        assert sol.mapping.weight == pytest.approx(0.70)

    def test_weak_duality_and_gap_envelope_small_n(self):
        for seed in range(30):
            inst = generate(6, 1.0, seed)
            low = min_cost_sum(inst)
            for c0 in (low * 1.3, low * 2.0, 5.0):
                sol = solve_mapping(inst, c0)
                exact = exact_mapping_oracle(inst, c0)
                assert sol.mapping.cost <= c0
                assert sol.mapping.weight >= exact.weight - 1e-9
                assert sol.mapping.weight <= exact.weight + sol.w_max_used + 1e-9
                assert sol.lower_bound <= exact.weight + 1e-9
                assert sol.lower_bound <= sol.mapping.weight + 1e-9

    def test_gap_sandwich_against_dual_max(self):
        # weight of the returned mapping never exceeds phi* + heaviest edge
        for seed in range(40):
            inst = generate(25, 1.0, seed + 100)
            c0 = 4.0
            sol = solve_mapping(inst, c0)
            opt = maximize_dual(inst, c0)
            assert sol.mapping.weight <= opt.phi_star + sol.w_max_used + 1e-9

    def test_no_swap_when_the_budget_does_not_bind(self, monkeypatch):
        # the lambda=0 mapping takes each row's lightest edge, so moving a row
        # to its cheapest-cost edge cannot make it lighter: no swap is built
        calls = []
        build = dual_module.make_mapping
        monkeypatch.setattr(
            dual_module, "make_mapping", lambda *args: calls.append(1) or build(*args)
        )
        for seed in range(20):
            inst = generate(6, 1.0, seed)
            lightest = inst.cheapest_weights[0]
            sol = solve_mapping(inst, float(inst.costs[np.arange(6), lightest].sum()))
            assert sol.dual.lambda_star == 0.0
            assert np.array_equal(sol.mapping.f, lightest)
        assert calls == []
        # where the budget binds, the swap is still tried
        for seed in range(20):
            inst = generate(6, 1.0, seed)
            solve_mapping(inst, 1.2 * min_cost_sum(inst))
        assert calls

    def test_infeasible_propagates(self, worked):
        with pytest.raises(InfeasibleBudgetError):
            solve_mapping(worked, 0.6)


class TestNonFiniteInputs:
    """0 * inf is nan: a budget or multiplier that is not finite is refused,
    not turned into a nan bound or a wrong "infeasible"."""

    @pytest.mark.parametrize("c0", [math.inf, math.nan, 0.0])
    def test_budget_refused(self, worked, c0):
        for call in (
            lambda: phi(worked, 0.5, c0),
            lambda: maximize_dual(worked, c0),
            lambda: solve_mapping(worked, c0),
            lambda: solve_constrained_arborescence(worked, c0),
        ):
            with pytest.raises(ValueError, match="c0"):
                call()

    @pytest.mark.parametrize("lam", [math.inf, math.nan, -0.1])
    def test_multiplier_refused(self, worked, lam):
        with pytest.raises(ValueError, match="lambda"):
            phi(worked, lam, 1.4)

    def test_oracles_accept_an_unbounded_budget(self, worked):
        assert exact_mapping_oracle(worked, math.inf).weight == pytest.approx(0.70)
        assert exact_arborescence_oracle(worked, math.inf).cost < math.inf


class TestExhaustiveDualChecks:
    """The oracle suite's dual checks on inputs its instances never have:
    s < 1, and tie-heavy grids of eighths at c0 = min_cost_sum exactly
    (sums of eighths are exact, so that budget is met with equality)."""

    def check(self, inst, c0):
        sol = solve_mapping(inst, c0)
        exact = exact_mapping_oracle(inst, c0)
        assert sol.dual.phi_star <= exact.weight + 1e-9, c0
        assert sol.mapping.weight <= sol.lower_bound + sol.w_max_used + 1e-9, c0

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("s", [0.6, 0.3])
    def test_power_law(self, n, s):
        for seed in range(100):
            inst = generate(n, s, seed)
            for c0 in _oracle_budgets(inst)[1:]:
                self.check(inst, c0)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_grid_of_eighths_at_the_cheapest_budget(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(100):
            inst = from_arrays(rng.integers(0, 9, (n, n)) / 8, rng.integers(0, 9, (n, n)) / 8)
            if min_cost_sum(inst) > 0:  # a budget must be positive
                self.check(inst, min_cost_sum(inst))


class TestMappingStability:
    def test_argmin_stable_up_to_the_basic_row(self):
        # Perturbing the maximiser by +-1e-8*(1+lambda*) must not flip any
        # row except the single one whose argmin crosses at the kink.
        stable = 0
        trials = 1000
        for seed in range(trials):
            inst = generate(100, 1.0, seed)
            opt = maximize_dual(inst, 30.0)
            lam = opt.lambda_star
            delta = 1e-8 * (1.0 + lam)
            f_minus = phi(inst, max(0.0, lam - delta), 30.0).argmin.f
            f_plus = phi(inst, lam + delta, 30.0).argmin.f
            if int((f_minus != f_plus).sum()) <= 1:
                stable += 1
        assert stable >= 0.99 * trials


class TestConcentration:
    def test_lambda_zero_spread(self):
        # At lam=0 the per-trial relative std is ~1/sqrt(n) = 2.2%, so the
        # max over 100 trials sits right at the 5% line (2.2 sigma); the
        # seed is pinned to a run with margin.
        rep = empirical_concentration(2000, 1.0, 0.0, trials=100, seed=49_000)
        assert rep.max_rel_dev < 0.05
        assert rep.rel_std < 0.05

    def test_lambda_one_spread(self):
        rep = empirical_concentration(2000, 1.0, 1.0, trials=100, seed=502)
        assert rep.max_rel_dev < 0.05
        assert rep.rel_std < 0.05

    def test_degenerate_n2_runs(self):
        rep = empirical_concentration(2, 1.0, 0.5, trials=3, seed=1)
        assert rep.trials == 3 and rep.mean > 0

    @pytest.mark.parametrize(
        "n, s, lam, seed", [(2, 1.0, 0.0, 3), (300, 1.0, 1.0, 5), (300, 0.6, 40.0, 8)]
    )
    def test_equals_the_dense_row_minima(self, n, s, lam, seed):
        values = []
        for t in range(3):
            inst = generate(n, s, seed + t)
            with np.errstate(invalid="ignore"):
                scores = inst.weights + lam * inst.costs
            np.fill_diagonal(scores, np.inf)
            values.append(scores.min(axis=1).sum())
        values = np.array(values)
        mean = float(values.mean())
        assert empirical_concentration(n, s, lam, trials=3, seed=seed) == (
            dual_module.ConcentrationReport(
                n=n, s=s, lam=lam, trials=3, mean=mean,
                rel_std=float(values.std(ddof=1) / mean),
                max_rel_dev=float(np.abs(values - mean).max() / mean),
            )
        )

    def test_peak_memory_is_one_instance(self):
        tracemalloc.start()
        generate(2000, 1.0, 1).weights  # stores both matrices
        one_instance = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        empirical_concentration(2000, 1.0, 1.0, trials=3, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1.25 * one_instance

    def test_lambda_range_enforced(self):
        with pytest.raises(ValueError):
            empirical_concentration(100, 1.0, 1e6, trials=2, seed=0)
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            empirical_concentration(100, 1.0, 1.0, trials=0, seed=0)


# Reference: the plain bisection that evaluates every point on the full n x n
# matrix, as maximize_dual did before the exact maximiser. Kept verbatim
# apart from names, the dropped lambda_tol and the returned final lo.
_REF_BISECTION_TOL_FACTOR = 1e-10
_REF_LAMBDA_OVERFLOW_GUARD = 1e30


@dataclass(frozen=True, eq=False)
class _ReferenceOptimum:
    lambda_star: float
    phi_star: float
    mapping_low: Mapping
    mapping_high: Mapping
    lo: float


class _ReferencePhiEvaluator:
    def __init__(self, instance, c0: float):
        self.instance = instance
        self.c0 = c0
        self._rows = np.arange(instance.n)
        self._buf = np.empty_like(instance.weights)

    def __call__(self, lam: float) -> DualEvaluation:
        inst = self.instance
        with np.errstate(invalid="ignore"):  # lam=0 turns the inf diagonal into nan
            np.multiply(inst.costs, lam, out=self._buf)
        self._buf += inst.weights
        np.fill_diagonal(self._buf, np.inf)
        f = np.argmin(self._buf, axis=1)  # first occurrence = smallest column
        weight = float(inst.weights[self._rows, f].sum())
        cost = float(inst.costs[self._rows, f].sum())
        phi_val = weight + lam * cost - lam * self.c0
        return DualEvaluation(
            lam=lam,
            phi=phi_val,
            argmin=Mapping(f=f, weight=weight, cost=cost),
            subgradient=cost - self.c0,
        )


def reference_maximize_dual(instance, c0: float) -> _ReferenceOptimum:
    if c0 <= 0:
        raise ValueError(f"c0 must be positive, got {c0}")

    if min_cost_sum(instance) > c0:
        raise InfeasibleBudgetError(
            f"cheapest mapping costs {min_cost_sum(instance):.6g} > budget {c0:.6g}"
        )

    evaluate = _ReferencePhiEvaluator(instance, c0)
    e_lo = evaluate(0.0)
    phi_best = e_lo.phi
    if e_lo.subgradient <= 0:
        return _ReferenceOptimum(
            lambda_star=0.0, phi_star=phi_best,
            mapping_low=e_lo.argmin, mapping_high=e_lo.argmin, lo=0.0,
        )

    lo = 0.0
    hi = instance.n * math.log(instance.n)
    e_hi = evaluate(hi)
    phi_best = max(phi_best, e_hi.phi)
    while e_hi.subgradient > 0:
        lo, e_lo = hi, e_hi
        hi *= 2.0
        if hi > _REF_LAMBDA_OVERFLOW_GUARD:
            raise ArithmeticError("subgradient never changed sign; lambda overflow")
        e_hi = evaluate(hi)
        phi_best = max(phi_best, e_hi.phi)

    while True:
        tol = _REF_BISECTION_TOL_FACTOR * (1.0 + hi)
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        e_mid = evaluate(mid)
        phi_best = max(phi_best, e_mid.phi)
        if e_mid.subgradient > 0:
            lo, e_lo = mid, e_mid
        else:
            hi, e_hi = mid, e_mid

    return _ReferenceOptimum(
        lambda_star=hi, phi_star=phi_best,
        mapping_low=e_lo.argmin, mapping_high=e_hi.argmin, lo=lo,
    )


def _solve(solver, instance, c0):
    """A dual solve, or the type of the exception it raised."""
    try:
        return solver(instance, c0)
    except (ArithmeticError, ValueError, InfeasibleBudgetError) as exc:
        return type(exc)


def _bits(m):
    return (m.f.dtype, m.f.tolist(), m.weight.hex(), m.cost.hex())


def _oracle_budgets(inst):
    """Budgets around and between the cheapest and the unconstrained cost."""
    low = min_cost_sum(inst)
    high = float(inst.costs[np.arange(inst.n), inst.cheapest_weights[0]].sum())
    return [low + u * max(high - low, 1e-6) for u in (-0.1, 0.0, 0.3, 0.7, 1.0, 1.5)]


def _line(m, lam, c0):
    return m.weight + lam * (m.cost - c0)


def _breakpoint_maximum(inst, c0):
    """max of phi over lam = 0 and every lam where two columns of a row tie."""
    lams = {0.0}
    for i in range(inst.n):
        for j in range(inst.n):
            for k in range(j):
                if i in (j, k) or inst.costs[i, j] == inst.costs[i, k]:
                    continue
                lam = (inst.weights[i, k] - inst.weights[i, j]) / (
                    inst.costs[i, j] - inst.costs[i, k]
                )
                if lam > 0:
                    lams.add(float(lam))
    return max(phi(inst, lam, c0).phi for lam in lams)


_SHIPPED_BRACKET_FACTOR = dual_module._BRACKET_FACTOR
_SHIPPED_HINT_MIN_N = dual_module._HINT_MIN_N


def _apply_variant(monkeypatch, variant):
    """A bracket factor other than the shipped one, or "unhinted": no hint
    at any n, so the bracket search starts at n log n."""
    if variant == "unhinted":
        monkeypatch.setattr(dual_module, "_HINT_MIN_N", sys.maxsize)
    elif variant is not None:
        monkeypatch.setattr(dual_module, "_BRACKET_FACTOR", variant)


class TestReplayEquality:
    """maximize_dual against the plain bisection and exhaustive answers.

    The bisection stops at a width of 1e-10 * (1 + hi) around the maximiser;
    the exact maximiser must land inside that bracket with the same two
    mappings and at least the same phi, up to rounding. Bracket factors 3
    and 32 move the bracket ends off the shipped factor's, and "unhinted"
    starts every bracket search at n log n instead of at the paper's
    maximiser; lambda* and the mappings must not change with either.
    """

    @pytest.fixture(params=[None, 3.0, 32.0, "unhinted"])
    def bracket_variant(self, request, monkeypatch):
        _apply_variant(monkeypatch, request.param)
        return request.param

    def assert_matches_reference(self, inst, c0):
        opt = _solve(maximize_dual, inst, c0)
        ref = _solve(reference_maximize_dual, inst, c0)
        if isinstance(ref, type):
            assert opt is ref, (inst.n, c0)
            return opt
        assert _bits(opt.mapping_low) == _bits(ref.mapping_low), (inst.n, c0)
        assert _bits(opt.mapping_high) == _bits(ref.mapping_high), (inst.n, c0)
        assert ref.lo <= opt.lambda_star <= ref.lambda_star, (inst.n, c0)
        assert opt.phi_star >= ref.phi_star - 1e-12 * abs(ref.phi_star), (inst.n, c0)
        # phi at the maximiser, read off the feasible-side mapping's line
        high, lam = opt.mapping_high, opt.lambda_star
        assert opt.phi_star == high.weight + lam * high.cost - lam * c0, (inst.n, c0)
        return opt

    def assert_same_as_shipped(self, inst, c0, opt):
        """opt has the shipped factor's lambda*, mappings and phi_star bit
        for bit."""
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dual_module, "_BRACKET_FACTOR", _SHIPPED_BRACKET_FACTOR)
            m.setattr(dual_module, "_HINT_MIN_N", _SHIPPED_HINT_MIN_N)
            shipped = _solve(maximize_dual, inst, c0)
        if isinstance(shipped, type):
            assert opt is shipped, (inst.n, c0)
            return
        assert opt.lambda_star.hex() == shipped.lambda_star.hex(), (inst.n, c0)
        assert _bits(opt.mapping_low) == _bits(shipped.mapping_low), (inst.n, c0)
        assert _bits(opt.mapping_high) == _bits(shipped.mapping_high), (inst.n, c0)
        assert opt.phi_star == shipped.phi_star, (inst.n, c0)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_oracle_sizes(self, n, bracket_variant):
        for seed in range(40):
            inst = generate(n, 1.0, seed)
            for c0 in _oracle_budgets(inst):
                opt = self.assert_matches_reference(inst, c0)
                if bracket_variant is not None:
                    self.assert_same_as_shipped(inst, c0, opt)

    @pytest.mark.parametrize("n", [300, 1000])
    @pytest.mark.parametrize("s", [1.0, 0.6, 0.5])
    def test_regimes(self, n, s):
        # 0.45n, 0.5n and 1.02 * min_cost_sum lie outside predict's s < 1
        # band, where the hint is still C_s^2 n^(2-s) / (4 c0^2).
        inst = generate(n, s, 1)
        low = min_cost_sum(inst)
        for c0 in (math.sqrt(n), 0.2 * n, 3.0, 0.45 * n, 0.5 * n, 0.6 * n, low, 1.02 * low):
            self.assert_matches_reference(inst, c0)
            for variant in (3.0, 32.0, "unhinted"):
                with pytest.MonkeyPatch.context() as m:
                    _apply_variant(m, variant)
                    opt = _solve(maximize_dual, inst, c0)
                self.assert_same_as_shipped(inst, c0, opt)

    def assert_optimal_on_grid(self, inst, c0):
        """Ties may make the maximiser an interval or choose a different tied
        optimal pair than the bisection, so only the optimality conditions
        are checked."""
        opt = _solve(maximize_dual, inst, c0)
        ref = _solve(reference_maximize_dual, inst, c0)
        if isinstance(ref, type):
            assert opt is ref
            return
        lam = opt.lambda_star
        assert opt.mapping_high.cost <= c0
        assert lam == 0.0 or opt.mapping_low.cost > c0
        scale = 1.0 + opt.mapping_low.weight + lam * (opt.mapping_low.cost + c0)
        for m in (opt.mapping_low, opt.mapping_high):
            assert abs(_line(m, lam, c0) - opt.phi_star) <= 1e-12 * scale
        assert opt.phi_star >= ref.phi_star - 1e-12 * abs(ref.phi_star)

    @pytest.mark.parametrize("n", [3, 8, 40])
    def test_ties_on_a_grid_of_eighths(self, n, bracket_variant):
        rng = np.random.default_rng(n)
        for _ in range(30):
            inst = from_arrays(rng.integers(0, 9, (n, n)) / 8, rng.integers(0, 9, (n, n)) / 8)
            low = min_cost_sum(inst)
            for c0 in (low, low + 0.0625, low + 0.125, low + 1.0, n / 2):
                self.assert_optimal_on_grid(inst, c0)

    def test_ties_on_a_grid_of_eighths_sampled(self, bracket_variant):
        # n = 600: the search starts from the paper's maximiser
        n = 600
        rng = np.random.default_rng(n)
        for _ in range(2):
            inst = from_arrays(rng.integers(0, 9, (n, n)) / 8, rng.integers(0, 9, (n, n)) / 8)
            low = min_cost_sum(inst)
            for c0 in (low, low + 0.125, low + 1.0, math.sqrt(n), n / 2):
                self.assert_optimal_on_grid(inst, c0)

    def test_maximiser_above_n_log_n(self, bracket_variant):
        # heavy weights push lambda* past the first upper end, n log n, and
        # the heaviest past the overflow guard
        for seed in range(20):
            base = generate(6, 1.0, seed)
            for scale in (1e3, 1e6, 1e12, 1e40):
                inst = from_arrays(base.weights * scale, base.costs)
                low = min_cost_sum(inst)
                for c0 in (low, low * 1.01, low * 1.3):
                    self.assert_matches_reference(inst, c0)
        inst = from_arrays(base.weights * 1e6, base.costs)
        assert maximize_dual(inst, min_cost_sum(inst) * 1.01).lambda_star > 6 * math.log(6)
        with pytest.raises(ArithmeticError):
            maximize_dual(from_arrays(base.weights * 1e40, base.costs), min_cost_sum(base))

        # At a size with a hint, far below lambda* here.
        base = generate(600, 1.0, 1)
        inst = from_arrays(base.weights * 1e6, base.costs)
        low = min_cost_sum(inst)
        for c0 in (low, low * 1.01, low * 1.3):
            opt = self.assert_matches_reference(inst, c0)
            self.assert_same_as_shipped(inst, c0, opt)
            assert opt.lambda_star > 600 * math.log(600)
        with pytest.raises(ArithmeticError):
            maximize_dual(from_arrays(base.weights * 1e40, base.costs), min_cost_sum(base))
        # at s < 1 a budget whose square underflows to 0 has an infinite
        # hint, so the search starts at n log n and overflows as above
        inst = from_arrays(base.weights, base.costs * 1e-175, s=0.5)
        with pytest.raises(ArithmeticError, match="lambda overflow"):
            maximize_dual(inst, 2.0 * min_cost_sum(inst))

        # lambda* 1.1 times the search's last upper end (the last doubling
        # of n log n within 1e30), far above the hint: the search raises
        # from either start.
        base = generate(600, 1.0, 0)
        ceiling = 600 * math.log(600)
        while ceiling * 2.0 <= 1e30:
            ceiling *= 2.0
        scale = 1.1 * ceiling / maximize_dual(base, 120.0).lambda_star
        inst = from_arrays(base.weights * scale, base.costs)
        opt = _solve(maximize_dual, inst, 120.0)
        assert opt is ArithmeticError
        self.assert_same_as_shipped(inst, 120.0, opt)

    @pytest.mark.parametrize("s", [1.0, 0.6])
    def test_the_cheapest_budget(self, s, bracket_variant):
        # At c0 = min_cost_sum lambda* is where the last row switches to its
        # cheapest edge, far above the hint (predict gives none for seed 2
        # at s = 1), so the search steps up.
        for seed in range(4):
            inst = generate(600, s, seed)
            c0 = min_cost_sum(inst)
            opt = self.assert_matches_reference(inst, c0)
            self.assert_same_as_shipped(inst, c0, opt)
            if bracket_variant is None:
                assert opt.full_evaluations > 2

    @pytest.mark.parametrize("scale", [100.0, 0.01])
    def test_hint_far_off(self, scale, bracket_variant):
        # Weights x100 put lambda* far above the hint, and x0.01 far below
        # it, so both first bracket ends are on the same side and the
        # search steps outward.
        base = generate(600, 1.0, 1)
        inst = from_arrays(base.weights * scale, base.costs)
        for c0 in (math.sqrt(600), 0.2 * 600, 3.0):
            opt = self.assert_matches_reference(inst, c0)
            self.assert_same_as_shipped(inst, c0, opt)
            if bracket_variant is None:
                assert opt.full_evaluations > 3

    def test_rejected_inputs(self, worked):
        for c0 in (0.5, 0.0):
            self.assert_matches_reference(worked, c0)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_phi_star_is_the_breakpoint_maximum(self, n):
        for seed in range(8):
            inst = generate(n, 1.0, seed)
            for c0 in _oracle_budgets(inst)[1:]:
                expected = _breakpoint_maximum(inst, c0)
                assert maximize_dual(inst, c0).phi_star == pytest.approx(
                    expected, rel=1e-12, abs=1e-12
                ), (n, seed, c0)


class TestDualCounters:
    def test_full_evaluations_pinned(self):
        # At c0=sqrt(n) the plain bisection makes about fifty full
        # evaluations. The bracket search evaluates b and a around the
        # paper's maximiser in one pass, which also collects the candidates;
        # the line meeting makes `candidate` evaluations on them, `width`
        # columns per row. No search makes a pass at lambda=0: the instance
        # holds each row's lightest edge.
        for n, full, candidate, width in ((1000, 2, 9, 15), (3000, 2, 10, 13)):
            inst = generate(n, 1.0, 1)
            opt = maximize_dual(inst, math.sqrt(n))
            assert opt.full_evaluations == full, n
            assert opt.candidate_evaluations == candidate, n
            assert opt.candidate_width == width, n

    def test_slack_budget_makes_no_full_evaluation(self, worked):
        opt = maximize_dual(worked, 2.0)
        counters = (opt.full_evaluations, opt.candidate_evaluations, opt.candidate_width)
        assert counters == (0, 0, 0)

    def test_pipeline_trace_carries_counters(self):
        inst = generate(600, 1.0, 3)
        c0 = math.sqrt(600)
        trace = solve_constrained_arborescence(inst, c0).trace
        opt = maximize_dual(inst, c0)
        assert trace["dual_full_evaluations"] == opt.full_evaluations
        assert trace["dual_candidate_evaluations"] == opt.candidate_evaluations
        assert trace["dual_candidate_width"] == opt.candidate_width > 0

    def test_a_step_up_collects_the_candidates_in_its_pass(self, monkeypatch):
        # At c0=min_cost_sum (0.977 here) predict has no hint, and lambda*
        # is where the last row switches to its cheapest edge, far above
        # n log n, so b steps up twice. Each step's pass scans the old b
        # again as a and collects the candidates there: no pass at a alone
        # follows.
        passes = []
        shipped = dual_module._PhiEvaluator._pass

        def spy(self, lams, minima_above):
            passes.append(lams)
            return shipped(self, lams, minima_above)

        monkeypatch.setattr(dual_module._PhiEvaluator, "_pass", spy)
        inst = generate(1000, 1.0, 4)
        opt = maximize_dual(inst, min_cost_sum(inst))
        assert len(passes) == 3 and all(len(lams) == 2 for lams in passes)
        for (b, _), (b_new, a) in zip(passes, passes[1:]):
            assert (a, b_new) == (b, b * dual_module._BRACKET_FACTOR)
        assert opt.mapping_low.cost > min_cost_sum(inst) >= opt.mapping_high.cost
        assert opt.full_evaluations == 6

    @staticmethod
    def passes_of(monkeypatch, inst, c0):
        """maximize_dual(inst, c0) and the lams of each of its passes."""
        passes = []
        shipped = dual_module._PhiEvaluator._pass

        def spy(self, lams, minima_above):
            passes.append(tuple(lams))
            return shipped(self, lams, minima_above)

        monkeypatch.setattr(dual_module._PhiEvaluator, "_pass", spy)
        return maximize_dual(inst, c0), passes

    def test_each_step_down_is_one_pass_at_the_new_a(self, monkeypatch):
        # Without a hint (n < 256) the search starts at b = n log n and a = b/8,
        # both above lambda* here. Each step down makes a the new b and
        # scans only the new a, collecting its candidates against the row
        # minima that the pass before found at the new b.
        inst = generate(4, 1.0, 1)
        low = min_cost_sum(inst)
        high = inst.costs[np.arange(4), inst.cheapest_weights[0]].sum()
        opt, passes = self.passes_of(monkeypatch, inst, low + 0.7 * (high - low))
        b = 4 * math.log(4)
        a = b / 8
        assert passes == [(b, a), (a / 8,), (a / 64,)]
        assert a / 64 < opt.lambda_star < a / 8
        assert opt.full_evaluations == 4

    def test_steps_down_to_the_floor(self, monkeypatch):
        # The lambda=0 argmin breaks a tie over budget, yet a tied mapping
        # fits, so lambda* is 0. The search steps down until a falls below
        # 1e-10 * (1 + b), where a becomes 0; a last pass at 0 collects the
        # candidates for [0, b].
        rng = np.random.default_rng(3)
        for _ in range(5):
            inst = from_arrays(rng.integers(0, 9, (5, 5)) / 8, rng.integers(0, 9, (5, 5)) / 8)
        opt, passes = self.passes_of(monkeypatch, inst, 2.25)
        b = 5 * math.log(5)
        expected = [(b, b / 8)] + [(b / 8**k,) for k in range(2, 13)] + [(0.0,)]
        assert passes == expected
        assert opt.lambda_star == 0.0
        assert opt.full_evaluations == 14

    def test_a_start_below_the_floor_scans_b_and_zero(self, monkeypatch):
        # A hint below 1e-10 puts a below the floor, so a starts at 0, and
        # the first pass scans b and 0. Weights x1e-12 put lambda* at about
        # 4e-13 on this instance, three steps of 8 above the hint x1.5.
        monkeypatch.setattr(dual_module, "lambda_hint", lambda n, c0, s: 1e-15)
        base = generate(600, 1.0, 2)
        inst = from_arrays(base.weights * 1e-12, base.costs)
        opt, passes = self.passes_of(monkeypatch, inst, math.sqrt(600))
        b = 1e-15 * dual_module._HINT_MARGIN
        assert passes == [(b, 0.0), (8 * b, b), (64 * b, 8 * b), (512 * b, 64 * b)]
        assert 64 * b < opt.lambda_star < 512 * b
        assert opt.full_evaluations == 8

    def test_zero_and_the_hint_bracket_lambda_star(self, monkeypatch):
        # A floor of 1 puts a = hint/1.5 below it, so a starts at 0; b is
        # 1.5 times the hint, above lambda*, so [0, b] is the bracket, found
        # in one pass, and the answer is the reference's.
        monkeypatch.setattr(dual_module, "_BRACKET_FLOOR", 1.0)
        inst = generate(600, 1.0, 2)
        c0 = math.sqrt(600)
        opt, passes = self.passes_of(monkeypatch, inst, c0)
        b = 1.5 * lambda_hint(600, c0)
        assert passes == [(b, 0.0)]
        assert 0.0 < opt.lambda_star < b
        assert opt.full_evaluations == 2
        TestReplayEquality().assert_matches_reference(inst, c0)


def _serial_full(evaluate, lam, minima_above=None):
    """Reference: ``_PhiEvaluator.full`` as it was before passes ran in row
    chunks and at both bracket ends at once, one serial scan through one
    buffer. Kept verbatim apart from names, the returned tuple and the row
    stride, now always 1."""
    inst = evaluate.instance
    n = inst.n
    block = np.empty((min(n, _ROW_BLOCK), n))
    f = np.empty(n, dtype=np.intp)
    minima = np.empty(n)
    found = []
    for r0 in range(0, n, _ROW_BLOCK):
        rows = slice(r0, min(r0 + _ROW_BLOCK, n))
        costs = inst.costs[rows]
        scores = block[: len(costs)]
        with np.errstate(invalid="ignore"):
            np.multiply(costs, lam, out=scores)
        scores += inst.weights[rows]
        scores.reshape(-1)[r0 :: n + 1] = np.inf
        r1 = r0 + len(scores)
        _row_minima(scores, f[r0:r1], minima[r0:r1])
        if minima_above is not None:
            mask = scores <= minima_above[r0:r1, None]
            found.append(mask.reshape(-1).nonzero()[0] + r0 * n)
    rows = np.arange(n)
    weight = float(inst.weights[rows, f].sum())
    cost = float(inst.costs[rows, f].sum())
    return f, weight, cost, minima, (np.concatenate(found) if found else None)


def _thread_the_passes(monkeypatch, cpus):
    """Run every dual pass in min(cpus, rows // _ROW_BLOCK) row chunks."""
    monkeypatch.setattr(instance_module, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(dual_module, "_THREADED_MIN_ENTRIES", 0)


class TestThreadedPasses:
    """The pass at both bracket ends, in any number of row chunks, is the
    serial full(b) followed by full(a, minima_b) bit for bit."""

    @staticmethod
    def assert_evaluation(e, reference, lam):
        f, weight, cost, _, _ = reference
        assert e.lam == lam
        assert e.argmin.f.tolist() == f.tolist()
        assert (e.argmin.weight.hex(), e.argmin.cost.hex()) == (weight.hex(), cost.hex())

    @pytest.mark.parametrize("n", [2, 5, 33, 600, 2100])
    def test_equals_the_serial_passes(self, n, monkeypatch):
        inst = generate(n, 0.6, 3)
        scans = []
        shipped = dual_module._PhiEvaluator._scan

        def spy(self, t0, t1, *args):
            scans.append((t0, t1))
            return shipped(self, t0, t1, *args)

        monkeypatch.setattr(dual_module._PhiEvaluator, "_scan", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 3, 7):
                _thread_the_passes(monkeypatch, cpus)
                evaluate = dual_module._PhiEvaluator(inst, 1.0)
                for a, b in ((0.0, 0.5), (0.5, 2.0), (3.0, 3.0), (1e-3, 1e3)):
                    ref_b = _serial_full(evaluate, b)
                    ref_a = _serial_full(evaluate, a, ref_b[3])
                    scans.clear()
                    (e_b, e_a), (minima_b, minima_a), found = evaluate._pass((b, a), None)
                    assert len(scans) == max(1, min(cpus, n // _ROW_BLOCK)), (n, cpus)
                    self.assert_evaluation(e_b, ref_b, b)
                    self.assert_evaluation(e_a, ref_a, a)
                    assert minima_b.tobytes() == ref_b[3].tobytes()
                    assert minima_a.tobytes() == ref_a[3].tobytes()
                    assert found.tolist() == ref_a[4].tolist(), (n, cpus, a, b)
                    # a single evaluation, with and without collection
                    [e], [minima], found = evaluate._pass((a,), ref_b[3])
                    self.assert_evaluation(e, ref_a, a)
                    assert minima.tobytes() == ref_a[3].tobytes()
                    assert found.tolist() == ref_a[4].tolist()
                    [e], [minima], found = evaluate._pass((b,), None)
                    self.assert_evaluation(e, ref_b, b)
                    assert minima.tobytes() == ref_b[3].tobytes() and found is None
        finally:
            sys.setswitchinterval(interval)

    def test_a_threaded_pass_at_zero_warns_nothing(self, monkeypatch):
        # lam=0 turns the inf diagonal into nan on every chunk's thread,
        # and numpy's error state does not pass from the caller to them
        monkeypatch.setattr(instance_module, "_cpu_count", lambda: 2)
        inst = generate(2100, 1.0, 4)
        assert 2100 * 2100 >= dual_module._THREADED_MIN_ENTRIES
        scans = []
        shipped = dual_module._PhiEvaluator._scan

        def spy(self, *args):
            scans.append(threading.current_thread() is threading.main_thread())
            return shipped(self, *args)

        monkeypatch.setattr(dual_module._PhiEvaluator, "_scan", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi(inst, 0.0, min_cost_sum(inst))
        assert scans == [False, False]

    def test_dual_is_the_same_in_any_chunk_count(self, monkeypatch):
        inst = generate(2100, 1.0, 4)
        c0s = (math.sqrt(2100), 3.0, min_cost_sum(inst))
        serial = [maximize_dual(inst, c0) for c0 in c0s]
        for cpus in (2, 3, 7):
            _thread_the_passes(monkeypatch, cpus)
            for c0, expected in zip(c0s, serial):
                opt = maximize_dual(inst, c0)
                assert opt.lambda_star.hex() == expected.lambda_star.hex()
                assert opt.phi_star.hex() == expected.phi_star.hex()
                assert _bits(opt.mapping_low) == _bits(expected.mapping_low)
                assert _bits(opt.mapping_high) == _bits(expected.mapping_high)
                assert (
                    opt.full_evaluations, opt.candidate_evaluations, opt.candidate_width
                ) == (
                    expected.full_evaluations, expected.candidate_evaluations,
                    expected.candidate_width,
                )

    def test_no_thread_outlives_a_call(self, monkeypatch):
        # Both the draw and the dual's passes run on threads here, and every
        # thread has ended when the call returns.
        _thread_the_passes(monkeypatch, 2)
        workers = set()
        shipped = dual_module._PhiEvaluator._scan

        def spy(self, *args):
            workers.add(threading.current_thread() is not threading.main_thread())
            return shipped(self, *args)

        monkeypatch.setattr(dual_module._PhiEvaluator, "_scan", spy)
        before = threading.active_count()
        inst = generate(instance_module._THREADED_MIN_N, 1.0, 5)
        assert threading.active_count() == before
        maximize_dual(inst, math.sqrt(inst.n))
        assert threading.active_count() == before
        assert True in workers

    def test_forked_workers_after_threaded_passes(self, monkeypatch):
        # The passes' pools are gone when they return, so a worker forked
        # after threaded passes still solves; the report is the serial one
        _thread_the_passes(monkeypatch, 2)
        maximize_dual(generate(600, 1.0, 0), math.sqrt(600))
        config = dict(n=600, s=1.0, trials=3, base_seed=5, budget=BudgetSpec("power", 0.5))
        serial = run_experiment(ExperimentConfig(**config, parallelism=1))
        forked = run_experiment(ExperimentConfig(**config, parallelism=2))
        assert forked.to_json() == serial.to_json()


def _solved(make, c0):
    """maximize_dual and the pipeline at c0, each on a fresh instance from
    ``make``: every value they report, as bits, or the error's type and text."""
    out = []
    for solve in (maximize_dual, solve_constrained_arborescence):
        try:
            result = solve(make(), c0)
        except CostarbError as exc:
            out.append((type(exc).__name__, str(exc)))
        else:
            if solve is maximize_dual:
                out.append((
                    result.lambda_star.hex(), result.phi_star.hex(),
                    _bits(result.mapping_low), _bits(result.mapping_high),
                    result.full_evaluations, result.candidate_evaluations,
                    result.candidate_width,
                ))
            else:
                arb = result.arborescence
                trace = {k: v.hex() if isinstance(v, float) else v for k, v in result.trace.items()}
                out.append((
                    arb.root, arb.parent.tolist(), arb.weight.hex(), arb.cost.hex(),
                    result.lower_bound.hex(), trace,
                ))
    return out


class TestStreamedTrials:
    """A generated instance, drawn inside the dual's first pass, gives the
    bits that its dense copy gives, in any number of row chunks."""

    @staticmethod
    def assert_streamed_is_dense(monkeypatch, n, s, seed, c0s):
        drawn = generate(n, s, seed)
        weights, costs = drawn.weights.copy(), drawn.costs.copy()
        dense = [_solved(lambda: from_arrays(weights, costs, s, seed), c0) for c0 in c0s]
        for cpus in (1, 2, 3, 7):
            _thread_the_passes(monkeypatch, cpus)
            for c0, expected in zip(c0s, dense):
                assert _solved(lambda: generate(n, s, seed), c0) == expected, (n, s, c0, cpus)

    @pytest.mark.parametrize("s", [1.0, 0.6])
    @pytest.mark.parametrize("n", [2, 5, 255, 256, 600, 2100])
    def test_budget_grid(self, n, s, monkeypatch):
        # sqrt(n) and 0.6n, the cheapest budget, and 1.02 times it, where
        # the hint misses and a second pass stores the matrices
        cheapest = min_cost_sum(generate(n, s, 3))
        c0s = (math.sqrt(n), 0.6 * n, cheapest, 1.02 * cheapest)
        self.assert_streamed_is_dense(monkeypatch, n, s, 3, c0s)

    def test_s_below_one_inside_and_outside_the_paper_band(self, monkeypatch):
        # c0 = n**0.7 lies in predict's s < 1 band, where the first pass
        # scans the hinted ends; 0.6n lies above it, where the instance is
        # stored before the first pass; at 0.9n the budget is slack and the
        # first pass only draws
        c0s = (600**0.7, 0.6 * 600, 0.9 * 600)
        self.assert_streamed_is_dense(monkeypatch, 600, 0.6, 3, c0s)

    def test_no_hint_infeasible_and_fallback(self, monkeypatch):
        # s = 1 and c0 = 1 give no hint; half the cheapest budget fits no
        # mapping; trial 2 of test_fallback_trial_report's config runs
        # the Edmonds fallback
        self.assert_streamed_is_dense(monkeypatch, 600, 1.0, 3, (1.0,))
        cheapest = min_cost_sum(generate(600, 0.6, 3))
        self.assert_streamed_is_dense(monkeypatch, 600, 0.6, 3, (0.5 * cheapest,))
        seed = derive_trial_seed(3, 2)
        assert _solved(lambda: generate(300, 1.0, seed), 2.0)[1][-1]["edmonds_calls"] > 0
        self.assert_streamed_is_dense(monkeypatch, 300, 1.0, seed, (2.0,))

    def test_threads_sharing_an_instance(self):
        # one thread's pass draws the instance; the others wait for it and
        # then store the matrices, and every thread reports the same bits
        inst = generate(700, 1.0, 5)
        c0 = math.sqrt(700)
        expected = _solved(lambda: generate(700, 1.0, 5), c0)
        barrier = threading.Barrier(3)

        def solve(_):
            barrier.wait()
            return _solved(lambda: inst, c0)

        with ThreadPoolExecutor(max_workers=3) as pool:
            assert list(pool.map(solve, range(3))) == [expected] * 3
