import copy
import hashlib
import math
import pickle
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costarb import (
    BudgetSpec,
    ExperimentConfig,
    InstanceFormatError,
    edmonds,
    export_csv,
    from_arrays,
    generate,
    load,
    run_experiment,
    run_expectation_check,
    phi,
    save,
    solve_constrained_arborescence,
)
from costarb import instance as instance_module
from costarb.instance import _HEADER, _MAGIC, _THREADED_MIN_N, _VERSION

# PCG64's output and its jump-ahead are algorithmically pinned, so the
# exact bytes are stable across platforms and numpy versions.
_FROZEN_DIGEST = "e7c2d0858bbfe30c9b8b35fe85df875e109f927c0ba0f908390588874fa291a5"


def _single_stream(n, seed):
    """Reference: both n x n uniforms drawn in one pass over the seed's
    PCG64 stream, as if generate drew all rows in one chunk."""
    gen = np.random.Generator(np.random.PCG64(seed & ((1 << 64) - 1)))
    u_weights = gen.random((n, n))
    u_costs = gen.random((n, n))
    return u_weights, u_costs


def _reference_matrices(n, s, seed):
    matrices = _single_stream(n, seed)
    for u in matrices:
        if s != 1.0:
            np.power(u, s, out=u)
        np.fill_diagonal(u, np.inf)
    return matrices


def _force_cpus(monkeypatch, count):
    """Make generate see ``count`` CPUs, and so draw that many chunks."""
    monkeypatch.setattr(
        instance_module.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


def test_small_instance_entries_in_open_unit_interval():
    inst = generate(3, 1.0, 42)
    off = ~np.eye(3, dtype=bool)
    for mat in (inst.weights, inst.costs):
        assert np.all(mat[off] > 0.0)
        assert np.all(mat[off] < 1.0)
        assert np.all(np.isinf(np.diag(mat)))


def test_n2_has_exactly_two_edges():
    inst = generate(2, 1.0, 123)
    assert np.isfinite(inst.weights[0, 1]) and np.isfinite(inst.weights[1, 0])
    assert np.isinf(inst.weights[0, 0]) and np.isinf(inst.weights[1, 1])


def test_sample_mean_matches_power_law_moment():
    # E[U**s] = 1/(s+1)
    inst = generate(10_000, 0.5, 7)
    off = ~np.eye(inst.n, dtype=bool)
    assert abs(inst.weights[off].mean() - 2.0 / 3.0) < 0.01
    assert abs(inst.costs[off].mean() - 2.0 / 3.0) < 0.01


def test_generation_is_bit_reproducible():
    a = generate(5, 1.0, 42)
    b = generate(5, 1.0, 42)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.costs, b.costs)
    digest = hashlib.sha256(a.weights.tobytes() + a.costs.tobytes()).hexdigest()
    assert digest == _FROZEN_DIGEST


@pytest.mark.parametrize("s", [1.0, 0.6])
def test_generation_is_the_power_of_the_uniforms(s):
    u_weights, u_costs = _single_stream(50, 3)
    inst = generate(50, s, 3)
    for u, mat in ((u_weights, inst.weights), (u_costs, inst.costs)):
        expected = np.power(u, s)
        np.fill_diagonal(expected, np.inf)
        assert np.array_equal(mat, expected)


def test_distinct_seeds_differ():
    a = generate(4, 1.0, 1)
    b = generate(4, 1.0, 2)
    assert not np.array_equal(a.weights, b.weights)


# Pairs that a seed rounded to float64 would merge into one stream.
_ROUNDED_PAIRS = [(2**63 + 5, 2**63 + 6), (2**64 - 1, 0)]


@pytest.mark.parametrize("a,b", _ROUNDED_PAIRS)
def test_distinct_high_seeds_differ(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the cast of 2**64 - 1
        assert not np.array_equal(generate(4, 1.0, a).weights, generate(4, 1.0, b).weights)


@pytest.mark.parametrize("a,b", _ROUNDED_PAIRS)
def test_distinct_high_seeds_differ_in_the_expectation_check(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        means = [run_expectation_check(10, 0.1, 1.0, 100, seed).empirical_mean
                 for seed in (a, b)]
    assert means[0] != means[1]


def test_high_seeds_and_zero_give_four_instances():
    seeds = [a for pair in _ROUNDED_PAIRS for a in pair]
    draws = {generate(4, 1.0, seed).weights.tobytes() for seed in seeds}
    assert len(draws) == len(seeds)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        generate(1, 1.0, 0)
    with pytest.raises(ValueError):
        generate(3, 0.0, 0)
    with pytest.raises(ValueError):
        generate(3, 1.5, 0)
    with pytest.raises(ValueError, match="matching square matrices"):
        from_arrays(np.zeros((3, 3)), np.zeros((2, 2)))


def test_uniform_marginals_kolmogorov_distance():
    inst = generate(2000, 1.0, 11)
    sample = np.sort(inst.weights[~np.eye(2000, dtype=bool)])
    m = len(sample)
    grid_hi = np.arange(1, m + 1) / m
    grid_lo = np.arange(0, m) / m
    ks = max(np.abs(grid_hi - sample).max(), np.abs(grid_lo - sample).max())
    assert ks < 0.02


@pytest.mark.parametrize("s,expected", [(0.5, math.gamma(1.5)), (1.0, 1.0)])
def test_per_vertex_minimum_law(s, expected):
    # mean_i min_j W[i,j] scaled by n**s approaches Gamma(s+1)
    n = 10_000
    inst = generate(n, s, 5)
    scaled = inst.weights.min(axis=1).mean() * n**s
    assert abs(scaled - expected) / expected < 0.05


def test_instances_are_immutable():
    inst = generate(3, 1.0, 0)
    with pytest.raises(ValueError):
        inst.weights[0, 1] = 0.5


class TestGenerationGate:
    """generate equals one pass over the stream bit for bit, whatever the
    number of row chunks it draws in parallel."""

    @pytest.mark.parametrize("s", [1.0, 0.6, 0.3])
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 33, 511, 512, 513, 1001, 2999])
    def test_equals_the_single_stream(self, n, s, monkeypatch):
        weights, costs = _reference_matrices(n, s, 2024)
        # more chunks than cores, switching threads as often as it can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 3, 7):
                _force_cpus(monkeypatch, cpus)
                inst = generate(n, s, 2024)
                assert inst.weights.tobytes() == weights.tobytes(), (n, s, cpus)
                assert inst.costs.tobytes() == costs.tobytes(), (n, s, cpus)
                TestCheapestCosts.assert_row_minima(inst)
        finally:
            sys.setswitchinterval(interval)

    def test_the_threshold_lies_inside_the_sizes_checked(self):
        assert 7 < _THREADED_MIN_N <= 2999

    def test_forked_workers_after_a_threaded_draw(self, monkeypatch):
        # generate's pool is gone when it returns, so a worker forked after
        # a threaded draw still draws; the report is the serial one
        _force_cpus(monkeypatch, 2)
        generate(_THREADED_MIN_N, 1.0, 0)
        config = dict(
            n=_THREADED_MIN_N + 88, s=1.0, trials=3, base_seed=5, budget=BudgetSpec("power", 0.5)
        )
        serial = run_experiment(ExperimentConfig(**config, parallelism=1))
        forked = run_experiment(ExperimentConfig(**config, parallelism=2))
        assert forked.to_json() == serial.to_json()


class TestCheapestCosts:
    @pytest.mark.parametrize("n,s,seed", [(2, 1.0, 0), (33, 1.0, 1), (100, 0.6, 2), (700, 1.0, 3)])
    def test_random_instances(self, n, s, seed):
        self.assert_row_minima(generate(n, s, seed))

    @pytest.mark.parametrize("n", [3, 6, 40])
    def test_ties_on_a_grid_of_eighths(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            self.assert_row_minima(
                from_arrays(rng.integers(0, 9, (n, n)) / 8, rng.integers(0, 9, (n, n)) / 8)
            )

    @pytest.mark.parametrize("n", [2, 40, 700])
    def test_loaded_instances(self, n, tmp_path):
        rng = np.random.default_rng(n)
        inst = from_arrays(rng.integers(0, 9, (n, n)) / 8, rng.random((n, n)), s=0.5, seed=n)
        save(inst, tmp_path / "inst.carb")
        self.assert_row_minima(load(tmp_path / "inst.carb"))

    @staticmethod
    def assert_row_minima(inst):
        for matrix, (cols, values) in (
            (inst.weights, inst.cheapest_weights), (inst.costs, inst.cheapest_costs)
        ):
            # first occurrence: ties go to the smallest column
            assert cols.tolist() == np.argmin(matrix, axis=1).tolist()
            assert values.tobytes() == matrix.min(axis=1).tobytes()

    def test_computed_once_and_read_only(self):
        inst = generate(5, 1.0, 0)
        assert inst.cheapest_costs is inst.cheapest_costs
        for a in (*inst.cheapest_weights, *inst.cheapest_costs):
            with pytest.raises(ValueError):
                a[0] = 0


class TestSaveLoad:
    def test_round_trip_is_bit_identical(self, tmp_path):
        inst = generate(7, 0.6, 99)
        path = tmp_path / "inst.carb"
        save(inst, path)
        back = load(path)
        assert back.n == inst.n and back.s == inst.s and back.seed == inst.seed
        assert back.weights.tobytes() == inst.weights.tobytes()
        assert back.costs.tobytes() == inst.costs.tobytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.carb"
        path.write_bytes(b"")
        with pytest.raises(InstanceFormatError):
            load(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        inst = generate(3, 1.0, 1)
        path = tmp_path / "bad.carb"
        save(inst, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])  # drop two trailing doubles
        with pytest.raises(InstanceFormatError, match="payload"):
            load(path)

    def test_bad_magic_rejected(self, tmp_path):
        inst = generate(3, 1.0, 1)
        path = tmp_path / "bad.carb"
        save(inst, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(InstanceFormatError, match="magic"):
            load(path)
        data[:8] = _HEADER.pack(_MAGIC, _VERSION + 1, 3, 1.0, 1)[:8]
        path.write_bytes(bytes(data))
        with pytest.raises(InstanceFormatError, match=f"unsupported version {_VERSION + 1}"):
            load(path)

    def test_load_holds_no_copy_of_the_file(self, tmp_path):
        # each matrix is read straight into its array: the peak is about
        # the two matrices, where a copy of the file's bytes made it twice that
        n = 500
        save(generate(n, 1.0, 3), tmp_path / "inst.carb")
        tracemalloc.start()
        try:
            load(tmp_path / "inst.carb")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (2 * n * n * 8)

    @given(
        n=st.integers(min_value=2, max_value=8),
        s=st.floats(min_value=0.1, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**63),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, n, s, seed, tmp_path_factory):
        inst = generate(n, s, seed)
        path = tmp_path_factory.mktemp("rt") / "inst.carb"
        save(inst, path)
        back = load(path)
        assert np.array_equal(back.weights, inst.weights)
        assert np.array_equal(back.costs, inst.costs)


def _write_carb(path, weights, costs, s=1.0, seed=0):
    """A .carb file holding the given matrices as they are."""
    w = np.asarray(weights, dtype="<f8")
    c = np.asarray(costs, dtype="<f8")
    header = _HEADER.pack(_MAGIC, _VERSION, w.shape[0], s, seed)
    path.write_bytes(header + w.tobytes() + c.tobytes())
    return path


def _outside_the_model():
    """(weights, costs, s, message) per way an instance can leave the model;
    diagonals hold +inf as save() writes them."""
    base = generate(3, 1.0, 1)
    nan_weight = base.weights.copy()
    nan_weight[0, 1] = np.nan
    inf_cost = base.costs.copy()
    inf_cost[2, 0] = np.inf
    negative_cost = base.costs.copy()
    negative_cost[1, 2] = -0.25
    w, c = base.weights, base.costs
    return [
        pytest.param(nan_weight, c, 1.0, "finite", id="nan-weight"),
        pytest.param(w, inf_cost, 1.0, "finite", id="inf-cost"),
        pytest.param(w, negative_cost, 1.0, "nonnegative", id="negative-cost"),
        pytest.param(w, c, -3.0, "s must", id="s=-3"),
        pytest.param(w, c, 1.5, "s must", id="s=1.5"),
        pytest.param([[np.inf]], [[np.inf]], 1.0, "n must", id="n=1"),
    ]


class TestInputContract:
    @pytest.mark.parametrize("weights, costs, s, message", _outside_the_model())
    def test_from_arrays_rejects(self, weights, costs, s, message):
        with pytest.raises(ValueError, match=message):
            from_arrays(weights, costs, s=s)

    @pytest.mark.parametrize("weights, costs, s, message", _outside_the_model())
    def test_load_rejects(self, weights, costs, s, message, tmp_path):
        path = _write_carb(tmp_path / "bad.carb", weights, costs, s)
        with pytest.raises(InstanceFormatError, match=message):
            load(path)

    def test_load_rejects_a_finite_diagonal(self, tmp_path):
        base = generate(3, 1.0, 1)
        weights = base.weights.copy()
        np.fill_diagonal(weights, 0.0)
        with pytest.raises(InstanceFormatError, match="diagonal"):
            load(_write_carb(tmp_path / "zero.carb", weights, base.costs))

    def test_boundary_values_accepted(self, tmp_path):
        zeros = np.zeros((2, 2))
        inst = from_arrays(zeros, zeros, s=1.0)
        assert inst.weights[0, 1] == 0.0 and np.isinf(inst.weights[0, 0])
        back = load(_write_carb(tmp_path / "zeros.carb", inst.weights, inst.costs, s=1e-9))
        assert back.s == 1e-9 and back.costs[1, 0] == 0.0


def test_csv_export_round_trips_values(tmp_path):
    import csv

    inst = generate(4, 1.0, 21)
    path = tmp_path / "inst.csv"
    export_csv(inst, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 3
    for row in rows:
        i, j = int(row["i"]), int(row["j"])
        assert float(row["weight"]) == inst.weights[i, j]
        assert float(row["cost"]) == inst.costs[i, j]


def _solved(inst, store: bool):
    """``inst`` after a trial has drawn it and, if ``store``, a read has
    stored it."""
    solve_constrained_arborescence(inst, 20.0)
    if store:
        inst.weights
    return inst


def _spy_on_storing(monkeypatch) -> list:
    """The n of every instance whose matrices are stored from now on."""
    stored = []
    shipped = instance_module.Instance._materialize

    def spy(self):
        stored.append(self.n)
        return shipped(self)

    monkeypatch.setattr(instance_module.Instance, "_materialize", spy)
    return stored


def _spy_on_streaming(monkeypatch) -> list:
    """The n of every instance drawn by a scan from now on."""
    streamed = []
    shipped = instance_module.Instance._stream

    def spy(self, *args):
        streamed.append(self.n)
        return shipped(self, *args)

    monkeypatch.setattr(instance_module.Instance, "_stream", spy)
    return streamed


class TestStreamedInstances:
    """A generated instance is drawn inside the dual's first pass; reads
    that need its matrices store them once."""

    @pytest.mark.parametrize("c0", [math.sqrt(3000), 1800.0])
    def test_a_trial_stores_no_matrix(self, c0, monkeypatch):
        stored = _spy_on_storing(monkeypatch)
        tracemalloc.start()
        try:
            solve_constrained_arborescence(generate(3000, 1.0, 1), c0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stored == []
        assert peak < 3000 * 3000 * 8 / 4  # a quarter of one matrix

    def test_reads_that_need_the_matrices_store_them_once(self, monkeypatch, tmp_path):
        stored = _spy_on_storing(monkeypatch)
        inst = generate(600, 1.0, 2)
        solve_constrained_arborescence(inst, math.sqrt(600))
        assert stored == []
        weights = inst.weights
        assert inst.weights is weights and stored == [600]
        inst.costs, inst.cheapest_costs
        assert stored == [600]

        save(generate(40, 1.0, 2), tmp_path / "a.carb")
        assert stored == [600, 40]
        inst = generate(50, 1.0, 2)
        edmonds(inst)
        edmonds(inst, 0.5)
        assert stored == [600, 40, 50]

    def test_threads_store_the_matrices_once(self, monkeypatch):
        stored = _spy_on_storing(monkeypatch)
        inst = generate(700, 1.0, 4)
        barrier = threading.Barrier(4)

        def read(_):
            barrier.wait()
            return inst.weights

        with ThreadPoolExecutor(max_workers=4) as pool:
            arrays = list(pool.map(read, range(4)))
        assert stored == [700]
        assert all(a is arrays[0] for a in arrays)

    def test_where_the_first_ends_seldom_bracket_the_instance_is_stored_first(
        self, monkeypatch
    ):
        # s < 1 outside predict's band, and s = 1 at c0 = 1, where the paper
        # gives no maximiser but the budget binds: a second pass would draw
        # a streamed instance a second time. Inside the band, and where the
        # budget is slack (600/1.6 + sqrt(600) < 0.9 * 600), nothing is stored.
        stored, streamed = _spy_on_storing(monkeypatch), _spy_on_streaming(monkeypatch)
        for s, c0 in ((0.6, 600**0.7), (0.6, 0.9 * 600), (1.0, 0.9 * 600)):
            solve_constrained_arborescence(generate(600, s, 3), c0)
        assert (stored, streamed) == ([], [600] * 3)
        solve_constrained_arborescence(generate(600, 0.6, 3), 0.6 * 600)
        solve_constrained_arborescence(generate(600, 1.0, 4), 1.0)
        assert (stored, streamed) == ([600, 600], [600] * 3)

    def test_below_256_rows_a_trial_stores_the_matrices_first(self, monkeypatch):
        # the dual's first pass has no bracket below 256 rows, so a later
        # pass would draw a streamed instance a second time
        stored, streamed = _spy_on_storing(monkeypatch), _spy_on_streaming(monkeypatch)
        for n in (5, 255, 256):
            solve_constrained_arborescence(generate(n, 1.0, 2), math.sqrt(n))
        assert (stored, streamed) == ([5, 255], [256])

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: generate(300, 0.6, 9), id="to-draw"),
        pytest.param(lambda: _solved(generate(300, 0.6, 9), store=False), id="drawn"),
        pytest.param(lambda: _solved(generate(300, 0.6, 9), store=True), id="stored"),
        pytest.param(lambda: from_arrays(*_reference_matrices(300, 0.6, 9), s=0.6, seed=9),
                     id="from_arrays"),
    ])
    def test_pickles_and_copies_to_the_same_instance(self, make):
        # a process pool pickles its tasks' arguments
        dense = from_arrays(*_reference_matrices(300, 0.6, 9), s=0.6, seed=9)
        expected = solve_constrained_arborescence(dense, 20.0).arborescence.parent.tolist()
        for clone in (pickle.loads(pickle.dumps(make())), copy.deepcopy(make()),
                      copy.copy(make())):
            assert (clone.n, clone.s, clone.seed) == (300, 0.6, 9)
            result = solve_constrained_arborescence(clone, 20.0)
            assert result.arborescence.parent.tolist() == expected
            assert clone.weights.tobytes() == dense.weights.tobytes()
            assert clone.costs.tobytes() == dense.costs.tobytes()
            assert not clone.weights.flags.writeable

    def test_a_gather_of_an_entry_not_kept_stores_the_matrices(self, monkeypatch):
        stored = _spy_on_storing(monkeypatch)
        streamed = generate(300, 0.6, 9)
        dense = from_arrays(*_reference_matrices(300, 0.6, 9), s=0.6, seed=9)
        phi(streamed, 0.5, 1.0)  # keeps each row's cheapest edges only
        cols = np.array([streamed.cheapest_weights[0][4], int(dense.weights[4].argmax())])
        weights, costs = streamed.edges(np.array([4, 4]), cols)
        assert weights.tolist() == dense.weights[4, cols].tolist()
        assert costs.tolist() == dense.costs[4, cols].tolist()
        assert stored == [300]

    def test_n_s_and_seed_are_read_only(self):
        inst = generate(300, 1.0, 1)
        for name in ("n", "s", "seed"):
            with pytest.raises(AttributeError):
                setattr(inst, name, 2)

    def test_a_drawn_row_is_the_stored_row(self, monkeypatch):
        # repair draws the whole rows of the vertices it frees
        stored = _spy_on_storing(monkeypatch)
        streamed = generate(300, 0.6, 9)
        dense = from_arrays(*_reference_matrices(300, 0.6, 9), s=0.6, seed=9)
        phi(streamed, 0.5, 1.0)
        for row in (0, 17, 299, 17):
            weights, costs = streamed.edges(row)
            assert weights.tobytes() == dense.weights[row].tobytes()
            assert costs.tobytes() == dense.costs[row].tobytes()
        cols = np.array([3, 0, 299])
        weights, costs = streamed.edges(np.array([17, 17, 17]), cols)
        assert weights.tolist() == dense.weights[17, cols].tolist()
        assert costs.tolist() == dense.costs[17, cols].tolist()
        assert stored == []
