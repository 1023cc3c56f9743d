"""What the checked-in benchmark reads of the program.

``bench/checks.py`` is loaded from its file, unchanged, so that a rename of
a result field it reads fails here rather than in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from costarb import arborescence, generate, instance, solve_constrained_arborescence

_CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("bench_checks", _CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_self_test_case_holds(checks):
    cases = checks.self_test(instance, arborescence)
    assert cases and all(ok for _, ok in cases), [name for name, ok in cases if not ok]


def test_result_fields_the_bench_reads():
    # bench/run.py and bench/checks.py read the bound and two trace keys;
    # bench/layertrace.py reads cycles_broken on a traced run
    res = solve_constrained_arborescence(generate(64, 1.0, 7), 8.0)
    assert isinstance(res.lower_bound, float)
    assert {"lambda_star", "mapping_weight", "cycles_broken"} <= res.trace.keys()
