from __future__ import annotations

import random

import pytest

from golden import TABLE_R123, assert_valid_report_dict, corrupt_check
from hfib import ONE, CheckResult, Poly, SuiteReport, convolved_table, report_to_dict, run_suite, verify

CHECK_IDS = sorted(dict(verify._CHECKS))


def first_instance(check_id):
    """The first (description, lhs, rhs) of a check at the smallest
    bounds run_suite accepts, or None if it yields nothing there."""
    generate = dict(verify._CHECKS)[check_id]
    return next(generate(1, 2, random.Random(f"0:{check_id}")), None)


def test_default_suite_passes():
    report = run_suite()
    assert report.all_passed
    assert all(r.passed and r.counterexample is None for r in report.results)
    assert report.bounds == {"r_max": 5, "n_max": 30, "seed": 0}


def test_minimal_bounds_pass():
    report = run_suite(r_max=1, n_max=2, seed=0)
    assert report.all_passed
    assert [r.check_id for r in report.results] == CHECK_IDS


def test_mid_bounds_pass():
    assert run_suite(r_max=3, n_max=10, seed=0).all_passed


def test_every_check_appears_exactly_once_sorted():
    report = run_suite(r_max=2, n_max=4)
    ids = [r.check_id for r in report.results]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    assert ids == CHECK_IDS


def test_deterministic_modulo_elapsed():
    a = run_suite(r_max=2, n_max=5, seed=3)
    b = run_suite(r_max=2, n_max=5, seed=3)
    strip = lambda rep: [(r.check_id, r.params, r.passed, r.counterexample) for r in rep.results]
    assert strip(a) == strip(b)
    assert a.all_passed == b.all_passed


def test_corruption_hook_produces_counterexample(monkeypatch):
    corrupt_check(monkeypatch, "five_way")
    report = run_suite(r_max=2, n_max=4, seed=0)
    assert not report.all_passed
    failed = [r for r in report.results if not r.passed]
    assert [r.check_id for r in failed] == ["five_way"]
    assert failed[0].counterexample is not None
    assert "lhs" in failed[0].counterexample and "rhs" in failed[0].counterexample
    others = [r for r in report.results if r.check_id != "five_way"]
    assert all(r.passed for r in others), "one corrupted check must not stop the rest"


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_corruption_hook_fails_every_check(monkeypatch, check_id):
    first = first_instance(check_id)
    assert first is not None, "check yields nothing at the smallest bounds"
    first_desc = first[0]
    corrupt_check(monkeypatch, check_id)
    report = run_suite(r_max=1, n_max=2, seed=0)
    failed = [r for r in report.results if not r.passed]
    assert [r.check_id for r in failed] == [check_id]
    assert failed[0].counterexample.startswith(f"{first_desc}: lhs = ")
    assert " ; rhs = " in failed[0].counterexample


def test_ring_axioms_catch_a_wrong_power_base(monkeypatch):
    # Poly._one seeds every Poly power; at 2 each p ** k doubles, and
    # both sides of the decomposition check scale alike
    monkeypatch.setattr(Poly, "_one", 2)
    report = run_suite(r_max=1, n_max=2)
    ring = next(r for r in report.results if r.check_id == "ring_axioms")
    assert not ring.passed
    assert " pow: " in ring.counterexample


@pytest.mark.parametrize("yield_first", [False, True], ids=["at_start", "after_one"])
def test_check_that_raises_fails_and_the_suite_runs_on(monkeypatch, yield_first):
    def exploding(r_max, n_max, rng):
        if yield_first:
            yield "first", ONE, ONE
        raise ZeroDivisionError("boom")

    checks = tuple(
        (check_id, exploding if check_id == "binet" else generate)
        for check_id, generate in verify._CHECKS
    )
    monkeypatch.setattr(verify, "_CHECKS", checks)
    report = run_suite(r_max=1, n_max=2)
    assert [r.check_id for r in report.results] == CHECK_IDS
    assert not report.all_passed
    failed = [r for r in report.results if not r.passed]
    assert [r.check_id for r in failed] == ["binet"]
    assert failed[0].counterexample == "ZeroDivisionError: boom"
    assert failed[0].params == {"r_max": 1, "n_max": 2}
    assert_valid_report_dict(report_to_dict(report))


def test_report_dict_schema():
    report = run_suite(r_max=1, n_max=2)
    obj = report_to_dict(report)
    assert_valid_report_dict(obj)


def test_records_are_immutable_with_fields_in_order():
    assert CheckResult._fields == ("check_id", "params", "passed", "counterexample", "elapsed_ms")
    assert SuiteReport._fields == ("results", "all_passed", "bounds")
    report = run_suite(r_max=1, n_max=2)
    for record, field in [(report, "all_passed"), (report.results[0], "passed"), (report, "extra")]:
        with pytest.raises(AttributeError):
            setattr(record, field, False)


def test_report_dict_failure_carries_counterexample(monkeypatch):
    corrupt_check(monkeypatch, "binet")
    report = run_suite(r_max=1, n_max=2)
    obj = report_to_dict(report)
    assert_valid_report_dict(obj)
    entry = next(e for e in obj["results"] if e["check_id"] == "binet")
    assert entry["passed"] is False
    assert "counterexample" in entry


def test_bounds_validation():
    with pytest.raises(ValueError):
        run_suite(r_max=0)
    with pytest.raises(ValueError):
        run_suite(n_max=1)
    with pytest.raises(ValueError):
        run_suite(seed=-1)


@pytest.mark.parametrize(
    "bounds",
    [(2.5, 4), (2, 4.0), (2, 4, 1.5), (True, 4), (2, True), (2, 4, False), ("2", 4), (2, 4, None)],
)
def test_bounds_and_seed_must_be_ints_not_bools(monkeypatch, bounds):
    def no_check(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_run_check", no_check)
    with pytest.raises(ValueError, match="must be an int"):
        run_suite(*bounds)


def test_convolved_table_matches_frozen_table():
    rows = convolved_table([1, 2, 3], 8)
    assert len(rows) == 9
    rendered = [[str(p) for p in row] for row in rows]
    assert rendered == TABLE_R123


def test_convolved_table_zero_row_convention():
    rows = convolved_table([1], 1)
    assert [str(p) for row in rows for p in row] == ["0", "1"]
    assert rows[0][0] == Poly()


def test_convolved_table_specialized_column():
    rows = convolved_table([2], 4)
    assert [row[0](1) for row in rows] == [0, 1, 2, 5, 10]


def test_convolved_table_validation():
    with pytest.raises(ValueError):
        convolved_table([0], 3)
    with pytest.raises(ValueError):
        convolved_table([1], -1)
