from __future__ import annotations

import ast
import inspect
import random
from itertools import islice
from pathlib import Path

import pytest

import hfib
from golden import assert_valid_report_dict, corrupt_check
from hfib import (
    H, ONE, ZERO, CheckResult, Poly, QuadExt, Series, SuiteReport, TPoly, binom, report_to_dict,
    run_suite, verify,
)
from hfib.poly import Dense

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


def test_check_ids_are_the_benchmarks():
    # perfbench/run.py reports verify.<check_id>_ms for each of its
    # CHECK_IDS, and a check it names that verify does not is a null metric
    run_py = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    assigned = {
        target.id: node.value
        for node in ast.parse(run_py.read_text()).body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    assert sorted(ast.literal_eval(assigned["CHECK_IDS"])) == CHECK_IDS


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


def randint_poly(rng, max_degree, max_coeff):
    """_random_poly as rng.randint draws it: the formulation its
    getrandbits draws must equal value for value.
    """
    degree = rng.randint(0, max_degree)
    return Poly([rng.randint(-max_coeff, max_coeff) for _ in range(degree + 1)])


@pytest.mark.parametrize("max_degree, max_coeff", [(12, 10**6), (0, 3), (1, 3)])
def test_random_poly_draws_as_randint_draws(max_degree, max_coeff):
    for seed in range(5):
        ours, reference = random.Random(seed), random.Random(seed)
        for _ in range(400):
            assert verify._random_poly(ours, max_degree, max_coeff) == randint_poly(reference, max_degree, max_coeff)
        assert ours.getstate() == reference.getstate()


def test_hessenberg_recurrence_draws_only_the_cells_it_reads(monkeypatch):
    # a case of order n draws its n(n+1)/2 weights on and above the diagonal, no more
    calls = []
    draw = verify._random_poly

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(verify, "_random_poly", counted)
    generate = dict(verify._CHECKS)["hessenberg_recurrence"]
    for desc, _, _ in islice(generate(8, 60, random.Random("0:hessenberg_recurrence")), 30):
        n = int(desc.split()[1][len("n="):])
        assert len(calls) == n * (n + 1) // 2, desc
        calls.clear()


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


# Each exported callable that takes a size or another int argument,
# named as in hfib.__all__ (a method as Class.method): arguments it
# accepts, and for each such parameter its least value and its largest
# (None for no end).
SIZED = {
    "binet_scaled": ({"n": 2}, {"n": (0, None)}),
    "binom": ({"n": 5, "k": 2}, {"n": (None, None), "k": (None, None)}),
    "build_fib_matrix": ({"n": 2}, {"n": (1, None)}),
    "char_poly": ({"n": 2}, {"n": (1, None)}),
    "charpoly_shift_sides": ({"n": 2}, {"n": (1, None)}),
    "convolved_closed_form": ({"r": 2, "j": 2}, {"r": (1, None), "j": (0, None)}),
    "convolved_convolution": ({"r": 2, "m": 2}, {"r": (1, None), "m": (0, None)}),
    "convolved_recurrence": ({"r": 2, "n": 2}, {"r": (1, None), "n": (0, None)}),
    "convolved_series": ({"r": 2, "n_terms": 2}, {"r": (1, None), "n_terms": (1, None)}),
    "derivative_identity_sides": ({"r": 2, "n": 2}, {"r": (1, None), "n": (1, None)}),
    "fib": ({"n": 2}, {"n": (0, None)}),
    "lucas": ({"n": 2}, {"n": (0, None)}),
    "lucas_decomposition_sides": ({"r": 2, "j": 2}, {"r": (1, None), "j": (0, None)}),
    "minor_sum_closed_form": ({"n": 3, "l": 1}, {"n": (1, None), "l": (0, 3)}),
    "principal_minor": ({"n": 3, "deleted": [2]}, {"n": (1, None)}),
    "run_suite": ({"r_max": 1, "n_max": 2, "seed": 0}, {"r_max": (1, None), "n_max": (2, None), "seed": (0, None)}),
    "sum_principal_minors": ({"n": 3, "l": 1}, {"n": (1, None), "l": (0, 3)}),
    "Series": ({"coeffs": [ONE], "order": 2}, {"order": (1, None)}),
    "Poly.__pow__": ({"k": 2}, {"k": (0, None)}),
    "TPoly.__pow__": ({"k": 2}, {"k": (0, None)}),
    "QuadExt.__pow__": ({"k": 2}, {"k": (0, None)}),
    "Series.__pow__": ({"k": -2}, {"k": (None, None)}),
    "TPoly.coefficient": ({"power": 1}, {"power": (None, None)}),
}

SIZE_PARAMETERS = {
    "n", "m", "j", "l", "r", "k", "n_terms", "order", "r_max", "n_max", "seed", "power",
}

UNITS = {"Poly": ONE, "TPoly": TPoly([ONE]), "QuadExt": QuadExt(ONE, ZERO), "Series": Series([ONE], 2)}


def sized_callable(name):
    owner, _, method = name.partition(".")
    return getattr(UNITS[owner], method) if method else getattr(hfib, name)


def bad_sizes():
    for name, (_, sizes) in SIZED.items():
        for parameter, (least, most) in sizes.items():
            wrong = [2.5, True, "3"] + ([] if least is None else [least - 1]) + ([] if most is None else [most + 1])
            for value in wrong:
                yield pytest.param(name, parameter, value, id=f"{name}-{parameter}={value!r}")


@pytest.mark.parametrize("name", sorted(SIZED))
def test_sized_table_arguments_are_accepted(name):
    sized_callable(name)(**SIZED[name][0])


@pytest.mark.parametrize("name, parameter, value", bad_sizes())
def test_every_export_refuses_a_size_before_any_work(monkeypatch, name, parameter, value):
    def no_product(*args):
        raise AssertionError("a product ran")

    monkeypatch.setattr(Dense, "__mul__", no_product)
    monkeypatch.setattr(Dense, "__rmul__", no_product)
    arguments = dict(SIZED[name][0], **{parameter: value})
    with pytest.raises(ValueError, match=f"^{parameter} must be an int"):
        sized_callable(name)(**arguments)


def test_every_export_that_takes_a_size_is_in_the_table():
    found = set()
    for name in hfib.__all__:
        value = getattr(hfib, name)
        if isinstance(value, type) and hasattr(value, "__pow__"):
            found.add(f"{name}.__pow__")
        if isinstance(value, type) and not issubclass(value, Exception):
            for method in vars(value):  # its own methods, not inherited ones
                function = getattr(value, method)
                if callable(function) and not method.startswith("_"):
                    if SIZE_PARAMETERS & set(inspect.signature(function).parameters):
                        found.add(f"{name}.{method}")
        if callable(value) and not (isinstance(value, type) and issubclass(value, Exception)):
            if SIZE_PARAMETERS & set(inspect.signature(value).parameters):
                found.add(name)
    assert found == set(SIZED)


def test_unbounded_int_arguments_keep_their_int_results():
    # binom is 0 outside 0 <= k <= n, a coefficient past the stored
    # range is ZERO, and a Series takes a negative power
    assert [binom(-3, -1), binom(-3, 2), binom(3, 5), binom(3, -1), binom(5, 2)] == [0, 0, 0, 0, 10]
    cp = TPoly([ONE, H])
    assert [cp.coefficient(power) for power in (-1, 0, 1, 2, 10**30)] == [ZERO, ONE, H, ZERO, ZERO]
    assert Series([ONE, H], 3) ** -2 == Series([ONE, -2 * H, 3 * H**2], 3)
    assert Series([ONE, H], 3) ** 0 == Series([ONE], 3)

