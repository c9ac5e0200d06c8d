from __future__ import annotations

import contextlib
import csv
import errno
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from golden import TABLE_R123, assert_valid_report_dict, compose, corrupt_check
from hfib import Poly, convolved_closed_form, minor_sum_closed_form
from hfib.cli import _build_parser, main
from hfib.poly import Dense


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def table_text_entries(stdout):
    lines = stdout.strip().splitlines()
    return [line.split("\t")[1:] for line in lines[1:]]


def test_table_text_matches_frozen_table(capsys):
    code, out, _ = run_cli(capsys, "table", "--r", "1,2,3", "--n-max", "8")
    assert code == 0
    entries = table_text_entries(out)
    assert entries == TABLE_R123


def test_table_default_flags(capsys):
    code, out, _ = run_cli(capsys, "table")
    assert code == 0
    assert table_text_entries(out) == TABLE_R123


def test_table_orders_may_be_spaced(capsys):
    # each order is read without the spaces around it
    code, out, _ = run_cli(capsys, "table", "--r", " 1, 2 ,3", "--n-max", "8")
    assert code == 0
    assert table_text_entries(out) == TABLE_R123


def test_table_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, "table", "--r", "1,2", "--n-max", "6", "--format", "csv")
    _, second, _ = run_cli(capsys, "table", "--r", "1,2", "--n-max", "6", "--format", "csv")
    assert first == second


def test_table_formats_agree_semantically(capsys):
    _, text_out, _ = run_cli(capsys, "table", "--r", "1,2,3", "--n-max", "8")
    text_entries = table_text_entries(text_out)

    _, csv_out, _ = run_cli(capsys, "table", "--r", "1,2,3", "--n-max", "8", "--format", "csv")
    lines = csv_out.strip().splitlines()
    assert lines[0] == "n,r,poly"
    csv_entries = [[None] * 3 for _ in range(9)]
    for line in lines[1:]:
        n, r, poly = line.split(",", 2)
        csv_entries[int(n)][{1: 0, 2: 1, 3: 2}[int(r)]] = poly
    assert csv_entries == text_entries

    _, json_out, _ = run_cli(capsys, "table", "--r", "1,2,3", "--n-max", "8", "--format", "json")
    payload = json.loads(json_out)
    assert payload["r_list"] == [1, 2, 3]
    assert payload["n_max"] == 8
    json_entries = [[str(Poly.from_json(e)) for e in row] for row in payload["rows"]]
    assert json_entries == text_entries

    _, latex_out, _ = run_cli(capsys, "table", "--r", "1,2,3", "--n-max", "8", "--format", "latex")
    latex_entries = []
    for line in latex_out.strip().splitlines():
        assert line.endswith(r" \\")
        cells = line[: -len(r" \\")].split(" & ")
        latex_entries.append([c.strip("$") for c in cells[1:]])
    assert latex_entries == text_entries


def test_table_subst_fibonacci_column(capsys):
    code, out, _ = run_cli(capsys, "table", "--r", "1", "--n-max", "6", "--subst", "1")
    assert code == 0
    assert [row[0] for row in table_text_entries(out)] == ["0", "1", "1", "2", "3", "5", "8"]


def test_table_subst_pell_column(capsys):
    code, out, _ = run_cli(capsys, "table", "--r", "1", "--n-max", "5", "--subst", "2")
    assert code == 0
    assert [row[0] for row in table_text_entries(out)] == ["0", "1", "2", "5", "12", "29"]


def test_table_subst_polynomial_then_at(capsys):
    # substituting h -> h^2 then evaluating at 1 equals evaluating at 1
    code, out, _ = run_cli(
        capsys, "table", "--r", "2", "--n-max", "4", "--subst", "x^2", "--at", "1"
    )
    assert code == 0
    assert [row[0] for row in table_text_entries(out)] == ["0", "1", "2", "5", "10"]


def test_table_zero_row_convention(capsys):
    # row 0 is the zero polynomial in every column, row 1 is 1
    code, out, _ = run_cli(capsys, "table", "--r", "1", "--n-max", "1")
    assert code == 0
    assert table_text_entries(out) == [["0"], ["1"]]
    assert table_json(["--r", "1,5", "--n-max", "0"]) == [[Poly(), Poly()]]


def test_table_specialized_column(capsys):
    # at h = 1 the order-2 column is the Fibonacci self-convolution
    code, out, _ = run_cli(capsys, "table", "--r", "2", "--n-max", "4", "--at", "1")
    assert code == 0
    assert [row[0] for row in table_text_entries(out)] == ["0", "1", "2", "5", "10"]


@pytest.mark.parametrize("option, value", [
    ("--r", "0"), ("--r", "-1"), ("--r", "2.5"), ("--r", "True"), ("--r", ","),
    ("--n-max", "-1"), ("--n-max", "2.5"), ("--n-max", "True"),
])
def test_table_refuses_a_bad_size_before_any_work(capsys, monkeypatch, option, value):
    def no_product(*_):
        raise AssertionError("a product was made before the size was refused")

    monkeypatch.setattr(Dense, "__mul__", no_product)
    monkeypatch.setattr(Dense, "__rmul__", no_product)
    code, out, err = run_cli(capsys, "table", f"{option}={value}")
    assert code == 2
    assert out == ""
    assert f"argument {option}: " in err.splitlines()[-1]


def table_json(argv):
    """The entries of `hfib table argv --format json`, run in process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["table", *argv, "--format", "json"]) == 0
    return [[Poly.from_json(e) for e in row] for row in json.loads(buf.getvalue())["rows"]]


def closed_form_rows(r_list, n_max):
    """Rows 0..n_max of the table, one column per r: row 0 is zero and
    row n holds coefficient n - 1 of each generating function power."""
    return [[convolved_closed_form(r, n - 1) if n else Poly() for r in r_list] for n in range(n_max + 1)]


# E zero, constant, with a negative leading coefficient, of degree <= 4
subst_exprs = st.lists(st.integers(min_value=-30, max_value=30), max_size=5).map(Poly)
r_lists = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)


# --n-max 0 expands no series and 1 a series of order 1; E = 0 and E = 3
# are constants, -h is passed as --subst=-h, and 3 - 2h has a constant term
@given(subst_exprs, r_lists, st.integers(min_value=0, max_value=14))
@example(Poly([3]), [1, 2, 7], 0)
@example(Poly(), [1, 2, 7], 1)
@example(Poly([3]), [1, 2, 7], 1)
@example(Poly(), [1, 2, 7], 9)
@example(Poly([3]), [1, 2, 7], 9)
@example(Poly([0, -1]), [1, 2, 7], 1)
@example(Poly([0, -1]), [1, 2, 7], 9)
@example(Poly([3, -2]), [1, 2, 7], 9)
@settings(max_examples=60, deadline=None)
def test_subst_equals_horner_composition(e, r_list, n_max):
    r_arg = ",".join(map(str, r_list))
    got = table_json(["--r", r_arg, "--n-max", str(n_max), f"--subst={e}"])
    expected = [[compose(p, e) for p in row] for row in closed_form_rows(r_list, n_max)]
    assert got == expected


@given(subst_exprs, r_lists, st.integers(min_value=0, max_value=14),
       st.integers(min_value=-9, max_value=9))
@settings(max_examples=60, deadline=None)
def test_subst_at_equals_the_composed_entries_at_a(e, r_list, n_max, a):
    r_arg = ",".join(map(str, r_list))
    got = table_json(["--r", r_arg, "--n-max", str(n_max), f"--subst={e}", f"--at={a}"])
    expected = [[Poly([compose(p, e)(a)]) for p in row] for row in closed_form_rows(r_list, n_max)]
    assert got == expected


@pytest.mark.parametrize("at", [None, "7"])
def test_subst_work_is_one_series_per_order_or_none(at, monkeypatch):
    argv = ["table", "--r", "1,4", "--n-max", "80", "--subst", "h^2+4h+5", "--format", "csv"]
    args = _build_parser().parse_args(argv + (["--at", at] if at else []))
    calls = 0
    mul = Poly.__mul__

    def counted(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert args.func(args) == 0
    monkeypatch.undo()
    # each of the 2 * 80 substituted entries costs at most two terms of
    # the series recurrence, a weight times -E and a weight times -1,
    # each scaled and multiplied by an earlier entry; evaluation needs none
    assert (calls == 0) if at else (0 < calls <= 4 * 2 * 80)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_table_prints_integers_past_the_default_digit_limit(capsys, fmt):
    # CPython refuses int <-> str conversions above 4300 digits by default
    code, out, err = run_cli(
        capsys, "table", "--r", "1", "--n-max", "2", "--subst", "10^4400", "--format", fmt
    )
    assert code == 0, err
    value = 10**4400
    if fmt == "text":
        assert table_text_entries(out)[2] == ["1" + "0" * 4400]
    else:
        entry = json.loads(out)["rows"][2][0]
        assert entry == ["1" + "0" * 4400]
        assert Poly.from_json(entry) == Poly([value])


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no integer-string limit here"
)
def test_main_leaves_the_integer_string_limit_alone(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, "table", "--r", "1", "--n-max", "2", "--at", "9" * 4401)
        assert code == 0, err
        assert table_text_entries(out)[2] == ["9" * 4401]  # h at h = 99...9
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)


def test_gf_text(capsys):
    code, out, _ = run_cli(capsys, "gf", "--r", "2", "--terms", "5")
    assert code == 0
    assert out.strip().splitlines() == [
        "1",
        "2h",
        "3h^2 + 2",
        "4h^3 + 6h",
        "5h^4 + 12h^2 + 3",
    ]


def test_gf_single_term(capsys):
    code, out, _ = run_cli(capsys, "gf", "--r", "1", "--terms", "1")
    assert code == 0
    assert out.strip() == "1"


def test_gf_r3(capsys):
    code, out, _ = run_cli(capsys, "gf", "--r", "3", "--terms", "4")
    assert code == 0
    assert out.strip().splitlines() == ["1", "3h", "6h^2 + 3", "10h^3 + 12h"]


def test_gf_json(capsys):
    code, out, _ = run_cli(capsys, "gf", "--r", "2", "--terms", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "r": 2,
        "terms": 3,
        "coefficients": [["1"], ["0", "2"], ["2", "0", "3"]],
    }


def test_charpoly_text(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t^2 - 2ht + (h^2 + 1)"
    assert lines[1] == "t^2: 1 = +conv(r=3, n=1)"
    assert lines[2] == "t^1: -2h = -conv(r=2, n=2)"
    assert lines[3] == "t^0: h^2 + 1 = +conv(r=1, n=3)"


def test_charpoly_n1(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--n", "1")
    assert code == 0
    assert out.strip().splitlines()[0] == "t - h"


def test_charpoly_json_cross_checked(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    coeffs = [Poly.from_json(c) for c in payload["coeffs_t"]]
    assert len(coeffs) == 5
    assert coeffs[-1] == Poly([1])
    for l in range(5):
        expected = minor_sum_closed_form(4, l)
        if (4 - l) % 2:
            expected = -expected
        assert coeffs[l] == expected, l


def test_verify_small_bounds_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--r-max", "2", "--n-max", "6")
    assert code == 0
    assert "all checks passed" in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--r-max", "1", "--n-max", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert_valid_report_dict(payload)
    assert payload["all_passed"] is True


def test_verify_failure_exits_one(capsys, monkeypatch):
    corrupt_check(monkeypatch, "det_fib")
    code, out, _ = run_cli(capsys, "verify", "--r-max", "1", "--n-max", "2")
    assert code == 1
    assert "FAIL" in out and "counterexample" in out


def test_usage_errors_exit_two(capsys):
    cases = [
        ["table", "--n-max", "nope"],
        ["table", "--r", "0,1"],
        ["table", "--subst", "h^"],
        ["table", "--format", "yaml"],
        ["gf", "--r", "0"],
        ["gf", "--terms", "0"],
        ["charpoly"],
        ["charpoly", "--n", "0"],
        ["verify", "--n-max", "1"],
        ["verify", "--seed", "-1"],
        ["nonsense"],
        [],
    ]
    for argv in cases:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "usage" in err.lower(), argv


@pytest.mark.parametrize("expr", ["(" * 2000 + "h" + ")" * 2000, "-" * 1500 + "h"],
                         ids=["parentheses", "signs"])
def test_deep_subst_is_refused_without_a_traceback(expr):
    proc = subprocess.run(
        [sys.executable, "-m", "hfib", "table", "--r", "1", "--n-max", "2", f"--subst={expr}"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    # argparse's usage lines, then the one-line refusal
    refusal = [line for line in proc.stderr.splitlines() if not line.startswith(("usage:", " "))]
    assert len(refusal) == 1
    assert refusal[0].startswith("hfib table: error: argument --subst: bad polynomial")
    assert max(len(line) for line in proc.stderr.splitlines()) <= 200


def test_subst_refusal_quotes_at_most_a_prefix(capsys):
    assert main(["table", "--subst", "h^-2"]) == 2
    assert "bad polynomial 'h^-2': negative exponents" in capsys.readouterr().err
    assert main(["table", "--subst", "h+" * 30 + "?"]) == 2
    err = capsys.readouterr().err
    assert f"bad polynomial {'h+' * 20!r}...: unexpected character '?' (at position 60)" in err


@pytest.mark.parametrize("text, position", [("1 000 000", 2), ("h2", 1)])
def test_an_integer_after_a_factor_is_refused_in_one_line(capsys, text, position):
    code, out, err = run_cli(capsys, "table", "--subst", text)
    assert (code, out) == (2, "")
    refusal = [line for line in err.splitlines() if not line.startswith(("usage:", " "))]
    assert refusal == [f"hfib table: error: argument --subst: bad polynomial {text!r}: "
                       f"unexpected character {text[position]!r} (at position {position})"]


def test_a_subst_value_starting_with_a_sign_is_attached_with_equals(capsys):
    assert main(["table", "--subst", "-h"]) == 2
    assert "argument --subst: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["table", "--r", "1,4", "--n-max", "12", "--subst", "-(2h - 3)^2"],
    ["table", "--subst", "h - 7", "--at", "-3"],
    ["gf", "--r", "3", "--terms", "9"],
    ["charpoly", "--n", "9"],
    ["verify", "--r-max", "1", "--n-max", "2"],
])
def test_csv_fields_never_need_quoting(capsys, argv):
    # plain comma joins are what csv.writer would write
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    for line in out.splitlines():
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(line.split(","))
        assert buf.getvalue() == line


def test_remaining_format_paths(capsys):
    code, out, _ = run_cli(capsys, "gf", "--r", "2", "--terms", "3", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["j,r,poly", "0,2,1", "1,2,2h", "2,2,3h^2 + 2"]

    code, out, _ = run_cli(capsys, "gf", "--r", "2", "--terms", "2", "--format", "latex")
    assert code == 0
    assert out.strip().splitlines() == [r"0 & $1$ \\", r"1 & $2h$ \\"]

    code, out, _ = run_cli(capsys, "charpoly", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[:2] == ["power,sign,r,index,poly", "2,1,3,1,1"]

    code, out, _ = run_cli(capsys, "charpoly", "--n", "2", "--format", "latex")
    assert code == 0
    assert out.strip().splitlines()[0].startswith("$p_{2}(t) = t^2 - 2ht")

    code, out, _ = run_cli(capsys, "verify", "--r-max", "1", "--n-max", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check_id,passed,elapsed_ms"
    assert all(line.split(",")[1] == "true" for line in lines[1:])

    code, out, _ = run_cli(capsys, "verify", "--r-max", "1", "--n-max", "2", "--format", "latex")
    assert code == 0
    assert out.strip().splitlines()[0] == r"binet & pass \\"


def test_help_exits_zero(capsys):
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hfib", "table", "--r", "1", "--n-max", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert table_text_entries(proc.stdout) == [["0"], ["1"], ["h"]]


# buffered, verify's report and the help fail at main's flush; gf's 2.4 MB fails
# inside print
UNWRITABLE = {
    "help": ["--help"],
    "table_help": ["table", "--help"],
    "verify": ["verify"],
    "table": ["table", "--r", "1,2,3", "--n-max", "80"],
    "gf": ["gf", "--r", "100", "--terms", "300"],
}


def hfib_env(unbuffered):
    # stdout buffered, as it is by default, meets the error only when a
    # short output is flushed; unbuffered, it meets it at the first write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_into(stdout, argv, unbuffered):
    return subprocess.run([sys.executable, "-m", "hfib", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120, env=hfib_env(unbuffered))


@pytest.mark.parametrize("argv", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_output_into_a_closed_pipe_is_one_line_and_exit_2(argv):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the child starts
    try:
        procs = [run_into(write, argv, unbuffered) for unbuffered in (False, True)]
    finally:
        os.close(write)
    # one line: no traceback, and no "Exception ignored" from the flush at exit
    for proc in procs:
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"hfib: cannot write output: {os.strerror(errno.EPIPE)}"]


@pytest.mark.parametrize("unbuffered", [False, True])
def test_output_into_a_pipe_closed_mid_stream_is_one_line_and_exit_2(unbuffered):
    # the reader takes a few bytes of the 16-order table, many times the
    # pipe's buffer, and goes while the rows are still being written
    orders = ",".join(str(r) for r in range(100, 84, -1))
    read, write = os.pipe()
    proc = subprocess.Popen([sys.executable, "-m", "hfib", "table", "--r", orders, "--n-max", "300"],
                            stdout=write, stderr=subprocess.PIPE, text=True, env=hfib_env(unbuffered))
    os.close(write)
    try:
        assert os.read(read, 10) == b"n\tr=100\tr="
    finally:
        os.close(read)
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert stderr.splitlines() == [f"hfib: cannot write output: {os.strerror(errno.EPIPE)}"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_output_onto_a_full_device_is_one_line_and_exit_2():
    for argv in (["verify"], ["--help"], ["table", "--help"]):
        for unbuffered in (False, True):
            with open("/dev/full", "w") as full:
                proc = run_into(full, argv, unbuffered)
            assert proc.returncode == 2, (argv, unbuffered)
            assert proc.stderr.splitlines() == [f"hfib: cannot write output: {os.strerror(errno.ENOSPC)}"]
