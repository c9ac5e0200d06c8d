"""The oracle accepts hfib's real outputs and catches one corrupted coefficient."""
import contextlib
import io
import json
import re

import pytest

import oracle
from hfib import cli, report_to_dict, run_suite
from workloads import FORMATS, Command

E = ("h^2+4h+5", [5, 4, 1])
CASES = [
    Command("table", ["table", "--r", "1,2,5", "--n-max", "9"], spec={"r_list": [1, 2, 5], "n_max": 9}),
    Command("table", ["table", "--r", "2,3", "--n-max", "7", "--subst", E[0]],
            spec={"r_list": [2, 3], "n_max": 7, "subst": E[1]}),
    Command("table", ["table", "--r", "1,4", "--n-max", "8", "--subst", E[0], "--at", "5"],
            spec={"r_list": [1, 4], "n_max": 8, "subst": E[1], "at": 5}),
    Command("table", ["table", "--r", "3", "--n-max", "6", "--at", "-2"],
            spec={"r_list": [3], "n_max": 6, "at": -2}),
    Command("gf", ["gf", "--r", "4", "--terms", "9"], spec={"r": 4, "terms": 9}),
    Command("charpoly", ["charpoly", "--n", "7"], spec={"n": 7}),
]


def hfib_stdout(args: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(args) == 0
    return buf.getvalue()


def corrupt_one_coefficient(fmt: str, out: str) -> str:
    """Add 1 to the last coefficient the output prints."""
    pattern = r'"(-?\d+)"' if fmt == "json" else r"(\d+)h" if re.search(r"\d+h", out) else r"(\d+)"
    m = list(re.finditer(pattern, out))[-1]
    return out[: m.start(1)] + str(int(m.group(1)) + 1) + out[m.end(1):]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c.args))
def test_oracle_accepts_real_output_and_catches_one_corrupted_coefficient(case, fmt):
    out = hfib_stdout([*case.args, "--format", fmt])
    assert oracle.check(case.kind, case.spec, fmt, out) is None
    bad = corrupt_one_coefficient(fmt, out)
    assert bad != out
    assert oracle.check(case.kind, case.spec, fmt, bad) is not None


def test_oracle_reports_truncated_output_instead_of_raising():
    case = CASES[0]
    out = hfib_stdout([*case.args, "--format", "json"])
    reason = oracle.check(case.kind, case.spec, "json", out[: len(out) // 2])
    assert reason is not None and "unparsable" in reason


def test_oracle_rejects_failed_or_skipped_verify_reports():
    spec = {"bounds": {"r_max": 2, "n_max": 4, "seed": 3}}
    good = report_to_dict(run_suite(2, 4, 3))
    assert oracle.check("verify", spec, "json", json.dumps(good)) is None
    failed = report_to_dict(run_suite(2, 4, 3, _corrupt="five_way"))
    assert oracle.check("verify", spec, "json", json.dumps(failed)) is not None
    skipped = json.loads(json.dumps(good))
    skipped["results"][0]["params"]["skipped"] = 1
    assert oracle.check("verify", spec, "json", json.dumps(skipped)) is not None
    wrong_bounds = {"bounds": {"r_max": 2, "n_max": 5, "seed": 3}}
    assert oracle.check("verify", wrong_bounds, "json", json.dumps(good)) is not None


def test_closed_form_matches_the_first_convolved_polynomials():
    assert oracle.closed_form(1, 4) == [1, 0, 3, 0, 1]  # h^4 + 3h^2 + 1
    assert oracle.closed_form(2, 4) == [3, 0, 12, 0, 5]  # 5h^4 + 12h^2 + 3
    assert oracle.closed_form(3, 0) == [1]


def test_parsers_read_the_canonical_renderings():
    assert oracle.parse_poly("-h^2 - 1") == [-1, 0, -1]
    assert oracle.parse_poly("h^3 + 2h") == [0, 2, 0, 1]
    assert oracle.parse_poly("0") == []
    assert oracle.parse_tpoly("t^2 - 2ht + (h^2 + 1)") == {2: [1], 1: [0, -2], 0: [1, 0, 1]}


def test_normalized_blanks_only_elapsed_ms():
    a = b'{"check_id": "x", "elapsed_ms": 12, "n": 1}'
    b = b'{"check_id": "x", "elapsed_ms": 3405, "n": 1}'
    assert oracle.normalized(a) == oracle.normalized(b)
    assert oracle.normalized(a) != oracle.normalized(a.replace(b'"n": 1', b'"n": 2'))
