"""Every oversized or malformed CLI argument gets one short refusal line,
and the largest accepted input of each command ends in time.

Each refusal runs `python -m hfib` in a child with a 2 GB address-space
limit and a timeout, and requires exit 2, no traceback, stderr lines of
at most 200 characters, and a small peak resident size for the child.
Each command's largest accepted input runs the same way, and must exit
0 within the timeout at a peak resident size of a few hundred MB.
"""
from __future__ import annotations

import contextlib
import io
import os
import signal
import subprocess
import sys

import pytest

from hfib.cli import (
    MAX_COEFF_BITS, MAX_TABLE_BITS, MAX_LENGTH, MAX_ORDER, MAX_ORDERS, MAX_SEED, MAX_VERIFY_N, MAX_VERIFY_R,
    _build_parser, main,
)

LONG = "9x" * 1500  # a 3,000-character argument
TOP_ORDERS = ",".join(str(r) for r in range(MAX_ORDER, MAX_ORDER - MAX_ORDERS, -1))  # 100,99,...,85

REFUSED = {
    "r-echo": ["table", "--r", LONG],
    "at-echo": ["table", "--at", LONG],
    "exponent-degree": ["table", "--subst", "h^99999999999"],
    "exponent-bits": ["table", "--subst", "2^99999999999"],
    "table-n-max": ["table", "--n-max", "100000000"],
    "gf-terms": ["gf", "--r", "1", "--terms", "99999999999"],
    "charpoly-n": ["charpoly", "--n", "10000000"],
    "verify-r-max": ["verify", "--r-max", "100000"],
    "verify-n-max": ["verify", "--n-max", "100000"],
    "gf-r": ["gf", "--r", str(MAX_ORDER + 1)],
    "table-r": ["table", "--r", f"1,{MAX_ORDER + 1}"],
    "table-orders": ["table", "--r", ",".join(["1"] * (MAX_ORDERS + 1))],
    "subst-degree": ["table", "--n-max", str(MAX_LENGTH), "--subst", "h^4"],
    "subst-bits": ["table", "--n-max", "80", "--subst", "10^4400"],
    "at-bits": ["table", "--n-max", str(MAX_LENGTH), "--at", "9" * 4401],
    "subst-at-bits": ["table", "--n-max", str(MAX_LENGTH), "--subst", "h^1000", "--at", "2"],
    # E = h^3 has coefficient width 0, yet its series still makes every coefficient
    "subst-monomial-work": ["table", "--r", TOP_ORDERS, "--n-max", str(MAX_LENGTH), "--subst", "h^3", "--format", "json"],
    # an integer option takes ASCII digits alone, as --at does
    "n-max-arabic-digit": ["table", "--n-max", "\u0663"],
    "n-max-space": ["table", "--n-max", " 5"],
    "seed-underscore": ["verify", "--seed", "1_0"],
    # past CPython's int/str limit a seed could not be printed in the report
    "seed-digits": ["verify", "--seed", "1" * 5000],
    "seed-above-cap": ["verify", "--seed", str(MAX_SEED + 1)],
}


# A forked child holds its parent's resident pages until it execs, and
# Linux counts them in the child's peak, so a command forked from this
# test process would read as large as the process.  So each command is
# the child of this small launcher, which sets the 2 GB limit, reaps the
# command, and writes its exit code and wait4 peak to the fd in argv[1].
LAUNCHER = """
import os, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
pid = os.fork()
if not pid:
    os.execv(sys.executable, [sys.executable, "-m", "hfib", *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]), b"%d %d" % (os.waitstatus_to_exitcode(status), usage.ru_maxrss))
"""


def run_hfib(argv: list[str], tmp_path) -> tuple[int, bytes, str, int]:
    """Run `python -m hfib argv` in a child under the memory limit, for
    at most 20 s; return its exit code, stdout, stderr and its own peak
    resident size in KiB (on Linux).
    """
    out, err = tmp_path / "out", tmp_path / "err"
    read, write = os.pipe()
    with os.fdopen(read, "rb") as report:
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, str(write), *argv], stdout=stdout,
                                    stderr=stderr, pass_fds=(write,), start_new_session=True)
        os.close(write)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the command
            proc.wait()
            pytest.fail(f"hfib {argv[0]} ran past 20 s")
        code, peak = map(int, report.read().split())
    return code, out.read_bytes(), err.read_text(), peak


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED.keys())
def test_oversized_argument_is_refused_in_one_short_line(argv, tmp_path):
    code, stdout, stderr, peak = run_hfib(argv, tmp_path)
    assert code == 2, stderr[-300:]
    assert stdout == b""
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert max(len(line) for line in lines) <= 200
    refusal = [line for line in lines if not line.startswith(("usage:", " "))]
    assert len(refusal) == 1 and refusal[0].startswith(f"hfib {argv[0]}: error: ")
    assert peak < 200 * 1024


def test_refusals_quote_at_most_40_characters():
    for argv, shown in [
        (["table", "--r", LONG], f"must be an integer in 1..{MAX_ORDER}, got {LONG[:40]!r}..."),
        (["table", "--at", LONG], f"argument --at: not an integer: {LONG[:40]!r}..."),
        (["charpoly", "--n", "10000000"], f"must be an integer in 1..{MAX_LENGTH}, got '10000000'"),
        (["table", "--n-max", "80", "--subst", "10^4400"], f"{MAX_COEFF_BITS}-bit coefficients or {MAX_TABLE_BITS} bits"),
    ]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert shown in err.getvalue(), argv


# the benchmark's commands and the largest documented ones
ADMITTED = [
    ["table", "--r", "1,2,3,4,5,6,7,8", "--n-max", "80"],
    ["table", "--r", "2,3", "--n-max", "60", "--subst", "(h+2)^2+h+1"],
    ["table", "--r", "1,4", "--n-max", "80", "--subst", "x^2 + 5x + 7", "--at", "7"],
    ["table", "--r", "1,4", "--n-max", "80", "--subst", "h^2+4h+5"],
    ["table", "--r", "1", "--n-max", "2", "--subst", "10^4400"],
    ["table", "--r", "1", "--n-max", "2", "--at", "9" * 4401],
    ["table", "--r", TOP_ORDERS, "--n-max", "70", "--subst", "h^3", "--format", "json"],
    ["gf", "--r", "5", "--terms", "120"],
    ["charpoly", "--n", "120"],
]


@pytest.mark.parametrize("argv", ADMITTED, ids=lambda argv: " ".join(argv)[:60])
def test_caps_admit_the_benchmark_commands(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def test_caps_admit_the_deep_verify_bounds():
    args = _build_parser().parse_args(["verify", "--r-max", "8", "--n-max", "60"])
    assert (args.r_max, args.n_max) == (8, 60)


def test_caps_admit_the_largest_seed():
    assert _build_parser().parse_args(["verify", "--seed", str(MAX_SEED)]).seed == MAX_SEED


# the largest input each command accepts: every argument at its cap, with
# the peak resident size in MB it must stay below.  The plain text table
# prints each row as it is made, so it never holds the grid that JSON's
# one payload does; a --subst table holds its columns, one series per
# order, and its cap is the 16 largest orders with E = h^3 at --n-max 70
SUBST_CAP = ["table", "--r", TOP_ORDERS, "--n-max", "70", "--subst", "h^3"]
LARGEST = {
    "verify": (["verify", "--r-max", str(MAX_VERIFY_R), "--n-max", str(MAX_VERIFY_N)], 400),
    "gf": (["gf", "--r", str(MAX_ORDER), "--terms", str(MAX_LENGTH)], 400),
    "charpoly": (["charpoly", "--n", str(MAX_LENGTH)], 400),
    "table": (["table", "--r", TOP_ORDERS, "--n-max", str(MAX_LENGTH), "--format", "json"], 400),
    "table-text": (["table", "--r", TOP_ORDERS, "--n-max", str(MAX_LENGTH)], 64),
    "table-subst": ([*SUBST_CAP, "--format", "json"], 400),
    "table-subst-text": (SUBST_CAP, 64),
}


@pytest.mark.parametrize("argv, peak_mb", LARGEST.values(), ids=LARGEST.keys())
def test_largest_accepted_input_ends_in_time_and_memory(argv, peak_mb, tmp_path):
    # README "Limits": about ten seconds or less and a few hundred MB at
    # the caps; run_hfib's 20 s leave room for a host twice as slow
    code, stdout, stderr, peak = run_hfib(argv, tmp_path)
    assert code == 0, stderr[-300:]
    assert stderr == "" and stdout.endswith(b"\n")
    assert peak < peak_mb * 1024
