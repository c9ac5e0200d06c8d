"""Byte-for-byte CLI output, pinned against a committed golden file.

Six command lines, each in all four formats, run in process through
`hfib.cli.main`.  `elapsed_ms` is the only nondeterministic field, so
verify output has it blanked to `N` before the comparison.  The
charpoly output at the cap, n = 300, is too large to commit and is
pinned by its sha256 instead.

Regenerate the golden file (only when a change to the output is meant):

    PYTHONPATH=src python tests/test_cli_golden.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from hfib.cli import FORMATS, main

GOLDEN = Path(__file__).with_name("cli_golden.json")

COMMANDS = (
    ("table", "--r", "1,2,3", "--n-max", "8"),
    ("table", "--r", "2,3", "--n-max", "6", "--subst", "(h+2)(h+3)"),
    ("table", "--r", "1,4", "--n-max", "6", "--subst", "h^2+4h+5", "--at", "5"),
    ("gf", "--r", "5", "--terms", "12"),
    ("charpoly", "--n", "6"),
    ("verify", "--r-max", "2", "--n-max", "4"),
)

CASES = [(*argv, "--format", fmt) for argv in COMMANDS for fmt in FORMATS]

_ELAPSED = {
    "text": re.compile(r"(?m)\d+ ms$"),
    "csv": re.compile(r"(?m),\d+$"),
    "json": re.compile(r'"elapsed_ms": \d+'),
}
_BLANK = {"text": "N ms", "csv": ",N", "json": '"elapsed_ms": N'}


def run(argv: tuple[str, ...]) -> str:
    """stdout of `hfib argv`, with verify's `elapsed_ms` blanked."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    out = f"exit {code}\n{buf.getvalue()}"
    fmt = argv[-1]
    if argv[0] == "verify" and fmt in _ELAPSED:
        out = _ELAPSED[fmt].sub(_BLANK[fmt], out)
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_is_byte_identical_to_golden(golden, argv):
    assert run(argv) == golden[" ".join(argv)]


# sha256 of stdout at n = 300, the charpoly cap, where char_poly packs at its widest
CHARPOLY_CAP_SHA256 = {
    "json": "3504a0fe17c7d7ac80d236df466468f448dbfa4ecc3719a075c696dc54370204",
    "latex": "a9ba8ec1021410605b9394b18efc996e01784ae6bdc053b083d336f0fb02f159",
}


@pytest.mark.parametrize("fmt", sorted(CHARPOLY_CAP_SHA256))
def test_charpoly_at_the_cap_is_byte_identical(fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["charpoly", "--n", "300", "--format", fmt]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == CHARPOLY_CAP_SHA256[fmt]


if __name__ == "__main__":
    data = {" ".join(argv): run(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {GOLDEN}", file=sys.stderr)
