"""Generated command lines never crash `python -m hfib`.

Each example runs one child on argv drawn over the four subcommands:
each option is left out, given a small valid value, a value past its
cap, or malformed text, and `--subst` gets generated expression text.
The child must exit 0, 1 or 2 (1 only from verify), print no traceback,
end within a timeout and stay under a memory bound.  Valid sizes are
small, so each child ends within about a second.
"""
from __future__ import annotations

import resource
import subprocess
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hfib.cli import FORMATS

TIMEOUT_S = 20
MAX_RSS_KIB = 256 * 1024


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def ints(low, high):
    return st.integers(min_value=low, max_value=high).map(str)


# past a cap (or below a floor), and text that is not what the option takes
OUT_OF_CAP = st.one_of(
    st.integers(min_value=3, max_value=40).map(lambda k: str(10**k)),
    st.integers(min_value=-(10**12), max_value=0).map(str),
)
MALFORMED = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), max_size=12
)
SUBST = st.one_of(
    st.text(st.sampled_from("hx0123456789+-*^() "), max_size=16),
    st.sampled_from(["h^2+4h+5", "(h+2)^2+h+1", "x^3 - 7", "10^4400", "h^999", "((((h))))"]),
)


def value(valid):
    # valid half the time
    return st.one_of(valid, valid, OUT_OF_CAP, MALFORMED)


ORDERS = st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4).map(
    lambda rs: ",".join(map(str, rs))
)
FORMAT = value(st.sampled_from(FORMATS))

# subcommand -> option -> values; a verify left at its default bounds
# takes seconds, so its two size options are always given
OPTIONS = {
    "gf": {"--r": value(ints(1, 8)), "--terms": value(ints(1, 60)), "--format": FORMAT},
    "table": {
        "--r": value(ORDERS),
        "--n-max": value(ints(0, 30)),
        "--subst": st.one_of(SUBST, MALFORMED),
        "--at": value(ints(-(10**6), 10**6)),
        "--format": FORMAT,
    },
    "charpoly": {"--n": value(ints(1, 40)), "--format": FORMAT},
    "verify": {
        "--r-max": value(ints(1, 2)),
        "--n-max": value(ints(2, 8)),
        "--seed": value(ints(0, 10**6)),
        "--format": FORMAT,
    },
}
ALWAYS_GIVEN = {"verify": {"--r-max", "--n-max"}}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for option, values in OPTIONS[command].items():
        if option in ALWAYS_GIVEN.get(command, ()) or draw(st.booleans()):
            argv += [option, draw(values)]
    return argv


@given(argvs())
@settings(max_examples=45, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_generated_argv_exits_cleanly(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "hfib", *argv],
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode in (0, 1, 2), (proc.returncode, proc.stderr[-300:])
    assert proc.returncode != 1 or argv[0] == "verify", proc.stdout[-300:]
    assert "Traceback" not in proc.stderr, proc.stderr[-500:]
    # peak resident size of the largest child so far, in KiB on Linux
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss < MAX_RSS_KIB
