"""The client pauses a running child to time the reference loop."""
import sys
import time

import pytest

import run

CHILD = "import time; end = time.perf_counter() + 1.6\nwhile time.perf_counter() < end: pass\nprint('ok')"


def test_sampling_pauses_the_child_without_changing_its_result():
    client = run.Client(time.perf_counter() + 60, sample=True)
    started = time.perf_counter()
    outcome = client.run([sys.executable, "-c", CHILD])
    total = time.perf_counter() - started
    assert (outcome.code, outcome.stdout) == (0, b"ok\n")
    # one loop before, at least two while it runs, one after
    assert len(client.refs) >= 4
    assert outcome.ref_s == pytest.approx(sum(client.refs) / len(client.refs))
    # the child busy-waits on the wall clock, so its pauses are not added
    assert outcome.wall_s < total - 2 * run.REF_NOMINAL_S * 0.5


def test_without_sampling_only_the_loops_around_the_child_run():
    client = run.Client(time.perf_counter() + 60, sample=False)
    outcome = client.run([sys.executable, "-c", "print('ok')"])
    assert (outcome.code, outcome.stdout) == (0, b"ok\n")
    assert len(client.refs) == 2
