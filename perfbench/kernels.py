"""Ring kernels of hfib at fixed sizes, timed in a fresh process.

Run as

    python perfbench/kernels.py OUT_JSON SECONDS

with the checkout's src/ on PYTHONPATH.  Inputs are built from the
closed form with math.comb outside the timed region.  Each kernel is
timed in rounds of a fixed number of calls and reported as the median
round divided by the calls per round, so a slow first round (cold
allocator) does not count; SECONDS bounds the rounds, with at least
three per kernel.  A kernel whose hfib names are gone reports null.
"""
from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracle import closed_form  # noqa: E402


def _dense12(hfib):
    rng = random.Random(12)
    a, b = (hfib.Poly([rng.getrandbits(19) | 1 << 19 for _ in range(13)]) for _ in range(2))
    return lambda: a * b


def _mul(hfib, lhs, rhs):
    a, b = hfib.Poly(lhs), hfib.Poly(rhs)
    return lambda: a * b


def _series_pow(hfib):
    kernel = hfib.Series([hfib.ONE, -hfib.H, -hfib.ONE], 120)  # 1 - h*t - t^2
    return lambda: kernel ** -5


def _quadext_pow(hfib):
    root = hfib.QuadExt(hfib.H, hfib.ONE)  # h + s
    return lambda: root ** 150


def _det(hfib):
    matrix = hfib.build_fib_matrix(160)
    return lambda: hfib.hess_det(matrix)


def _minor_sums(hfib):
    return lambda: [hfib.sum_principal_minors(12, l) for l in range(12)]


# name -> (unit scale, calls per round, setup returning the timed callable)
KERNELS = {
    "poly.mul_us.d12_c20b": (1e6, 200, _dense12),
    "poly.mul_us.d60": (1e6, 50, lambda hfib: _mul(hfib, closed_form(8, 60), closed_form(1, 60))),
    "poly.mul_us.d160": (1e6, 10, lambda hfib: _mul(hfib, closed_form(1, 160), closed_form(1, 160))),
    "poly.mul_h_us.d160": (1e6, 200, lambda hfib: _mul(hfib, [0, 1], closed_form(1, 160))),
    "series.pow_ms.r5_t120": (1e3, 1, _series_pow),
    "quadext.pow_ms.n150": (1e3, 5, _quadext_pow),
    "hessenberg.det_ms.n160": (1e3, 1, _det),
    "hessenberg.minor_sums_ms.n12": (1e3, 1, _minor_sums),
}


def measure(seconds: float) -> dict[str, float | None]:
    import hfib

    budget = seconds / len(KERNELS)
    results: dict[str, float | None] = {}
    for name, (scale, calls, setup) in KERNELS.items():
        rounds: list[float] = []
        started = time.perf_counter()
        try:
            fn = setup(hfib)
            while len(rounds) < 3 or (time.perf_counter() - started < budget and len(rounds) < 25):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                rounds.append((time.perf_counter() - t0) / calls)
        except AttributeError:
            results[name] = None
            continue
        results[name] = scale * statistics.median(rounds)
    return results


if __name__ == "__main__":
    out, seconds = Path(sys.argv[1]), float(sys.argv[2])
    out.write_text(json.dumps(measure(seconds)))
