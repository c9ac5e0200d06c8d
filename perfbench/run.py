"""hfib benchmark: run the checkout's hfib CLI as one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command runs in a fresh interpreter (`python -m hfib ...` with the
checkout's src/ first on PYTHONPATH), one at a time, which is how users
pay for interpreter start and for hfib's process-global memo tables.
Every output is checked by an oracle that never calls hfib (oracle.py),
and compared byte for byte, elapsed_ms aside, with its own repeats.

--trace 0 repeats the workload's fixed batch for as many whole passes
as fit in S seconds (at least two) and reports the end-to-end metrics,
scaled by a reference loop timed around and during every child (see
Client).  --trace 1 runs the batch once untraced and once under
tracer.py, times the ring kernels (kernels.py) and reports the
per-layer metrics.  The last line of stdout is one JSON object; the
lines before it, and a results file under .perfbench_out/results/,
carry the same numbers with their sample counts and the run's context
(hfib path, git commit, Python version, and the median time of the
reference loop, which does not touch hfib).

--workload all runs every workload in turn, for use by hand.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import workloads
from workloads import Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PY = sys.executable
# A single-workload run must end within 180 s; nothing new starts after this.
HARD_LIMIT_S = 165.0
MIN_PASSES = 2
# `hfib --help` samples taken before the first pass and after each pass
SETUP_SAMPLES = 3
# The reference loop that this process runs between children and, every
# SAMPLE_EVERY_S, while the running child is paused: a schoolbook product
# of two lists of 256-bit integers, the kind of work hfib's Poly does, but
# written here so that it never imports hfib.  REF_NOMINAL_S is its median
# time over ten runs on a 2-vCPU KVM guest (Python 3.11.7), where the
# run medians ranged from 0.016 to 0.025 s.  Children's times are scaled
# by nominal / measured (Outcome.scale).
_REF_RNG = random.Random(0)
REF_LHS = [_REF_RNG.getrandbits(256) for _ in range(60)]
REF_RHS = [_REF_RNG.getrandbits(256) for _ in range(60)]
REF_REPEATS = 18
REF_NOMINAL_S = 0.023
SAMPLE_EVERY_S = 0.5

END_TO_END = {
    "batch_s": "s",
    "cmd_s.p50": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

CHECK_IDS = (
    "binet", "charpoly_closed_form", "charpoly_shift", "charpoly_signs", "decomposition",
    "derivative_identity", "det_fib", "fib_comb", "five_way", "hessenberg_naive",
    "hessenberg_recurrence", "lucas_rel", "linear_term", "minor_product", "minor_sums",
    "ring_axioms", "shape", "specialization",
)

CONVOLUTION = "sequences.convolved_convolution"

# per-layer self-time metric -> the span names whose self time it sums
SELF_MS = {
    "sequences.convolution_ms": (CONVOLUTION,),
    "sequences.recurrence_ms": ("sequences.convolved_recurrence",),
    "sequences.closed_form_ms": ("sequences.convolved_closed_form",),
    "sequences.binet_ms": ("sequences.binet_scaled",),
    "sequences.decomposition_ms": ("sequences.lucas_decomposition_sides",),
    "sequences.fib_ms": ("sequences.fib", "sequences.lucas", "sequences.fib_combinatorial"),
    "series.convolved_series_ms": ("series.convolved_series",),
    "hessenberg.minor_sums_ms": ("hessenberg.sum_principal_minors",),
    "hessenberg.principal_minor_ms": ("hessenberg.principal_minor",),
    "hessenberg.det_ms": ("hessenberg.hess_det", "hessenberg.build_fib_matrix"),
    "hessenberg.char_poly_ms": (
        "hessenberg.char_poly", "hessenberg.charpoly_shift_sides",
        "hessenberg.minor_sum_closed_form",
    ),
    "verify.self_ms": ("verify.run_suite", "verify.convolved_table", "verify.report_to_dict"),
    "cli.self_ms": ("cli.main",),
    "parse.parse_poly_ms": ("parse.parse_poly",),
}

PER_LAYER = {
    "poly.mul_calls": "count",
    "poly.mul_coeff_products": "count",
    "poly.add_calls": "count",
    "sequences.convolution.mul_calls": "count",
    "sequences.convolution.useful_ratio": "ratio",
    "series.mul_calls": "count",
    "hessenberg.mul_calls": "count",
    **{name: "ms" for name in SELF_MS},
    **{f"verify.{check_id}_ms": "ms" for check_id in CHECK_IDS},
    "cli.stdout_bytes": "bytes",
    "setup.import_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "poly.mul_us.d12_c20b": "us",
    "poly.mul_us.d60": "us",
    "poly.mul_us.d160": "us",
    "poly.mul_h_us.d160": "us",
    "series.pow_ms.r5_t120": "ms",
    "quadext.pow_ms.n150": "ms",
    "hessenberg.det_ms.n160": "ms",
    "hessenberg.minor_sums_ms.n12": "ms",
}


class GuardError(RuntimeError):
    """The checkout cannot be benchmarked (no hfib, or hfib from elsewhere)."""


@dataclass
class Outcome:
    code: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout: bytes
    stderr: bytes
    ref_s: float = REF_NOMINAL_S  # mean reference-loop time around and during the child

    @property
    def scale(self) -> float:
        """Factor that takes this child's times to the host's nominal speed."""
        return REF_NOMINAL_S / self.ref_s


class Client:
    """Runs one child process at a time and measures it with wait4.

    With `sample` set, the child is paused (SIGSTOP) every SAMPLE_EVERY_S
    for a reference loop.  Its wall time excludes those moments, and wait4
    counts only the CPU time it really used.  Traced runs do not sample,
    because the times they report are taken inside the child.
    """

    def __init__(self, deadline: float, sample: bool):
        self.deadline = deadline
        self.sample_every = SAMPLE_EVERY_S if sample else None
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.tmp = OUT / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.refs: list[float] = []  # every reference-loop time of the run

    def run(self, argv: list[str]) -> Outcome:
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return Outcome(-1, 0.0, 0.0, 0, b"", b"not started: run deadline reached")
        # One loop between two children serves as after-the-first and
        # before-the-second.
        refs = [self.refs[-1] if self.refs else self._reference()]
        out_path = self.tmp / f"{os.getpid()}.stdout"
        err_path = self.tmp / f"{os.getpid()}.stderr"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            sampler = _Sampler(proc.pid, self, self.sample_every)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            sampler.start()
            try:
                # Wait for the exit without reaping, so the sampler never
                # signals a pid that could already belong to another process.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                end = sampler.finish()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                sampler.finish()
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = end - start - sampler.paused_s
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        refs += sampler.refs
        refs.append(self._reference())
        return Outcome(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss, stdout, stderr, statistics.fmean(refs))

    def _reference(self) -> float:
        self.refs.append(reference_loop_s())
        return self.refs[-1]

    def hfib(self, cmd: Command) -> Outcome:
        return self.run([PY, "-m", "hfib", *cmd.args])


class _Sampler(threading.Thread):
    """Every `every` seconds, pauses the child and times the reference loop.

    With `every` None it only waits for finish().
    """

    def __init__(self, pid: int, client: Client, every: float | None):
        super().__init__(daemon=True)
        self.pid = pid
        self.client = client
        self.every = every
        self.refs: list[float] = []
        self.paused_s = 0.0
        self.done = threading.Event()
        self.lock = threading.Lock()

    def run(self) -> None:
        while not self.done.wait(self.every):
            with self.lock:
                if self.done.is_set():
                    return
                paused = time.perf_counter()
                os.kill(self.pid, signal.SIGSTOP)
                while _state(self.pid) not in "TtZX":
                    time.sleep(0.0002)
                self.refs.append(self.client._reference())
                os.kill(self.pid, signal.SIGCONT)
                self.paused_s += time.perf_counter() - paused

    def finish(self) -> float:
        """Stop sampling; returns the time at which the child was seen to end."""
        with self.lock:
            self.done.set()
            end = time.perf_counter()
        self.join()
        return end


def _state(pid: int) -> str:
    """The process state letter from /proc, or "X" once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return "X"


class Judge:
    """Correctness of every command: exit code, oracle, and repeat identity."""

    def __init__(self):
        self.first: dict[int, tuple[bytes, str | None]] = {}
        self.attempted = 0
        self.failures: list[str] = []  # one per failed command
        self.errors: list[str] = []  # problems of the run itself

    def record(self, index: int, cmd: Command, outcome: Outcome) -> bool:
        self.attempted += 1
        reason = None
        if outcome.code != 0:
            reason = f"exit code {outcome.code}: {outcome.stderr[-200:]!r}"
        else:
            norm = oracle.normalized(outcome.stdout)
            if index not in self.first:
                verdict = oracle.check(cmd.kind, cmd.spec, cmd.fmt,
                                       outcome.stdout.decode("utf-8", "replace"))
                self.first[index] = (norm, verdict)
            seen, verdict = self.first[index]
            reason = verdict if seen == norm else "stdout differs from an earlier repeat"
        if reason:
            self.failures.append(f"hfib {' '.join(cmd.args)}: {reason}")
        return reason is None

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.failures and not self.errors


def guard(client: Client) -> str:
    """Path of the hfib the children import; refuse one outside this checkout."""
    expected = ROOT / "src" / "hfib" / "__init__.py"
    if not expected.is_file():
        raise GuardError(f"no hfib package at {expected}")
    probe = client.run([PY, "-c", "import hfib, sys; sys.stdout.write(hfib.__file__)"])
    if probe.code != 0:
        raise GuardError(f"importing hfib failed: {probe.stderr[-300:]!r}")
    resolved = Path(probe.stdout.decode()).resolve()
    if resolved != expected.resolve():
        raise GuardError(f"hfib resolves to {resolved}, not to this checkout's {expected}")
    return str(resolved)


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def reference_loop_s() -> float:
    """Time of a fixed pure-Python product that does not touch hfib."""
    start = time.perf_counter()
    for _ in range(REF_REPEATS):
        out = [0] * (len(REF_LHS) + len(REF_RHS) - 1)
        for i, a in enumerate(REF_LHS):
            for j, b in enumerate(REF_RHS):
                out[i + j] += a * b
    return time.perf_counter() - start


def end_to_end(client: Client, judge: Judge, batch: list[Command], seconds: float) -> tuple[dict, dict]:
    """Repeat the batch for `seconds` and summarize its passes.

    Every time is scaled to the host's nominal speed by the reference loop
    measured around its child (Outcome.scale): the host this was tuned on
    switches between speeds up to 1.6x apart for minutes at a time, which
    no run length within the time limit averages out.
    """
    setup: list[Outcome] = []

    def sample_setup() -> None:
        for _ in range(SETUP_SAMPLES):
            outcome = client.hfib(workloads.HELP)
            judge.record(-1, workloads.HELP, outcome)
            setup.append(outcome)

    sample_setup()
    runs: list[list[Outcome]] = [[] for _ in batch]
    passes = 0
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        for index, cmd in enumerate(batch):
            outcome = client.hfib(cmd)
            judge.record(index, cmd, outcome)
            outcome.stdout = outcome.stderr = b""  # judged already; explore prints ~2 MB a pass
            runs[index].append(outcome)
        passes += 1
        sample_setup()
        now = time.perf_counter()
        pass_s = now - pass_started
        if now + pass_s > client.deadline:
            if passes < MIN_PASSES:
                judge.errors.append("run deadline reached before two passes")
            break
        # Start another pass only if it should end within `seconds`.
        if passes >= MIN_PASSES and now - started + pass_s > seconds:
            break
    by_pass = list(zip(*runs))
    commands = [o for r in runs for o in r]

    def pass_sums(value) -> list[float]:
        return [sum(value(o) for o in outcomes) for outcomes in by_pass]

    metrics = {
        "batch_s": statistics.median(pass_sums(lambda o: o.wall_s * o.scale)),
        "cmd_s.p50": statistics.median(o.wall_s * o.scale for o in commands),
        "cpu_s": statistics.median(pass_sums(lambda o: o.cpu_s * o.scale)),
        "peak_rss_mb": max(o.rss_kb for o in commands) / 1024,
        "setup_s": statistics.median(o.wall_s * o.scale for o in setup),
    }
    samples = {
        "passes": passes, "commands": len(commands), "setup": len(setup), "batch_size": len(batch),
        "pass_walls_s": pass_sums(lambda o: o.wall_s),
        "pass_scaled_walls_s": pass_sums(lambda o: o.wall_s * o.scale),
        "cmd_walls_s": [[o.wall_s for o in r] for r in runs],
        "cmd_refs_s": [[o.ref_s for o in r] for r in runs],
        "setup_walls_s": [o.wall_s for o in setup],
        "setup_refs_s": [o.ref_s for o in setup],
    }
    return metrics, samples


def self_times_ns(spans: list) -> dict[str, int]:
    """Self time per span name: duration minus the duration of direct children."""
    children: dict[int, int] = {}
    for _, _, start, end, parent in spans:
        children[parent] = children.get(parent, 0) + end - start
    totals: dict[str, int] = {}
    for sid, name, start, end, _ in spans:
        totals[name] = totals.get(name, 0) + end - start - children.get(sid, 0)
    return totals


def minimal_convolution_products(conv_lengths: dict[int, int]) -> int:
    """Fewest products the convolution route needs for the prefixes asked of it.

    Level k (2..r) convolves level k-1 with the base sequence; a prefix of
    length L costs 1 + 2 + ... + L products, and level k must reach the
    longest prefix asked of any order >= k.
    """
    total = 0
    for k in range(2, max(conv_lengths, default=1) + 1):
        length = max(n for r, n in conv_lengths.items() if r >= k)
        total += length * (length + 1) // 2
    return total


def summarize_traces(traces: list[dict]) -> dict[str, float | None]:
    wrapped = set().union(*(t["wrapped"] for t in traces)) if traces else set()
    self_ns: dict[str, int] = {}
    counts: dict[str, dict[str, int]] = {}
    for trace in traces:
        for name, ns in self_times_ns(trace["spans"]).items():
            self_ns[name] = self_ns.get(name, 0) + ns
        for name, bucket in trace["counts"].items():
            into = counts.setdefault(name, {})
            for key, value in bucket.items():
                into[key] = into.get(key, 0) + value

    def count(key: str, prefix: str = "") -> int:
        return sum(b.get(key, 0) for name, b in counts.items() if name.startswith(prefix))

    def if_wrapped(names, value):
        return value if any(n in wrapped for n in names) else None

    metrics: dict[str, float | None] = {
        "poly.mul_calls": count("mul"),
        "poly.mul_coeff_products": count("mul_coeff_products"),
        "poly.add_calls": count("add"),
        "sequences.convolution.mul_calls": if_wrapped([CONVOLUTION], counts.get(CONVOLUTION, {}).get("mul", 0)),
        "series.mul_calls": count("mul", "series."),
        "hessenberg.mul_calls": count("mul", "hessenberg."),
    }
    performed = metrics["sequences.convolution.mul_calls"]
    minimal = sum(minimal_convolution_products({int(r): n for r, n in t["conv_lengths"].items()})
                  for t in traces)
    # With no products performed nothing was wasted.
    metrics["sequences.convolution.useful_ratio"] = (
        None if performed is None else minimal / performed if performed else 1.0)
    for metric, names in SELF_MS.items():
        metrics[metric] = if_wrapped(names, sum(self_ns.get(n, 0) for n in names) / 1e6)
    metrics["setup.import_ms"] = statistics.median(t["import_ms"] for t in traces) if traces else None
    return metrics


def traced(client: Client, judge: Judge, batch: list[Command], seconds: float,
           workload: str, seed: int) -> tuple[dict, dict]:
    started = time.perf_counter()
    untraced_wall = 0.0
    stdout_bytes = 0
    check_ms: dict[str, int] = {}
    for index, cmd in enumerate(batch):
        outcome = client.hfib(cmd)
        ok = judge.record(index, cmd, outcome)
        untraced_wall += outcome.wall_s
        stdout_bytes += len(oracle.normalized(outcome.stdout))
        if cmd.kind == "verify" and ok:
            for result in json.loads(outcome.stdout)["results"]:
                check_ms[result["check_id"]] = check_ms.get(result["check_id"], 0) + result["elapsed_ms"]

    span_dir = OUT / "spans" / workload
    shutil.rmtree(span_dir, ignore_errors=True)
    span_dir.mkdir(parents=True)
    traces = []
    traced_wall = 0.0
    for index, cmd in enumerate(batch):
        run_id = f"{workload}-seed{seed}-cmd{index:02d}"
        path = span_dir / f"{run_id}.json"
        outcome = client.run([PY, str(HERE / "tracer.py"), str(path), run_id, *cmd.args])
        judge.record(index, cmd, outcome)
        traced_wall += outcome.wall_s
        if path.is_file():
            traces.append(json.loads(path.read_text()))
        else:
            judge.errors.append(f"traced {' '.join(cmd.args)}: no span file")

    metrics = summarize_traces(traces)
    metrics["cli.stdout_bytes"] = stdout_bytes
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else None
    verify_ran = any(cmd.kind == "verify" for cmd in batch)
    for check_id in CHECK_IDS:
        metrics[f"verify.{check_id}_ms"] = check_ms.get(check_id) if verify_ran else 0

    budget = max(3.0, seconds - (time.perf_counter() - started))
    kernel_path = OUT / "tmp" / f"{os.getpid()}.kernels.json"
    outcome = client.run([PY, str(HERE / "kernels.py"), str(kernel_path), str(budget)])
    if outcome.code == 0:
        metrics.update(json.loads(kernel_path.read_text()))
    else:
        judge.errors.append(f"kernels: exit code {outcome.code}: {outcome.stderr[-300:]!r}")
    samples = {"commands_untraced": len(batch), "commands_traced": len(batch),
               "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}
    return metrics, samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + HARD_LIMIT_S
    client = Client(deadline, sample=not trace)
    context = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "hfib_file": guard(client),
        "git_commit": git_commit(),
        "python": platform.python_version(),
    }
    judge = Judge()
    batch = workloads.build(workload, seed)
    if trace:
        values, samples = traced(client, judge, batch, seconds, workload, seed)
        units = PER_LAYER
    else:
        values, samples = end_to_end(client, judge, batch, seconds)
        units = END_TO_END
    # Machine speed as context, not a metric: a slow box shows here.
    context["machine_loop_s"] = statistics.median(client.refs)
    result = {
        "correct": judge.correct,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"context": context, "samples": samples, "failures": judge.failures,
              "errors": judge.errors, "result": result}
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2))
    _print_human(context, samples, judge, result)
    return result


def _print_human(context: dict, samples: dict, judge: Judge, result: dict) -> None:
    print(" ".join(f"{k}={v}" for k, v in context.items()))
    print("samples: " + " ".join(f"{k}={v}" for k, v in samples.items()
                                 if isinstance(v, (int, float))))
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']!s:>24} {metric['unit']}")
    print(f"  {'fail_ratio':<40} {judge.failed / max(judge.attempted, 1):>24} "
          f"({judge.failed}/{judge.attempted} commands)")
    for failure in judge.failures[:10] + judge.errors:
        print(f"  FAIL {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so Client.run resumes and kills the
    # child it is waiting for instead of leaving it paused.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except GuardError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
