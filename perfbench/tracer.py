"""Traced hfib command: spans around the calls into each layer.

Run as

    python perfbench/tracer.py SPANS_JSON RUN_ID hfib-argument...

with the checkout's src/ on PYTHONPATH.  It imports hfib (timing the
import), wraps every public hfib function that hfib.cli and hfib.verify
call through their module namespaces, counts Poly.__mul__/__rmul__/
__add__ calls against the innermost open span, runs hfib.cli.main, and
writes the spans and counts to SPANS_JSON when the command ends.  hfib's
own files are not modified: the wrappers replace names in the imported
modules of this process only.

A span is (id, name, start_ns, end_ns, parent_id), named
"<defining module>.<function>", e.g. "sequences.convolved_convolution";
id 0 is the process root.  A name that no longer exists is simply not
wrapped; the summary then reports the metrics that need it as null.
"""
from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

# Namespaces whose calls into other layers get spans.
CALLERS = ("hfib.verify", "hfib.cli")
CONVOLUTION = "sequences.convolved_convolution"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.stack = [0]
        self.names = ["root"]
        self.next_id = 1
        self.counts: dict[str, dict[str, int]] = {}
        self.wrapped: set[str] = set()
        # longest prefix asked of the convolution route, per order r
        self.conv_lengths: dict[int, int] = {}

    def span(self, name: str, fn):
        stack, names, spans = self.stack, self.names, self.spans
        clock = time.perf_counter_ns
        on_call = self._conv_request if name == CONVOLUTION else None

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1]
            stack.append(sid)
            names.append(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                names.pop()
                spans.append((sid, name, start, end, parent))

        self.wrapped.add(name)
        return wrapper

    def _conv_request(self, r: int, m: int) -> None:
        self.conv_lengths[r] = max(self.conv_lengths.get(r, 0), m + 1)

    def _count(self, key: str, amount: int = 1) -> None:
        bucket = self.counts.setdefault(self.names[-1], {})
        bucket[key] = bucket.get(key, 0) + amount

    def install(self, hfib_modules: dict) -> None:
        """Wrap the public hfib functions that the caller modules use."""
        for caller in CALLERS:
            module = hfib_modules.get(caller)
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                origin = getattr(value, "__module__", "") or ""
                if (
                    attr.startswith("_")
                    or not isinstance(value, types.FunctionType)
                    or not origin.startswith("hfib.")
                    or origin == caller
                ):
                    continue
                setattr(module, attr, self.span(f"{origin[5:]}.{attr}", value))
        poly = getattr(hfib_modules.get("hfib.poly"), "Poly", None)
        if poly is not None:
            self._count_poly(poly)

    def _count_poly(self, poly: type) -> None:
        mul, add = poly.__mul__, poly.__add__
        count = self._count

        def counted_mul(a, b):
            count("mul")
            count("mul_coeff_products", len(a.coeffs) * (len(b.coeffs) if isinstance(b, poly) else 1))
            return mul(a, b)

        def counted_add(a, b):
            count("add")
            return add(a, b)

        poly.__mul__ = poly.__rmul__ = counted_mul
        poly.__add__ = counted_add

    def dump(self, path: Path, import_ms: float) -> None:
        payload = {
            "run_id": self.run_id,
            "import_ms": import_ms,
            "wrapped": sorted(self.wrapped),
            "counts": self.counts,
            "conv_lengths": {str(r): n for r, n in self.conv_lengths.items()},
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload))


def main(argv: list[str]) -> int:
    out_path, run_id, hfib_args = Path(argv[0]), argv[1], argv[2:]
    start = time.perf_counter()
    import hfib  # noqa: F401  (imports every hfib module)
    import hfib.cli

    import_ms = 1000 * (time.perf_counter() - start)
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(hfib.__file__).resolve().parent != src / "hfib":
        print(f"tracer: hfib resolves to {hfib.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = Tracer(run_id)
    tracer.install({name: mod for name, mod in sys.modules.items() if name.startswith("hfib")})
    main_fn = tracer.span("cli.main", hfib.cli.main)
    try:
        code = main_fn(hfib_args)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, import_ms)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
