"""Command-line surface: table, gf, charpoly, verify.

All data goes to stdout, each line as it is made (JSON as one
document), and diagnostics to stderr.  Exit codes: 0 on success (for
verify: all checks passed), 1 when verification fails, 2 on usage
errors and when the output cannot be written.  Output is byte-identical
across identical invocations; the only timing field lives in verify
reports.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

from .hessenberg import char_poly
from .parse import MAX_DEGREE, ParseError, parse_poly, width
from .poly import ONE, ZERO, Poly, from_digits
from .series import Series, convolved_series
from .sequences import convolved_closed_form
from .verify import report_to_dict, run_suite

# CSV fields are written unquoted: integers, true/false, check ids and
# Poly renderings hold no comma, quote, CR or LF
FORMATS = ("text", "csv", "json", "latex")


# Size caps, each bounding one command's time and memory (README "Limits")
MAX_ORDER, MAX_ORDERS, MAX_LENGTH = 100, 16, 300  # r; orders in --r; --n-max, --terms, --n
MAX_VERIFY_R, MAX_VERIFY_N, MAX_SEED = 16, 100, 2**64 - 1  # a seed prints within any int/str limit
# --subst/--at: bits of one coefficient, and entries * (degree + 1) * those bits
MAX_COEFF_BITS, MAX_TABLE_BITS = 1 << 17, 1 << 24


def _quote(text: str) -> str:
    """At most the first 40 characters of a refused argument, quoted."""
    return repr(text[:40]) + ("..." if len(text) > 40 else "")


def _int_in(low: int, high: int):
    """argparse type: an integer in low..high, written as from_digits reads it."""
    def parse(text: str) -> int:
        try:
            value = from_digits(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be an integer in {low}..{high}, got {_quote(text)}")
        return value
    return parse


def _r_list(text: str) -> list[int]:
    values = [_int_in(1, MAX_ORDER)(part) for part in map(str.strip, text.split(",")) if part]
    if not values or len(values) > MAX_ORDERS:
        raise argparse.ArgumentTypeError(f"must list 1 to {MAX_ORDERS} orders, got {_quote(text)}")
    return values


def _at(text: str) -> int:
    try:
        return from_digits(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {_quote(text)}") from None


def _subst_poly(text: str) -> Poly:
    try:
        return parse_poly(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(f"bad polynomial {_quote(text)}: {exc}")


def cmd_table(args: argparse.Namespace) -> int:
    e, at = args.subst, args.at
    top = max(args.n_max - 1, 0)  # the largest entry degree
    if e is not None or at is not None:
        # bound E^top, or E(A)^top, before computing any: |E(x)| <= 2^w * |x|^deg(E)
        degree, w = (e.degree or 0, width(e)) if e is not None else (1, 0)
        if at is not None:
            degree, w = 0, w + degree * abs(at).bit_length()
        bits = max(top, 1) * max(w, 1)  # ±h^d has w = 0, but each entry still costs its coefficients
        size = len(args.r) * (args.n_max + 1) * (top * degree + 1) * bits
        if top * degree > MAX_DEGREE or bits > MAX_COEFF_BITS or size > MAX_TABLE_BITS:
            args.refuse(f"--subst/--at table over degree {MAX_DEGREE}, "
                        f"{MAX_COEFF_BITS}-bit coefficients or {MAX_TABLE_BITS} bits")
    # row 0 is zero (the sequences start 0, 1, r*h, ...) and row n holds
    # coefficient n - 1 of each generating function power (1 - h*t - t^2)^(-r);
    # --subst E expands (1 - E*t - t^2)^(-r) itself, one series per order
    # (at --n-max 0 the table is row 0 alone, which the other branch makes)
    if e is not None and at is None and args.n_max:
        powers = [Series([ONE, -e, -ONE][:args.n_max], args.n_max) ** -r for r in args.r]
        rows = [[ZERO] * len(args.r), *zip(*(power.coeffs for power in powers))]
    else:  # each row is made (and evaluated at A) and printed before the next, so no table is held
        rows = ([ZERO] * len(args.r) if n == 0 else [convolved_closed_form(r, n - 1) for r in args.r]
                for n in range(args.n_max + 1))
    if at is not None:  # p(E(A)) is the substituted entry at A
        x = at if e is None else e(at)
        rows = ([Poly([p(x)]) for p in row] for row in rows)
    if args.format == "text":
        print("n\t" + "\t".join(f"r={r}" for r in args.r))
        for n, row in enumerate(rows):
            print(f"{n}\t" + "\t".join(str(p) for p in row))
    elif args.format == "csv":
        print("n,r,poly")
        for n, row in enumerate(rows):
            for r, p in zip(args.r, row):
                print(f"{n},{r},{p}")
    elif args.format == "json":
        payload = {
            "r_list": args.r,
            "n_max": args.n_max,
            "rows": [[p.to_json() for p in row] for row in rows],
        }
        print(json.dumps(payload, indent=2))
    else:  # latex
        for n, row in enumerate(rows):
            print(f"{n} & " + " & ".join(f"${p}$" for p in row) + r" \\")
    return 0


def cmd_gf(args: argparse.Namespace) -> int:
    coeffs = convolved_series(args.r, args.terms)
    if args.format == "text":
        for p in coeffs:
            print(p)
    elif args.format == "csv":
        print("j,r,poly")
        for j, p in enumerate(coeffs):
            print(f"{j},{args.r},{p}")
    elif args.format == "json":
        payload = {
            "r": args.r,
            "terms": args.terms,
            "coefficients": [p.to_json() for p in coeffs],
        }
        print(json.dumps(payload, indent=2))
    else:
        for j, p in enumerate(coeffs):
            print(f"{j} & ${p}$" + r" \\")
    return 0


def cmd_charpoly(args: argparse.Namespace) -> int:
    n = args.n
    cp = char_poly(n)
    annotations = []
    for l in range(n, -1, -1):
        sign = -1 if (n - l) % 2 else 1
        annotations.append((l, sign, l + 1, n - l + 1))
    if args.format == "text":
        print(cp)
        for l, sign, r, idx in annotations:
            mark = "+" if sign > 0 else "-"
            print(f"t^{l}: {cp.coefficient(l)} = {mark}conv(r={r}, n={idx})")
    elif args.format == "csv":
        print("power,sign,r,index,poly")
        for l, sign, r, idx in annotations:
            print(f"{l},{sign},{r},{idx},{cp.coefficient(l)}")
    elif args.format == "json":
        payload = {
            "n": n,
            "coeffs_t": cp.to_json(),
            "annotations": [
                {"power": l, "sign": sign, "r": r, "index": idx}
                for l, sign, r, idx in annotations
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"$p_{{{n}}}(t) = {cp}$" + r" \\")
        for l, sign, r, idx in annotations:
            mark = "+" if sign > 0 else "-"
            print(f"{l} & ${cp.coefficient(l)}$ & ${mark}$ & {r} & {idx}" + r" \\")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.r_max, args.n_max, args.seed)
    if args.format == "json":
        print(json.dumps(report_to_dict(report), indent=2))
    elif args.format == "csv":
        print("check_id,passed,elapsed_ms")
        for r in report.results:
            print(f"{r.check_id},{str(r.passed).lower()},{r.elapsed_ms}")
    elif args.format == "latex":
        for r in report.results:
            status = "pass" if r.passed else "FAIL"
            print(r.check_id.replace("_", r"\_") + f" & {status}" + r" \\")
    else:
        width = max(len(r.check_id) for r in report.results)
        for r in report.results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.check_id:<{width}}  {r.elapsed_ms} ms")
            if r.counterexample is not None:
                print(f"      counterexample: {r.counterexample}")
        summary = "all checks passed" if report.all_passed else "FAILURES PRESENT"
        print(
            f"{summary} (r_max={report.bounds['r_max']}, "
            f"n_max={report.bounds['n_max']}, seed={report.bounds['seed']})"
        )
    return 0 if report.all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfib",
        description="Exact generalized Fibonacci/Lucas polynomial toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="grid of convolved polynomials")
    table.add_argument("--r", type=_r_list, default=[1, 2, 3], help="comma-separated orders")
    table.add_argument("--n-max", type=_int_in(0, MAX_LENGTH), default=8)
    table.add_argument("--format", choices=FORMATS, default="text")
    table.add_argument("--subst", type=_subst_poly, default=None, metavar="EXPR",
                       help="substitute h with this polynomial (h or x as symbol)")
    table.add_argument("--at", type=_at, default=None, metavar="INT",
                       help="evaluate entries at this integer after substitution")
    table.set_defaults(func=cmd_table, refuse=table.error)

    gf = sub.add_parser("gf", help="generating-function expansion")
    gf.add_argument("--r", type=_int_in(1, MAX_ORDER), default=1)
    gf.add_argument("--terms", type=_int_in(1, MAX_LENGTH), default=10)
    gf.add_argument("--format", choices=FORMATS, default="text")
    gf.set_defaults(func=cmd_gf)

    charpoly = sub.add_parser("charpoly", help="characteristic polynomial with coefficient annotations")
    charpoly.add_argument("--n", type=_int_in(1, MAX_LENGTH), required=True)
    charpoly.add_argument("--format", choices=FORMATS, default="text")
    charpoly.set_defaults(func=cmd_charpoly)

    verify = sub.add_parser("verify", help="run the identity suite")
    verify.add_argument("--r-max", type=_int_in(1, MAX_VERIFY_R), default=5)
    verify.add_argument("--n-max", type=_int_in(2, MAX_VERIFY_N), default=30)
    verify.add_argument("--seed", type=_int_in(0, MAX_SEED), default=0)
    verify.add_argument("--format", choices=FORMATS, default="text")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    printed = io.StringIO()  # argparse drops a failed write, so --help is written here
    try:
        try:
            with contextlib.redirect_stdout(printed):
                args = parser.parse_args(argv)
            code = args.func(args)
        except SystemExit as exc:  # a refusal, or --help
            code = int(exc.code or 0)
        sys.stdout.write(printed.getvalue())
        sys.stdout.flush()
    except OSError as exc:  # stdout is a closed pipe or a full disk
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)  # the flush at exit then has nothing left to fail on
        os.close(devnull)
        print(f"hfib: cannot write output: {exc.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
