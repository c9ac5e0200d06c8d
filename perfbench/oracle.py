"""Independent output oracle for the hfib CLI.

Every expected value comes from the double-binomial closed form

    F(r, j+1) = sum over l of C(j+r-l-1, j-l) * C(j-l, l) * h^(j-2l)

computed here with math.comb.  Nothing in this module imports hfib, so a
defect in the ring code cannot hide itself by also breaking the oracle.
Each check returns None when the output is right, or a one-line reason.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re

# Integer points at which substituted polynomials are compared.  x = 1
# and x = -1 alone catch any single corrupted coefficient (x^k = +-1).
POINTS = (-3, -2, -1, 0, 1, 2, 3)

_ELAPSED = re.compile(rb'"elapsed_ms": -?\d+')


def closed_form(r: int, j: int) -> list[int]:
    """Coefficients (index = degree) of F(r, j+1), trailing zeros trimmed."""
    coeffs = [0] * (j + 1)
    for l in range(j // 2 + 1):
        coeffs[j - 2 * l] = math.comb(j + r - l - 1, j - l) * math.comb(j - l, l)
    return _trim(coeffs)


def table_entry(r: int, n: int) -> list[int]:
    """Row n of the CLI table for order r: zero at n = 0, else F(r, n)."""
    return [] if n == 0 else closed_form(r, n - 1)


def evaluate(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


_TERM = re.compile(r"(\d*)(h(?:\^(\d+))?)?")


def parse_poly(text: str) -> list[int]:
    """Coefficients of a polynomial in hfib's canonical rendering.

    The rendering is decreasing degree, terms joined by ' + ' / ' - ',
    unit coefficients omitted ('h^3 + 2h', '-h^2 - 1', '0').
    """
    text = text.strip()
    if text == "0":
        return []
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    coeffs: dict[int, int] = {}
    for token in re.split(r"( [+-] )", text):
        if token in (" + ", " - "):
            sign = 1 if token == " + " else -1
            continue
        m = _TERM.fullmatch(token)
        if m is None or not token:
            raise ValueError(f"bad term {token!r}")
        digits, var, power = m.groups()
        mag = int(digits) if digits else 1
        degree = 0 if var is None else int(power) if power else 1
        if var is None and not digits:
            raise ValueError(f"bad term {token!r}")
        coeffs[degree] = coeffs.get(degree, 0) + sign * mag
    out = [0] * (max(coeffs) + 1)
    for degree, c in coeffs.items():
        out[degree] = c
    return _trim(out)


_T_SUFFIX = re.compile(r"t(?:\^(\d+))?$")


def parse_tpoly(text: str) -> dict[int, list[int]]:
    """Coefficients by power of t of a rendered characteristic polynomial,
    e.g. 't^2 - 2ht + (h^2 + 1)'.  Multi-term coefficients are
    parenthesized; the sign of a term is pulled out in front of it.
    """
    terms: list[tuple[int, str]] = []
    depth, start, sign = 0, 0, 1
    text = text.strip()
    if text.startswith("-"):
        sign, start = -1, 1
    i = start
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith((" + ", " - "), i):
            terms.append((sign, text[start:i]))
            sign = 1 if text[i + 1] == "+" else -1
            i += 3
            start = i
            continue
        i += 1
    terms.append((sign, text[start:]))
    out: dict[int, list[int]] = {}
    for sign, body in terms:
        m = _T_SUFFIX.search(body)
        power = 0
        if m is not None:
            power = int(m.group(1)) if m.group(1) else 1
            body = body[: m.start()]
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        mag = [1] if body == "" else parse_poly(body)
        out[power] = [sign * c for c in mag]
    return out


def _compare(got: list[int], expected: list[int], where: str) -> str | None:
    if got != expected:
        return f"{where}: got {got[:6]}... expected {expected[:6]}..."
    return None


def _entry_check(spec: dict, r: int, n: int, rendered: list[int]) -> str | None:
    """Check one table cell given as coefficients (a constant under --at)."""
    cf = table_entry(r, n)
    where = f"r={r} n={n}"
    subst, at = spec.get("subst"), spec.get("at")
    if at is not None:
        expected = evaluate(cf, evaluate(subst, at) if subst else at)
        if len(rendered) > 1:
            return f"{where}: --at output is not a constant"
        value = rendered[0] if rendered else 0
        return None if value == expected else f"{where}: got {value} expected {expected}"
    if subst is None:
        return _compare(rendered, cf, where)
    expected_degree = (len(cf) - 1) * (len(subst) - 1) if cf else -1
    if len(rendered) - 1 != expected_degree:
        return f"{where}: degree {len(rendered) - 1}, expected {expected_degree}"
    for x in POINTS:
        if evaluate(rendered, x) != evaluate(cf, evaluate(subst, x)):
            return f"{where}: wrong value at h={x}"
    return None


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _latex_cells(line: str) -> list[str]:
    if not line.endswith(r" \\"):
        raise ValueError(f"latex row without terminator: {line[:40]!r}")
    return [cell.strip() for cell in line[:-3].split(" & ")]


def _unmath(cell: str) -> str:
    if not (cell.startswith("$") and cell.endswith("$")):
        raise ValueError(f"expected $...$, got {cell[:40]!r}")
    return cell[1:-1]


def check_table(spec: dict, fmt: str, out: str) -> str | None:
    r_list, n_max = spec["r_list"], spec["n_max"]
    cells: list[tuple[int, int, list[int]]] = []
    lines = out.rstrip("\n").split("\n")
    if fmt == "text":
        header = "n\t" + "\t".join(f"r={r}" for r in r_list)
        if lines[0] != header:
            return f"bad header {lines[0][:60]!r}"
        for line in lines[1:]:
            n, *polys = line.split("\t")
            for r, p in zip(r_list, polys, strict=True):
                cells.append((r, int(n), parse_poly(p)))
    elif fmt == "csv":
        rows = _csv_rows(out)
        if rows[0] != ["n", "r", "poly"]:
            return f"bad header {rows[0]!r}"
        for n, r, p in rows[1:]:
            cells.append((int(r), int(n), parse_poly(p)))
    elif fmt == "json":
        payload = json.loads(out)
        if payload["r_list"] != r_list or payload["n_max"] != n_max:
            return "bad r_list/n_max"
        for n, row in enumerate(payload["rows"]):
            for r, p in zip(r_list, row, strict=True):
                cells.append((r, n, [int(c) for c in p]))
    else:
        for line in lines:
            n, *polys = _latex_cells(line)
            for r, p in zip(r_list, polys, strict=True):
                cells.append((r, int(n), parse_poly(_unmath(p))))
    expected = sorted((r, n) for r in r_list for n in range(n_max + 1))
    if sorted((r, n) for r, n, _ in cells) != expected:
        return f"table has {len(cells)} cells, expected {len(expected)}"
    for r, n, rendered in cells:
        reason = _entry_check(spec, r, n, rendered)
        if reason:
            return reason
    return None


def check_gf(spec: dict, fmt: str, out: str) -> str | None:
    r, terms = spec["r"], spec["terms"]
    lines = out.rstrip("\n").split("\n")
    if fmt == "text":
        got = [parse_poly(line) for line in lines]
    elif fmt == "csv":
        rows = _csv_rows(out)
        if rows[0] != ["j", "r", "poly"]:
            return f"bad header {rows[0]!r}"
        if any(row[:2] != [str(j), str(r)] for j, row in enumerate(rows[1:])):
            return "bad j/r columns"
        got = [parse_poly(row[2]) for row in rows[1:]]
    elif fmt == "json":
        payload = json.loads(out)
        if payload["r"] != r or payload["terms"] != terms:
            return "bad r/terms"
        got = [[int(c) for c in p] for p in payload["coefficients"]]
    else:
        got = []
        for j, line in enumerate(lines):
            index, p = _latex_cells(line)
            if index != str(j):
                return f"bad index column {index!r}"
            got.append(parse_poly(_unmath(p)))
    if len(got) != terms:
        return f"{len(got)} coefficients, expected {terms}"
    for j, p in enumerate(got):
        reason = _compare(p, closed_form(r, j), f"r={r} j={j}")
        if reason:
            return reason
    return None


def charpoly_coefficient(n: int, power: int) -> list[int]:
    """Coefficient of t^power in det(t*I - F_n): (-1)^(n-power) F(power+1, n-power+1)."""
    sign = -1 if (n - power) % 2 else 1
    return [sign * c for c in closed_form(power + 1, n - power)]


def check_charpoly(spec: dict, fmt: str, out: str) -> str | None:
    n = spec["n"]
    annotations = [(l, -1 if (n - l) % 2 else 1, l + 1, n - l + 1) for l in range(n, -1, -1)]
    lines = out.rstrip("\n").split("\n")
    coeffs: dict[int, list[int]] = {}
    rows: list[tuple] = []
    if fmt == "text":
        whole = parse_tpoly(lines[0])
        for line in lines[1:]:
            m = re.fullmatch(r"t\^(\d+): (.*) = ([+-])conv\(r=(\d+), n=(\d+)\)", line)
            if m is None:
                return f"bad annotation line {line[:60]!r}"
            l, p, mark, r, idx = m.groups()
            coeffs[int(l)] = parse_poly(p)
            rows.append((int(l), 1 if mark == "+" else -1, int(r), int(idx)))
    elif fmt == "csv":
        table = _csv_rows(out)
        if table[0] != ["power", "sign", "r", "index", "poly"]:
            return f"bad header {table[0]!r}"
        for l, sign, r, idx, p in table[1:]:
            coeffs[int(l)] = parse_poly(p)
            rows.append((int(l), int(sign), int(r), int(idx)))
        whole = coeffs
    elif fmt == "json":
        payload = json.loads(out)
        if payload["n"] != n:
            return "bad n"
        whole = {l: [int(c) for c in p] for l, p in enumerate(payload["coeffs_t"])}
        coeffs = whole
        rows = [(a["power"], a["sign"], a["r"], a["index"]) for a in payload["annotations"]]
    else:
        m = re.fullmatch(r"\$p_\{(\d+)\}\(t\) = (.*)\$ \\\\", lines[0])
        if m is None or int(m.group(1)) != n:
            return f"bad latex head {lines[0][:60]!r}"
        whole = parse_tpoly(m.group(2))
        for line in lines[1:]:
            l, p, mark, r, idx = _latex_cells(line)
            coeffs[int(l)] = parse_poly(_unmath(p))
            rows.append((int(l), 1 if _unmath(mark) == "+" else -1, int(r), int(idx)))
    if rows != annotations:
        return "annotations differ from the sign/index pattern"
    for source in (whole, coeffs):
        if sorted(source) != list(range(n + 1)):
            return f"powers of t present: {len(source)}, expected {n + 1}"
        for l in range(n + 1):
            reason = _compare(source[l], charpoly_coefficient(n, l), f"n={n} t^{l}")
            if reason:
                return reason
    return None


def check_verify(spec: dict, fmt: str, out: str) -> str | None:
    report = json.loads(out)
    if report["bounds"] != spec["bounds"]:
        return f"bounds {report['bounds']} differ from the command line"
    if not report["all_passed"] or not report["results"]:
        return "verify report is not all_passed"
    for result in report["results"]:
        if not result["passed"] or "counterexample" in result:
            return f"check {result['check_id']} failed"
        if "skipped" in result["params"] or result.get("skipped"):
            return f"check {result['check_id']} was skipped"
    return None


def check_help(spec: dict, fmt: str, out: str) -> str | None:
    return None if out.startswith("usage: hfib") else "help text missing"


CHECKERS = {
    "table": check_table,
    "gf": check_gf,
    "charpoly": check_charpoly,
    "verify": check_verify,
    "help": check_help,
}


def check(kind: str, spec: dict, fmt: str, out: str) -> str | None:
    """Reason the output is wrong, or None; malformed output is a failure too."""
    try:
        return CHECKERS[kind](spec, fmt, out)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unparsable {kind} output: {type(exc).__name__}: {exc}"


def normalized(stdout: bytes) -> bytes:
    """stdout with the one nondeterministic field, elapsed_ms, blanked."""
    return _ELAPSED.sub(b'"elapsed_ms": _', stdout)
