"""Recursive-descent parser for integer polynomial expressions.

Accepts +, -, *, ^ and parentheses over one symbol (written h or x,
both meaning the internal symbol), with implicit multiplication so the
canonical renderings round-trip: "2h^2 - 3" parses back to the Poly
that printed it.  Implicit multiplication never takes an integer on its
right, so "h2" and "1 000 000" are refused rather than read as 2h and 0.
"""
from __future__ import annotations

from .poly import H, Poly, from_digits


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_SYMBOLS = ("h", "x")
MAX_DEPTH = 100  # deepest parenthesis nesting and longest sign run; bounds the stack
# Before each product or power runs, the parser bounds its result's degree
# and coefficient width; it refuses a degree over MAX_DEGREE, or results of
# more than MAX_BITS in all, counting (degree + 1) * (width + 1) for each.
MAX_DEGREE = 1000
MAX_BITS = 1 << 22


def width(p: Poly) -> int:
    """w with 2^w >= the sum of p's absolute coefficients: |p(x)| <= 2^w * |x|^deg(p),
    and no coefficient of p^k exceeds 2^(k*w)."""
    return max(sum(abs(c) for c in p.coeffs) - 1, 0).bit_length()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.spent = 0  # coefficient bits of the products and powers so far

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str | None:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def _take(self) -> str:
        """The character each caller has just peeked, so never the end."""
        ch = self._peek()
        self.pos += 1
        return ch

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return from_digits(self.text[start : self.pos])

    def parse(self) -> Poly:
        value = self._expr()
        if self._peek() is not None:
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        return value

    def _expr(self) -> Poly:
        value = self._term()
        while (ch := self._peek()) in ("+", "-"):
            self._take()
            rhs = self._term()
            value = value + rhs if ch == "+" else value - rhs
        return value

    def _bound(self, degree: int, bits: int, at: int) -> None:
        self.spent += (degree + 1) * (bits + 1)
        if degree > MAX_DEGREE or self.spent > MAX_BITS:
            raise ParseError(f"over degree {MAX_DEGREE} or {MAX_BITS} coefficient bits", at)

    def _term(self) -> Poly:
        value = self._unary()
        while True:
            ch = self._peek()
            if ch == "*":
                self._take()
                rhs = self._unary()
            elif ch is not None and (ch in _SYMBOLS or ch == "("):
                # implicit multiplication: 2h, 3(h+1), h(h+1), but never h2
                rhs = self._power()
            else:
                return value
            self._bound((value.degree or 0) + (rhs.degree or 0), width(value) + width(rhs), self.pos)
            value = value * rhs

    def _unary(self) -> Poly:
        signs = ""
        while self._peek() in ("+", "-"):
            signs += self._take()
            if len(signs) > MAX_DEPTH:
                raise ParseError(f"more than {MAX_DEPTH} signs in a row", self.pos)
        value = self._power()
        return -value if signs.count("-") % 2 else value

    def _power(self) -> Poly:
        base = self._atom()
        if self._peek() == "^":
            self._take()
            if self._peek() == "-":
                raise ParseError("negative exponents are not allowed", self.pos)
            at, k = self.pos, self._integer()
            self._bound((base.degree or 0) * k, width(base) * k, at)
            return base ** k
        return base

    def _atom(self) -> Poly:
        ch = self._peek()
        if ch is None:
            raise ParseError("unexpected end of input", self.pos)
        if ch == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", self.pos)
            self._take()
            self.depth += 1
            value = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self._take()
            self.depth -= 1
            return value
        if ch in _SYMBOLS:
            self._take()
            return H
        if ch.isdigit():
            return Poly([self._integer()])
        raise ParseError(f"unexpected character {ch!r}", self.pos)


def parse_poly(text: str) -> Poly:
    """Parse an integer-coefficient polynomial expression in h (or x)."""
    return _Parser(text).parse()
