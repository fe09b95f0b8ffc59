"""Reading ideals: the plain text grammar and the JSON form.

Text looks like "n=4; x1*x3, x2*x4": an optional declared variable count,
then comma-separated products of x<i> or x<i>^<e>. JSON is
{"n": ..., "gens": [[exponents], ...]} and is detected by a leading
brace. Errors raise ParseError with a line and column where known.
Variable counts above MAX_VARIABLES are refused before any exponent
vector is allocated, so a short input cannot ask for gigabytes.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .ideals import make_ideal

MAX_EXPONENT = 2 ** 63 - 1
MAX_VARIABLES = 1024


class _Scanner:
    """Character scanner with line/column bookkeeping for error messages."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message):
        raise ParseError(message, self.line, self.col)

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self):
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def skip_space(self):
        while self.peek() and self.peek() in " \t\r\n":
            self.advance()

    def take(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.advance()

    def integer(self, what):
        # ASCII digits only: str.isdigit also takes '²', which int() refuses, and '٣'
        if not "0" <= self.peek() <= "9":
            self.error(f"expected {what}")
        value = 0
        while "0" <= self.peek() <= "9":
            value = value * 10 + int(self.advance())
            if value > MAX_EXPONENT:
                self.error(f"{what} overflow (limit {MAX_EXPONENT})")
        return value


def _parse_factor(scanner):
    """One factor x<idx> or x<idx>^<exp>; returns (index, exponent)."""
    scanner.take("x")
    index = scanner.integer("variable index")
    if index == 0:
        scanner.error("variable index 0 (variables are x1, x2, ...)")
    if index > MAX_VARIABLES:
        scanner.error(f"variable x{index} exceeds the limit of {MAX_VARIABLES} variables")
    exponent = 1
    if scanner.peek() == "^":
        scanner.advance()
        exponent = scanner.integer("exponent")
        if exponent == 0:
            scanner.error("exponent must be positive")
    return index, exponent


def _parse_text(text):
    scanner = _Scanner(text)
    scanner.skip_space()
    declared = None
    if scanner.peek() == "n":
        scanner.advance()
        scanner.skip_space()
        scanner.take("=")
        scanner.skip_space()
        declared = scanner.integer("variable count")
        if declared == 0:
            scanner.error("variable count must be positive")
        if declared > MAX_VARIABLES:
            scanner.error(f"variable count {declared} exceeds the limit {MAX_VARIABLES}")
        scanner.skip_space()
        scanner.take(";")
        scanner.skip_space()
    raw = []
    while scanner.peek():
        factors = [_parse_factor(scanner)]
        scanner.skip_space()
        while scanner.peek() == "*":
            scanner.advance()
            scanner.skip_space()
            factors.append(_parse_factor(scanner))
            scanner.skip_space()
        if scanner.peek() and scanner.peek() not in ",":
            scanner.error(f"unexpected character {scanner.peek()!r}")
        raw.append(factors)
        if scanner.peek() == ",":
            scanner.advance()
            scanner.skip_space()
            if not scanner.peek():
                scanner.error("trailing comma")
    if declared is None and not raw:
        raise ParseError("empty input: declare n (e.g. \"n=3;\") or give generators")
    seen = max((i for factors in raw for i, _ in factors), default=0)
    n = declared if declared is not None else seen
    if seen > n:
        raise ParseError(f"variable x{seen} exceeds declared n={n}")
    vectors = []
    for factors in raw:
        exps = [0] * n
        for index, exponent in factors:
            exps[index - 1] += exponent
            if exps[index - 1] > MAX_EXPONENT:
                raise ParseError(f"exponent overflow on x{index} (limit {MAX_EXPONENT})")
        vectors.append(tuple(exps))
    return make_ideal(n, vectors)


def _parse_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"bad JSON: {err.msg}", err.lineno, err.colno) from err
    if not isinstance(data, dict) or "n" not in data or "gens" not in data:
        raise ParseError('JSON input needs the shape {"n": ..., "gens": [[...], ...]}')
    n = data["n"]
    # JSON true/false arrive as bool, which Python counts as int: type() is exact
    if type(n) is not int or n < 1:
        raise ParseError(f"n must be a positive integer, got {n!r}")
    if n > MAX_VARIABLES:
        raise ParseError(f"variable count {n} exceeds the limit {MAX_VARIABLES}")
    gens = data["gens"]
    if not isinstance(gens, list):
        raise ParseError("gens must be a list of exponent vectors")
    vectors = []
    for row in gens:
        if (not isinstance(row, list) or len(row) != n
                or not all(type(e) is int and e >= 0 for e in row)):
            raise ParseError(f"bad exponent vector {row!r} (need {n} non-negative integers)")
        if any(e > MAX_EXPONENT for e in row):
            raise ParseError(f"exponent overflow in {row!r} (limit {MAX_EXPONENT})")
        vectors.append(tuple(row))
    return make_ideal(n, vectors)


def parse_ideal(text):
    """Ideal from the text grammar, or from JSON when the input starts with {.

    The ambient n is the declared one, or the highest variable index
    seen. Generators are minimalized on construction.
    """
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_text(text)
