"""Reading ideals: the plain text grammar and the JSON form.

Text looks like "n=4; x1*x3, x2*x4": an optional declared variable count,
then comma-separated products of x<i> or x<i>^<e>. It is read by offset:
the DIGITS pattern takes each digit run (ASCII 0-9 only, the rule the
CLI's counts share), another pattern skips spaces, tabs, carriage
returns and newlines, and str.startswith tests each one-character
token. A digit run loses its leading zeros and int() reads at most 19
of the digits left, so a long run of zeros is read as the number it
spells and Python's int-string limit never applies. The line and
column of a ParseError are counted from the offset only when it is
raised: the line is one more than the newlines before it, and the
column counts from the last one, so a carriage return is an ordinary
column.

JSON is {"n": ..., "gens": [[exponents], ...]} and is detected by a
leading brace. JSON nested too deeply for the decoder, or with an
integer literal longer than Python's int-string limit, is a ParseError
too. Errors raise ParseError with a line and column where known.
Variable counts above MAX_VARIABLES are refused before any exponent
vector is allocated, so a short input cannot ask for gigabytes. Each
parser checks its own exponents (ints from 0 to MAX_EXPONENT), so it
hands make_ideal rows built by Monomial._trusted, which are not scanned
again.
"""

from __future__ import annotations

import json
import re

from .errors import ParseError
from .ideals import Monomial, make_ideal

MAX_EXPONENT = 2 ** 63 - 1
MAX_VARIABLES = 1024


# ASCII digits only: \d and str.isdigit also take '٣' and '²', which int() reads or refuses
DIGITS = re.compile(r"[0-9]+")
_SPACE = re.compile(r"[ \t\r\n]*")


def _parse_text(text):
    def fail(message, at):
        # positions are counted only for the error: \r is an ordinary column
        raise ParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))

    def skip(at):
        return _SPACE.match(text, at).end()

    def take(token, at):
        if not text.startswith(token, at):
            fail(f"expected {token!r}", at)
        return at + 1

    def integer(at, what):
        """The value of the digit run at `at`, and the offset past it."""
        run = DIGITS.match(text, at)
        if run is None:
            fail(f"expected {what}", at)
        digits = run.group().lstrip("0")  # leading zeros add nothing
        # over the limit just past the 19th or the 20th significant digit; int()
        # never reads more than 19 digits, so Python's int-string limit never applies
        past = 19 if int(digits[:19] or "0") > MAX_EXPONENT else 20
        if len(digits) >= past:
            fail(f"{what} overflow (limit {MAX_EXPONENT})", run.end() - len(digits) + past)
        return int(digits or "0"), run.end()

    pos = skip(0)
    declared = None
    if text.startswith("n", pos):
        declared, pos = integer(skip(take("=", skip(pos + 1))), "variable count")
        if declared == 0:
            fail("variable count must be positive", pos)
        if declared > MAX_VARIABLES:
            fail(f"variable count {declared} exceeds the limit {MAX_VARIABLES}", pos)
        pos = skip(take(";", skip(pos)))
    raw = []
    while pos < len(text):
        factors = []
        while True:  # factors x<idx> or x<idx>^<exp>, joined by *
            index, pos = integer(take("x", pos), "variable index")
            if index == 0:
                fail("variable index 0 (variables are x1, x2, ...)", pos)
            if index > MAX_VARIABLES:
                fail(f"variable x{index} exceeds the limit of {MAX_VARIABLES} variables", pos)
            exponent = 1
            if text.startswith("^", pos):
                exponent, pos = integer(pos + 1, "exponent")
                if exponent == 0:
                    fail("exponent must be positive", pos)
            factors.append((index, exponent))
            pos = skip(pos)
            if not text.startswith("*", pos):
                break
            pos = skip(pos + 1)
        raw.append(factors)
        if pos < len(text):
            if not text.startswith(",", pos):
                fail(f"unexpected character {text[pos]!r}", pos)
            pos = skip(pos + 1)
            if pos == len(text):
                fail("trailing comma", pos)
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
        vectors.append(Monomial._trusted(tuple(exps)))
    return make_ideal(n, vectors)


def _parse_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"bad JSON: {err.msg}", err.lineno, err.colno) from err
    except ValueError as err:  # json reads integer literals with int()
        raise ParseError("bad JSON: an integer literal has too many digits") from err
    except RecursionError as err:
        raise ParseError("bad JSON: nested too deeply") from err
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
        vectors.append(Monomial._trusted(tuple(row)))
    return make_ideal(n, vectors)


def parse_ideal(text):
    """Ideal from the text grammar, or from JSON when the input starts with {.

    The ambient n is the declared one, or the highest variable index
    seen. Generators are minimalized on construction.
    """
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_text(text)
