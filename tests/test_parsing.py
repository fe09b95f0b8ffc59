"""The text reader against the original character scanner in parsing_oracle.

Both readers get the same inputs: seeded edits of the README's text
examples and of the text rows of test_cli.MUTATED_INPUTS, and strings
hypothesis builds from the same pieces. On every input they must give
the same ideal, or a ParseError with the same message, line and column,
or raise the same type of any other exception.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from parsing_oracle import parse_text as oracle_parse_text
from test_cli import MUTATED_INPUTS

from matroidalkit.errors import ParseError
from matroidalkit.parsing import _parse_text

README_EXAMPLES = ["n=4; x1*x3, x1*x4, x2*x3, x2*x4", "n = 40; x1*x2, x3*x4"]
SEEDS = README_EXAMPLES + [text for text, _, _ in MUTATED_INPUTS if not text.startswith("{")]
# what an edit inserts: the grammar's characters, look-alike digits, runs at
# and past the exponent limit, a run of zeros past Python's int-string limit,
# and a variable and a count at the variable limit
PIECES = (["x", "^", "*", ",", ";", "=", "n", " ", "\t", "\r", "\n", ".", "-", "²", "٣"]
          + list("0123456789")
          + ["9223372036854775807", "9223372036854775808", "9" * 25, "0" * 5000,
             "x1025", "n=1024;"])


def outcome(reader, text):
    try:
        ideal = reader(text)
    except ParseError as err:
        return "error", str(err), err.line, err.column
    except Exception as err:  # noqa: BLE001 - the type is what is compared
        return "raised", type(err)
    return "ideal", ideal.n, ideal.gens


def mutate(rng, text):
    for _ in range(rng.randint(1, 4)):
        at = rng.randint(0, len(text))
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "insert":
            text = text[:at] + rng.choice(PIECES) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + rng.randint(1, 3):]
        else:
            text = text[:at] + rng.choice(PIECES) + text[at + 1:]
    return text


def test_seeded_mutations_read_as_the_oracle_reads_them():
    rng = random.Random(32)
    for _ in range(20_000):
        text = mutate(rng, rng.choice(SEEDS))
        assert outcome(_parse_text, text) == outcome(oracle_parse_text, text), repr(text[:200])


def test_positions_on_pinned_inputs():
    # the overflow is raised just past the digit that takes the value over
    # the limit, before the zero and MAX_VARIABLES checks; \r is a column
    cases = {
        "x" + "9" * 25: ("variable index overflow", 1, 21),
        "x" + "0" * 30 + "9" * 20: ("variable index overflow", 1, 51),
        "n=3;\r\n x1 & x2": ("unexpected character '&'", 2, 5),
        "x1,\n\n  ": ("trailing comma", 3, 3),
    }
    for text, (message, line, column) in cases.items():
        got = outcome(_parse_text, text)
        assert message in got[1] and got[2:] == (line, column), repr(text)
        assert got == outcome(oracle_parse_text, text)
    assert outcome(_parse_text, "x" + "0" * 5000 + "1") == outcome(oracle_parse_text, "x1")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=24).map("".join))
def test_generated_text_reads_as_the_oracle_reads_it(text):
    assert outcome(_parse_text, text) == outcome(oracle_parse_text, text)
