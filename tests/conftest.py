import functools

import pytest

from matroidalkit import MonomialIdeal, make_ideal, matroids, transversal

# criterion results registered by tests/test_acceptance.py, printed at the end
# of the run so every criterion gets exactly one visible pass/fail line
ACCEPTANCE_LINES = []


def record_criterion(number, passed, detail):
    ACCEPTANCE_LINES.append((number, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number, passed, detail in sorted(ACCEPTANCE_LINES):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{status} criterion {number}: {detail}")


@pytest.fixture
def fresh_enumeration_cache(monkeypatch):
    """An empty enumeration cache for one test; the shared one is kept."""
    monkeypatch.setattr(matroids, "_enumerate_matroidal",
                        functools.cache(matroids._enumerate_matroidal.__wrapped__))


@pytest.fixture
def corpus_shapes():
    """Block sizes of the transversals and (n, d) of the square-free Veronese
    ideals in the benchmark's analyze corpus."""
    transversals = [(3, 4), (2, 2, 3), (1, 2, 2, 2), (4, 4), (2, 3, 3), (2, 2, 4), (1, 3, 4),
                    (2, 2, 2, 2), (4, 5), (3, 6), (3, 3, 3), (1, 1, 2, 4), (2, 3, 4), (5, 5),
                    (3, 3, 4)]
    return transversals, [(7, 3), (7, 4), (8, 3), (8, 5), (9, 4)]


@pytest.fixture
def two_blocks_n4():
    return transversal(4, [{1, 2}, {3, 4}])


@pytest.fixture
def two_blocks_n5():
    return transversal(5, [{1, 2}, {3, 4, 5}])


@pytest.fixture
def squared_pivot_n3():
    # non-squarefree single-degree-3 ideal (x1^2*x2, x1^2*x3)
    return make_ideal(3, [(2, 1, 0), (2, 0, 1)])


@pytest.fixture
def path_n4():
    return make_ideal(4, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])
