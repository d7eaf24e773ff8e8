"""The mutation catalogue of tools/mutants.py still fits the code.

The tool itself runs every mutant's tests and takes minutes; this checks
only that each catalogued old text occurs exactly once in its file, that
the test files named to kill it exist, and which pytest exit codes count
as a kill, so a rewrite that drifts from the catalogue fails here.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = load_tool()
MUTANTS = TOOL.MUTANTS


@pytest.mark.parametrize("name", list(MUTANTS))
def test_catalogued_old_text_occurs_once(name):
    file, old, new, tests = MUTANTS[name]
    assert old != new
    assert (ROOT / file).read_text().count(old) == 1
    assert tests
    for test in tests:
        assert (ROOT / test.split("::")[0]).is_file(), test


def test_only_a_failed_test_or_collection_kills():
    # a missing test file (4) or an empty selection (5) fails the run
    assert TOOL.verdict(0) == "SURVIVED"
    assert TOOL.verdict(1) == TOOL.verdict(2) == "killed"
    for code in (3, 4, 5):
        assert TOOL.verdict(code) == f"BROKEN (pytest exit {code})"
