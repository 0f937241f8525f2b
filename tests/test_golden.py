"""Outputs against tests/golden.json, written by scripts/write_golden.py.

The "fixed" section is what the mathematics fixes (idempotents, ranks,
rank terms, Theorem 1's units) and no refactor may change it; the
"chosen" section is what the code chooses (pair order, chain steps, K's
generators, each pair's coset log and transversal, and its class rows).
A change to either is named in CHANGES.md with its reason, and the file
rewritten by the script.  The "ci" section holds the fixed section and
the class rows of the groups a CI step checks.
"""

import json
import sys
from functools import cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import write_golden  # noqa: E402

GOLDEN = json.loads(write_golden.GOLDEN.read_text())
NAMES = list(write_golden.tier1_groups())


@cache
def recorded(name):
    return write_golden.record(*write_golden.tier1_groups()[name]())


def test_golden_covers_the_catalog_and_the_ci_groups():
    assert set(GOLDEN["fixed"]) == set(GOLDEN["chosen"]) == set(NAMES)
    assert set(GOLDEN["ci"]) == set(write_golden.ci_groups())


@pytest.mark.parametrize("name", NAMES)
def test_what_the_mathematics_fixes_matches_golden(name):
    assert recorded(name)[0] == GOLDEN["fixed"][name]


@pytest.mark.parametrize("name", NAMES)
def test_what_the_code_chooses_matches_golden(name):
    assert recorded(name)[1] == GOLDEN["chosen"][name]


def test_paper9_fixes_what_the_search_fixes():
    assert GOLDEN["fixed"][write_golden.PAPER9] == GOLDEN["fixed"]["paper-1000-86"]
