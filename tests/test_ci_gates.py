"""The workflow's gates and the corpus they build from stay in step.

A gate renamed in `scripts/ci_gates.py`, or a spec in `tests/corpus.py`
that drifts from its builder, fails here, not only in CI.
"""

import json
import re
import sys
from pathlib import Path

import corpus
import numpy as np
import pytest
from jsonschema import Draft202012Validator

from zgcentral.cli import load_group_spec

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
SCHEMA = json.loads((ROOT / "docs" / "schemas" / "group-input.schema.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(ROOT / "scripts"))

import ci_gates  # noqa: E402


def test_every_step_names_a_gate_and_every_gate_runs():
    run = re.findall(r"python scripts/ci_gates\.py (\S+)", WORKFLOW)
    assert set(run) <= set(ci_gates.GATES)
    assert set(ci_gates.GATES) <= set(run)


def test_the_workflow_reads_its_group_files_from_the_corpus():
    written = re.findall(r'python tests/corpus\.py (?:"([^"]+)"|(\S+))', WORKFLOW)
    assert written
    assert {quoted or bare for quoted, bare in written} <= set(corpus.PRESENTATIONS)
    assert '"type":' not in WORKFLOW


@pytest.mark.parametrize("name", corpus.PRESENTATIONS)
def test_each_spec_builds_its_builders_table(name):
    spec = json.loads(json.dumps(corpus.spec(name)))
    Draft202012Validator(SCHEMA).validate(spec)
    got, want = load_group_spec(spec), corpus.build(name)
    assert got.table.dtype == want.table.dtype == np.int32
    assert got.table.tobytes() == want.table.tobytes()
