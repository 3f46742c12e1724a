"""The parser's output, pinned: AST digests and ParseError identities.

``parser_golden.json`` holds what the parser produced for

* the paper's Examples 1-11 (``PAPER_QUERIES``) and the rewritten texts
  ``golden_examples.json`` records for them;
* every statement template of ``benchmarks/e2e/workloads.py`` and the
  supplier schema's DDL;
* the 2 048 distinct literal texts ``adhoc_local`` runs at seed 7;
* every token-boundary truncation of each template: the ``ParseError``
  message, line and column, or the digest of what still parses.

An AST digest hashes the node *structure* (class names, field names,
value types and values), not ``repr``, so a custom ``__repr__`` cannot
hide a difference.  The file was written from the parser before its
token helpers were rewritten; any change to a token, an AST or an error
position fails here.  Regenerate only for an intended grammar change::

    PYTHONPATH=src python -m tests.sql.test_parser_golden --write
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.errors import ParseError
from repro.sql import parse, parse_script, tokenize
from repro.workloads import PAPER_QUERIES
from repro.workloads.supplier import supplier_ddl

REPO = Path(__file__).resolve().parents[2]
GOLDEN_PATH = Path(__file__).with_name("parser_golden.json")
ADHOC_SEED = 7


def _load_workloads():
    """``benchmarks/e2e/workloads.py`` (pure data, imports no repro),
    loaded read-only under a private module name."""
    path = REPO / "benchmarks" / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_e2e_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def structure(node):
    """A nested tuple naming every class, field, type and value of *node*."""
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        return (
            type(node).__name__,
            tuple(
                (f.name, structure(getattr(node, f.name)))
                for f in dataclasses.fields(node)
            ),
        )
    if isinstance(node, (tuple, list)):
        return (type(node).__name__, tuple(structure(item) for item in node))
    if isinstance(node, enum.Enum):
        return (type(node).__name__, node.name)
    return (type(node).__name__, repr(node))


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def outcome(text: str):
    """The parse of *text*: its AST structure or the error's identity."""
    try:
        return ("ast", structure(parse(text)))
    except ParseError as error:
        return ("error", str(error), error.line, error.column)


def boundaries(text: str) -> list[int]:
    """The offset of every token start (EOF included) in *text*."""
    line_starts = [0]
    for index, char in enumerate(text):
        if char == "\n":
            line_starts.append(index + 1)
    return [
        line_starts[token.line - 1] + token.column - 1 for token in tokenize(text)
    ]


def truncations(text: str) -> list:
    """The outcome of every prefix of *text* that ends at a token start."""
    return [outcome(text[:offset]) for offset in boundaries(text)]


def corpus() -> dict:
    """Everything the golden file pins, freshly computed."""
    workloads = _load_workloads()
    golden_examples = json.loads(
        (REPO / "tests" / "net" / "golden_examples.json").read_text("utf-8")
    )
    rewritten = sorted(
        {
            text
            for entry in golden_examples.values()
            for text in (entry["outcome_sql"], entry["executed_sql"])
        }
    )
    templates = {tid: t.sql for tid, t in workloads.TEMPLATES.items()}
    templates["ledger_ddl"] = workloads.LEDGER_DDL
    (adhoc,) = workloads.build_ops(workloads.WORKLOADS["adhoc_local"], ADHOC_SEED)
    return {
        "paper": {
            f"E{q.example}": digest(outcome(q.sql)) for q in PAPER_QUERIES
        },
        "rewritten": digest([outcome(text) for text in rewritten]),
        "templates": {tid: digest(outcome(sql)) for tid, sql in templates.items()},
        "schema_ddl": digest(
            [structure(statement) for statement in parse_script(supplier_ddl())]
        ),
        "adhoc_texts": len(adhoc),
        "adhoc": digest([outcome(op.sql) for op in adhoc]),
        "truncations": {
            tid: digest(truncations(sql)) for tid, sql in templates.items()
        },
    }


@pytest.fixture(scope="module")
def computed():
    return corpus()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text("utf-8"))


@pytest.mark.parametrize(
    "section",
    ["paper", "rewritten", "templates", "schema_ddl", "adhoc_texts", "adhoc",
     "truncations"],
)
def test_parser_output_matches_golden(section, computed, golden):
    assert computed[section] == golden[section]


def test_adhoc_corpus_is_the_benchmark_cycle(computed):
    assert computed["adhoc_texts"] == 2048


def test_truncations_reach_every_error_path():
    """The truncation corpus exercises errors at many token positions,
    not just one message repeated."""
    workloads = _load_workloads()
    errors = {
        result[1].split(", found")[0]
        for t in workloads.TEMPLATES.values()
        for result in truncations(t.sql)
        if result[0] == "error"
    }
    assert len(errors) >= 6, errors


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        raise SystemExit("usage: python -m tests.sql.test_parser_golden --write")
    GOLDEN_PATH.write_text(json.dumps(corpus(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
