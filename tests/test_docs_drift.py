"""The CLI and HTTP references cannot drift from the code: the same
check the docs job runs (``scripts/docs_check.py``) fails tier-1 too."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "docs_check.py"


def test_cli_and_error_tables_match_the_docs(monkeypatch):
    spec = importlib.util.spec_from_file_location("docs_check", SCRIPT)
    docs_check = importlib.util.module_from_spec(spec)
    # Its dataclass looks its module up while the module executes.
    monkeypatch.setitem(sys.modules, "docs_check", docs_check)
    spec.loader.exec_module(docs_check)
    assert docs_check.check_cli_drift() == []
