"""The CLI maps the error taxonomy onto distinct exit codes."""

import pytest

from repro.cli import exit_code_for, main
from repro.errors import (
    ExecutionError,
    ImsError,
    ParseError,
    QueryCancelled,
    QueryTimeout,
    RemoteQueryError,
    ReproError,
    ResourceError,
    RewriteMismatchError,
    RowBudgetExceeded,
    TicketWaitTimeout,
    TransientImsError,
    TransientNetworkError,
)


class TestExitCodeMap:
    @pytest.mark.parametrize(
        "error,code",
        [
            (QueryTimeout(1.0, 2.0), 4),
            (RowBudgetExceeded(10, 11), 5),
            (QueryCancelled("operator"), 6),
            (ResourceError("generic budget failure"), 3),
            (TransientImsError("GL"), 7),
            (RewriteMismatchError(["distinct-elimination"], "SELECT 1"), 8),
            (ReproError("anything else"), 2),
            (ParseError("bad token"), 2),
            (ExecutionError("type clash"), 2),
            (ImsError("segment trouble"), 2),
            (TicketWaitTimeout(1.0, "SELECT 1"), 10),
            (TransientNetworkError("conn reset", status=0), 11),
        ],
    )
    def test_mapping(self, error, code):
        assert exit_code_for(error) == code

    def test_remote_error_maps_by_original_type(self):
        """An error relayed over the wire keeps its local exit code."""
        relayed = RemoteQueryError("RowBudgetExceeded", "too many rows", 413)
        assert exit_code_for(relayed) == 5
        unknown = RemoteQueryError("SomethingNovel", "???", 500)
        assert exit_code_for(unknown) == 2


class TestCliIntegration:
    def test_row_budget_exit_code(self, capsys):
        code = main(
            ["run", "--row-budget", "2", "SELECT ALL S.SNO FROM SUPPLIER S"]
        )
        assert code == 5
        assert "exceeding its budget" in capsys.readouterr().err

    def test_parse_error_exit_code(self, capsys):
        assert main(["run", "SELECT FROM FROM"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_param_exit_code(self, capsys):
        code = main(["run", "--param", "JUNK", "SELECT S.SNO FROM SUPPLIER S"])
        assert code == 2

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            # Out-of-range numbers are usage errors, not tracebacks.
            ("run", "--timeout", "0"),
            ("run", "--row-budget", "0"),
            ("run", "--batch-rows", "0"),
            ("run", "--timeout", "nan"),
            ("serve", "--timeout", "0"),
            ("serve", "--row-budget", "-1"),
            ("serve", "--workers", "0"),
            ("serve", "--queue-depth", "0"),
            ("serve", "--shards", "0"),
            ("client", "--timeout", "0"),
            ("client", "--row-budget", "0"),
            # One query runs on one thread: these flags do not exist.
            ("run", "--workers", "2"),
            ("run", "--parallel-scan", None),
            ("serve", "--parallel-scan", None),
        ],
    )
    def test_bad_flag_is_a_usage_error(self, command, flag, value, capsys):
        argv = [command, flag] + ([value] if value is not None else [])
        if command == "client":
            argv.append("http://127.0.0.1:1")  # never contacted
        if command != "serve":
            argv.append("SELECT S.SNO FROM SUPPLIER S")
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_budgeted_run_succeeds_within_limits(self, capsys):
        code = main(
            [
                "run",
                "--timeout",
                "30",
                "--row-budget",
                "100000",
                "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 1",
            ]
        )
        assert code == 0
        assert "1 row(s)" in capsys.readouterr().out

    def test_safe_mode_flag_accepted(self, capsys):
        code = main(
            ["run", "--safe-mode", "SELECT DISTINCT S.SNO FROM SUPPLIER S"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rewritten via distinct-elimination" in out

    def test_no_optimize_respects_budgets(self, capsys):
        code = main(
            [
                "run",
                "--no-optimize",
                "--row-budget",
                "2",
                "SELECT ALL S.SNO FROM SUPPLIER S",
            ]
        )
        assert code == 5


class TestExitCodeSingleSourceOfTruth:
    """The map lives in repro.errors; the CLI help and docs align."""

    def test_map_lives_in_errors_module(self):
        from repro.errors import CLI_EXIT_CODES, DeadlineExpiredError

        codes = dict(CLI_EXIT_CODES)
        assert codes[DeadlineExpiredError] == 12
        # cli.exit_code_for is the same function, re-exported.
        from repro import cli, errors

        assert cli.exit_code_for is errors.exit_code_for

    def test_deadline_expired_maps_to_12(self):
        from repro.errors import DeadlineExpiredError

        assert exit_code_for(DeadlineExpiredError(0.0)) == 12
        assert exit_code_for(
            RemoteQueryError("DeadlineExpiredError", "spent", 504)
        ) == 12

    @pytest.mark.parametrize("command", ["serve", "client"])
    def test_help_epilog_lists_every_exit_code(self, command, capsys):
        from repro.errors import CLI_EXIT_CODES

        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "exit codes:" in text
        for cls, code in CLI_EXIT_CODES:
            assert f"{code:>2}  {cls.__name__}" in text
        assert "12  DeadlineExpiredError" in text

    def test_docs_table_matches_the_map(self):
        """docs/cli.md's exit-code table names every (code, type) pair
        the map defines — including 12/DeadlineExpiredError."""
        from pathlib import Path

        from repro.errors import CLI_EXIT_CODES

        docs = Path(__file__).resolve().parents[2] / "docs" / "cli.md"
        text = docs.read_text()
        for cls, code in CLI_EXIT_CODES:
            assert f"| {code} |" in text, f"docs missing exit code {code}"
            assert f"`{cls.__name__}`" in text, (
                f"docs missing error type {cls.__name__}"
            )
