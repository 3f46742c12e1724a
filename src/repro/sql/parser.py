"""Recursive-descent parser for the paper's SQL2 subset.

Grammar (informal)::

    statement    := query_expr | create_table | insert | update | delete
                    | txn_control
    query_expr   := query_term ((UNION | EXCEPT) [ALL] query_term)*
    query_term   := query_prim (INTERSECT [ALL] query_prim)*
    query_prim   := select_query | '(' query_expr ')'
    select_query := SELECT [ALL|DISTINCT] select_list
                    FROM table_ref (',' table_ref)*
                    [WHERE condition] [ORDER BY order_list]
    condition    := or-expression over comparisons, BETWEEN, IN,
                    IS [NOT] NULL, [NOT] EXISTS (query), NOT, parentheses
    create_table := CREATE TABLE name '(' element (',' element)* ')'
    insert       := INSERT INTO name ['(' cols ')'] VALUES row (',' row)*
    update       := UPDATE name SET col '=' operand (',' ...) [WHERE condition]
    delete       := DELETE FROM name [WHERE condition]
    txn_control  := (BEGIN | COMMIT | ROLLBACK) [TRANSACTION | WORK]

INTERSECT binds tighter than UNION/EXCEPT, matching the SQL standard.
"""

from __future__ import annotations

from ..errors import ParseError
from ..types.values import NULL
from .ast import (
    Assignment,
    BeginTransaction,
    CheckClause,
    ColumnDef,
    CommitTransaction,
    CreateTable,
    Delete,
    ForeignKeyClause,
    Insert,
    OrderItem,
    PrimaryKeyClause,
    Quantifier,
    Query,
    RollbackTransaction,
    SelectItem,
    SelectQuery,
    SetOperation,
    SetOpKind,
    Star,
    Statement,
    TableRef,
    UniqueClause,
    Update,
)
from .expressions import (
    Between,
    ColumnRef,
    Comparison,
    Exists,
    Expr,
    HostVar,
    InList,
    InSubquery,
    IsNull,
    Literal,
    Not,
    conjoin,
    disjoin,
)
from .lexer import tokenize
from .tokens import Token, TokenType


class Parser:
    """Parses a token stream into statements."""

    def __init__(self, text: str) -> None:
        self._tokens = tokenize(text)
        self._pos = 0

    # ------------------------------------------------------------------
    # token-stream helpers

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _at_keyword(self, *names: str) -> bool:
        return self._peek().is_keyword(*names)

    def _accept_keyword(self, *names: str) -> Token | None:
        if self._at_keyword(*names):
            return self._advance()
        return None

    def _expect_keyword(self, name: str) -> Token:
        token = self._peek()
        if not token.is_keyword(name):
            raise self._error(f"expected {name}")
        return self._advance()

    def _at_punct(self, value: str) -> bool:
        token = self._peek()
        return token.type is TokenType.PUNCT and token.value == value

    def _accept_punct(self, value: str) -> bool:
        if self._at_punct(value):
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> Token:
        if not self._at_punct(value):
            raise self._error(f"expected {value!r}")
        return self._advance()

    def _expect_identifier(self, what: str = "identifier") -> str:
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return str(token.value)
        # Non-reserved use of type keywords as names is not needed for the
        # paper's schema, so identifiers must be plain.
        raise self._error(f"expected {what}")

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        found = "end of input" if token.type is TokenType.EOF else repr(token.value)
        return ParseError(f"{message}, found {found}", token.line, token.column)

    # ------------------------------------------------------------------
    # entry points

    def parse_statement(self) -> Statement:
        """Parse a single statement, requiring all input be consumed."""
        statement = self._statement()
        self._accept_punct(";")
        if self._peek().type is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        return statement

    def parse_script(self) -> list[Statement]:
        """Parse a ';'-separated sequence of statements."""
        statements: list[Statement] = []
        while self._peek().type is not TokenType.EOF:
            statements.append(self._statement())
            while self._accept_punct(";"):
                pass
        return statements

    def _statement(self) -> Statement:
        if self._at_keyword("CREATE"):
            return self._create_table()
        if self._at_keyword("INSERT"):
            return self._insert()
        if self._at_keyword("UPDATE"):
            return self._update()
        if self._at_keyword("DELETE"):
            return self._delete()
        if self._at_keyword("BEGIN", "COMMIT", "ROLLBACK"):
            return self._transaction_control()
        return self._query_expr()

    # ------------------------------------------------------------------
    # queries

    def _query_expr(self) -> Query:
        left = self._query_term()
        while self._at_keyword("UNION", "EXCEPT"):
            kind = SetOpKind(self._advance().value)
            all_rows = self._accept_keyword("ALL") is not None
            right = self._query_term()
            left = SetOperation(kind, all_rows, left, right)
        return left

    def _query_term(self) -> Query:
        left = self._query_primary()
        while self._at_keyword("INTERSECT"):
            self._advance()
            all_rows = self._accept_keyword("ALL") is not None
            right = self._query_primary()
            left = SetOperation(SetOpKind.INTERSECT, all_rows, left, right)
        return left

    def _query_primary(self) -> Query:
        if self._accept_punct("("):
            query = self._query_expr()
            self._expect_punct(")")
            return query
        return self._select_query()

    def _select_query(self) -> SelectQuery:
        self._expect_keyword("SELECT")
        quantifier = Quantifier.ALL
        if self._accept_keyword("DISTINCT"):
            quantifier = Quantifier.DISTINCT
        else:
            self._accept_keyword("ALL")
        select_list = self._select_list()
        self._expect_keyword("FROM")
        tables = [self._table_ref()]
        while self._accept_punct(","):
            tables.append(self._table_ref())
        where = None
        if self._accept_keyword("WHERE"):
            where = self._condition()
        order_by: list[OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._order_item())
            while self._accept_punct(","):
                order_by.append(self._order_item())
        return SelectQuery(
            quantifier=quantifier,
            select_list=tuple(select_list),
            tables=tuple(tables),
            where=where,
            order_by=tuple(order_by),
        )

    def _select_list(self) -> list[SelectItem | Star]:
        items: list[SelectItem | Star] = [self._select_item()]
        while self._accept_punct(","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem | Star:
        if self._accept_punct("*"):
            return Star()
        token = self._peek()
        if (
            token.type is TokenType.IDENTIFIER
            and self._peek(1).type is TokenType.PUNCT
            and self._peek(1).value == "."
            and self._peek(2).type is TokenType.PUNCT
            and self._peek(2).value == "*"
        ):
            qualifier = self._expect_identifier()
            self._expect_punct(".")
            self._expect_punct("*")
            return Star(qualifier)
        expr = self._column_ref()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("alias")
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._expect_identifier("alias")
        return SelectItem(expr, alias)

    def _order_item(self) -> OrderItem:
        expr = self._column_ref()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return OrderItem(expr, ascending)

    def _table_ref(self) -> TableRef:
        name = self._expect_identifier("table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("alias")
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._expect_identifier("alias")
        return TableRef(name, alias)

    # ------------------------------------------------------------------
    # conditions

    def _condition(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        parts = [self._and_expr()]
        while self._accept_keyword("OR"):
            parts.append(self._and_expr())
        return disjoin(parts) if len(parts) > 1 else parts[0]

    def _and_expr(self) -> Expr:
        parts = [self._not_expr()]
        while self._accept_keyword("AND"):
            parts.append(self._not_expr())
        return conjoin(parts) if len(parts) > 1 else parts[0]

    def _not_expr(self) -> Expr:
        if self._accept_keyword("NOT"):
            return Not(self._not_expr())
        return self._predicate()

    def _predicate(self) -> Expr:
        if self._at_keyword("EXISTS"):
            self._advance()
            self._expect_punct("(")
            query = self._query_expr()
            self._expect_punct(")")
            return Exists(query)
        if self._at_punct("("):
            # In this subset a parenthesized item at predicate position is
            # always a Boolean group (there is no scalar arithmetic).
            self._advance()
            inner = self._condition()
            self._expect_punct(")")
            return inner
        operand = self._operand()
        return self._predicate_tail(operand)

    def _predicate_tail(self, operand: Expr) -> Expr:
        token = self._peek()
        if token.type is TokenType.OPERATOR:
            op = str(self._advance().value)
            right = self._operand()
            return Comparison(op, operand, right)
        if self._accept_keyword("IS"):
            negated = self._accept_keyword("NOT") is not None
            self._expect_keyword("NULL")
            return IsNull(operand, negated)
        negated = self._accept_keyword("NOT") is not None
        if self._accept_keyword("BETWEEN"):
            low = self._operand()
            self._expect_keyword("AND")
            high = self._operand()
            return Between(operand, low, high, negated)
        if self._accept_keyword("IN"):
            self._expect_punct("(")
            if self._at_keyword("SELECT"):
                query = self._query_expr()
                self._expect_punct(")")
                return InSubquery(operand, query, negated)
            items = [self._operand()]
            while self._accept_punct(","):
                items.append(self._operand())
            self._expect_punct(")")
            return InList(operand, tuple(items), negated)
        if negated:
            raise self._error("expected BETWEEN or IN after NOT")
        raise self._error("expected a comparison, IS NULL, BETWEEN or IN")

    def _operand(self) -> Expr:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return Literal(token.value)
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)
        if token.type is TokenType.HOST_VAR:
            self._advance()
            return HostVar(str(token.value))
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(NULL)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if token.type is TokenType.IDENTIFIER:
            return self._column_ref()
        raise self._error("expected a value or column reference")

    def _column_ref(self) -> ColumnRef:
        first = self._expect_identifier("column reference")
        if self._at_punct(".") and self._peek(1).type is TokenType.IDENTIFIER:
            self._advance()
            column = self._expect_identifier("column name")
            return ColumnRef(first, column)
        return ColumnRef(None, first)

    # ------------------------------------------------------------------
    # DDL

    def _create_table(self) -> CreateTable:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        name = self._expect_identifier("table name")
        self._expect_punct("(")
        columns: list[ColumnDef] = []
        constraints: list = []
        while True:
            if self._at_keyword("PRIMARY"):
                constraints.append(self._primary_key_clause())
            elif self._at_keyword("UNIQUE"):
                constraints.append(self._unique_clause())
            elif self._at_keyword("CHECK"):
                constraints.append(self._check_clause())
            elif self._at_keyword("FOREIGN"):
                constraints.append(self._foreign_key_clause())
            else:
                column, extra = self._column_def()
                columns.append(column)
                constraints.extend(extra)
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return CreateTable(name, tuple(columns), tuple(constraints))

    def _column_def(self) -> tuple[ColumnDef, list]:
        name = self._expect_identifier("column name")
        type_name, length = self._type_spec()
        not_null = False
        check: Expr | None = None
        extra: list = []
        while True:
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                not_null = True
            elif self._at_keyword("PRIMARY"):
                self._advance()
                self._expect_keyword("KEY")
                extra.append(PrimaryKeyClause((name,)))
                not_null = True
            elif self._accept_keyword("UNIQUE"):
                extra.append(UniqueClause((name,)))
            elif self._at_keyword("CHECK"):
                self._advance()
                self._expect_punct("(")
                check = self._condition()
                self._expect_punct(")")
            elif self._accept_keyword("REFERENCES"):
                ref_table = self._expect_identifier("referenced table")
                ref_columns: tuple[str, ...] = ()
                if self._accept_punct("("):
                    ref_columns = self._column_name_list()
                extra.append(ForeignKeyClause((name,), ref_table, ref_columns))
            else:
                break
        return ColumnDef(name, type_name, length, not_null, check), extra

    def _type_spec(self) -> tuple[str, int | None]:
        token = self._peek()
        if token.is_keyword("INT", "INTEGER"):
            self._advance()
            return "INT", None
        if token.is_keyword("CHAR", "VARCHAR"):
            self._advance()
            length = None
            if self._accept_punct("("):
                size = self._peek()
                if size.type is not TokenType.NUMBER:
                    raise self._error("expected a length")
                self._advance()
                length = int(size.value)
                self._expect_punct(")")
            return str(token.value), length
        if token.type is TokenType.IDENTIFIER:
            # Permit user-defined / unrecognized type names (e.g. DECIMAL).
            self._advance()
            length = None
            if self._accept_punct("("):
                size = self._peek()
                if size.type is not TokenType.NUMBER:
                    raise self._error("expected a length")
                self._advance()
                length = int(size.value)
                self._expect_punct(")")
            return str(token.value), length
        raise self._error("expected a column type")

    def _column_name_list(self) -> tuple[str, ...]:
        names = [self._expect_identifier("column name")]
        while self._accept_punct(","):
            names.append(self._expect_identifier("column name"))
        self._expect_punct(")")
        return tuple(names)

    def _primary_key_clause(self) -> PrimaryKeyClause:
        self._expect_keyword("PRIMARY")
        self._expect_keyword("KEY")
        self._expect_punct("(")
        return PrimaryKeyClause(self._column_name_list())

    def _unique_clause(self) -> UniqueClause:
        self._expect_keyword("UNIQUE")
        self._expect_punct("(")
        return UniqueClause(self._column_name_list())

    def _check_clause(self) -> CheckClause:
        self._expect_keyword("CHECK")
        self._expect_punct("(")
        condition = self._condition()
        self._expect_punct(")")
        return CheckClause(condition)

    def _foreign_key_clause(self) -> ForeignKeyClause:
        self._expect_keyword("FOREIGN")
        self._expect_keyword("KEY")
        self._expect_punct("(")
        columns = self._column_name_list()
        self._expect_keyword("REFERENCES")
        ref_table = self._expect_identifier("referenced table")
        ref_columns: tuple[str, ...] = ()
        if self._accept_punct("("):
            ref_columns = self._column_name_list()
        return ForeignKeyClause(columns, ref_table, ref_columns)

    # ------------------------------------------------------------------
    # DML

    def _insert(self) -> Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_identifier("table name")
        columns: tuple[str, ...] | None = None
        if self._accept_punct("("):
            columns = self._column_name_list()
        self._expect_keyword("VALUES")
        rows = [self._values_row()]
        while self._accept_punct(","):
            rows.append(self._values_row())
        return Insert(table, columns, tuple(rows))

    def _update(self) -> Update:
        self._expect_keyword("UPDATE")
        table = self._expect_identifier("table name")
        self._expect_keyword("SET")
        assignments = [self._assignment()]
        while self._accept_punct(","):
            assignments.append(self._assignment())
        where = None
        if self._accept_keyword("WHERE"):
            where = self._condition()
        return Update(table, tuple(assignments), where)

    def _assignment(self) -> Assignment:
        column = self._expect_identifier("column name")
        token = self._peek()
        if token.type is not TokenType.OPERATOR or token.value != "=":
            raise self._error("expected '=' in SET assignment")
        self._advance()
        return Assignment(column, self._operand())

    def _delete(self) -> Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_identifier("table name")
        where = None
        if self._accept_keyword("WHERE"):
            where = self._condition()
        return Delete(table, where)

    def _transaction_control(self):
        token = self._advance()
        # Optional noise words SQL spells after the verb.
        self._accept_keyword("TRANSACTION") or self._accept_keyword("WORK")
        if token.is_keyword("BEGIN"):
            return BeginTransaction()
        if token.is_keyword("COMMIT"):
            return CommitTransaction()
        return RollbackTransaction()

    def _values_row(self) -> tuple:
        self._expect_punct("(")
        values = [self._literal_value()]
        while self._accept_punct(","):
            values.append(self._literal_value())
        self._expect_punct(")")
        return tuple(values)

    def _literal_value(self):
        token = self._peek()
        if token.type in (TokenType.NUMBER, TokenType.STRING):
            self._advance()
            return token.value
        if token.type is TokenType.HOST_VAR:
            # Host variables in VALUES make INSERT parameterizable
            # (``executemany`` batches); the DML executor resolves them
            # against the statement's bindings.
            self._advance()
            return HostVar(str(token.value))
        if token.is_keyword("NULL"):
            self._advance()
            return NULL
        if token.is_keyword("TRUE"):
            self._advance()
            return True
        if token.is_keyword("FALSE"):
            self._advance()
            return False
        raise self._error("expected a literal value")


def parse(text: str) -> Statement:
    """Parse a single SQL statement."""
    return Parser(text).parse_statement()


def parse_query(text: str) -> Query:
    """Parse a statement and require it to be a query."""
    return require_query(parse(text))


def require_query(statement: Statement) -> Query:
    """*statement* itself when it is a query, else :class:`ParseError`.

    For callers that hold an already-parsed statement and need what
    :func:`parse_query` guarantees without lexing the text again.
    """
    if not isinstance(statement, (SelectQuery, SetOperation)):
        raise ParseError("expected a query")
    return statement


def parse_script(text: str) -> list[Statement]:
    """Parse a ';'-separated script of statements."""
    return Parser(text).parse_script()


def parse_condition(text: str) -> Expr:
    """Parse a bare search condition (used by tests and the analyzer)."""
    parser = Parser(text)
    condition = parser._condition()
    if parser._peek().type is not TokenType.EOF:
        raise parser._error("unexpected trailing input")
    return condition
