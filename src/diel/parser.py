"""Tokenizer and recursive-descent parser for the DIEL dialect.

The grammar is the SQL subset the dialect needs (select lists with aggregates,
CASE and COALESCE, joins with ON predicates, group/having, order-by, limit
with scalar subqueries, subqueries in predicates) plus the extensions:

    CREATE EVENT TABLE t(...);          CREATE EVENT TABLE t AS other;
    CREATE TABLE t(...);                CREATE TABLE t AS other;
    CREATE VIEW v AS SELECT ...;        CREATE ASYNC VIEW v AS SELECT ...;
    CREATE OUTPUT o AS SELECT ...;
    CREATE TEMPLATE name(v1, v2) AS SELECT ... {v1} ...;
    CREATE VIEW/OUTPUT name AS USE TEMPLATE tmpl(v1='x');
    CREATE PROGRAM AFTER (ev1, ev2) BEGIN INSERT INTO h ...; END;
    LATEST / LATEST_REQUEST as table-name modifiers in FROM;
    name NOT EMPTY;                     -- view debugging constraint

Statements end with `;`, `--` starts a line comment, and double-quoted
identifiers never collide with keywords.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ast_nodes import (
    BinaryOp,
    CaseExpr,
    ColumnDef,
    ColumnRef,
    CreateAsyncView,
    CreateEventTable,
    CreateOutput,
    CreateProgram,
    CreateTable,
    CreateTemplate,
    CreateView,
    Expr,
    FuncCall,
    InsertStatement,
    IsNull,
    Join,
    Literal,
    NotEmptyConstraint,
    OrderItem,
    ScalarSubquery,
    SchemaCopy,
    SelectItem,
    SelectQuery,
    Span,
    Star,
    Statement,
    TableRef,
    UnaryOp,
    UseTemplate,
)
from .errors import ParseError, UnknownKeywordError

KEYWORDS = {
    "CREATE", "EVENT", "TABLE", "VIEW", "ASYNC", "OUTPUT", "TEMPLATE", "USE",
    "PROGRAM", "AFTER", "BEGIN", "END", "AS", "SELECT", "FROM", "WHERE",
    "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "JOIN", "LEFT", "OUTER",
    "INNER", "ON", "AND", "OR", "NOT", "CASE", "WHEN", "THEN", "ELSE",
    "NULL", "IS", "LATEST", "LATEST_REQUEST", "INSERT", "INTO", "VALUES",
    "CHECK", "EMPTY", "ASC", "DESC", "INT", "REAL", "TEXT",
}

COLUMN_TYPES = ("INT", "REAL", "TEXT")


@dataclass
class Token:
    kind: str  # 'ident' | 'keyword' | 'number' | 'string' | 'tvar' | operator lexeme | 'eof'
    value: object
    lexeme: str
    pos: int
    line: int
    col: int


# every token, comments included; whitespace is what lies between matches,
# and a character that starts no token is matched alone by the last branch
_TOKEN = re.compile(
    r"""
      [^\W\d]\w*                          # word
    | \d+(?:\.\d+)?|\.\d+                 # number; a bare trailing dot is not part of it
    | --[^\n]*                           # line comment
    | <=|>=|!=|<>|==|[(),;.*=<>+\-/%]     # operator
    | '(?:[^']|'')*'(?!')                # string; '' inside is an escaped quote
    | "[^"]*"                            # quoted identifier
    | \{\w+\}                            # template placeholder
    | \S
    """,
    re.VERBOSE,
)
_OPERATORS = {"<=", ">=", "!=", "<>", "==", *"(),;.*=<>+-/%"}
_UNTERMINATED = {
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
    "{": "malformed template placeholder",
}


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    end = 0
    for match in _TOKEN.finditer(source):
        pos, stop = match.span()
        if pos != end:  # whitespace since the last token
            newlines = source.count("\n", end, pos)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", end, pos) + 1
        end = stop
        text = match.group()
        first = text[0]
        col = pos - line_start + 1
        if first.isalpha() or first == "_":
            upper = text.upper()
            if upper in KEYWORDS:
                append(Token("keyword", upper, text, pos, line, col))
            else:
                append(Token("ident", text, text, pos, line, col))
        elif text in _OPERATORS:
            append(Token(text, text, text, pos, line, col))
        elif first.isdecimal() or first == ".":
            append(Token("number", float(text) if "." in text else int(text), text, pos, line, col))
        elif first == "-":
            continue  # comment
        elif len(text) > 1 and first in "'\"":
            if first == "'":
                append(Token("string", text[1:-1].replace("''", "'"), text, pos, line, col))
            else:
                append(Token("ident", text[1:-1], text, pos, line, col))
            if "\n" in text:  # the only tokens that may span lines
                line += text.count("\n")
                line_start = pos + text.rindex("\n") + 1
        elif len(text) > 1 and first == "{":
            append(Token("tvar", text[1:-1], text, pos, line, col))
        else:  # a lone quote or brace, or a character no token starts with
            raise ParseError(_UNTERMINATED.get(first, f"unexpected character {first!r}"), line, col)
    n = len(source)
    newlines = source.count("\n", end, n)
    if newlines:
        line += newlines
        line_start = source.rindex("\n", end, n) + 1
    append(Token("eof", None, "", n, line, n - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], source: str = ""):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self._program_count = 0

    # -- token plumbing --------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def _peek(self, ahead: int = 1) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def error(self, message: str, expected: set[str] = frozenset()) -> ParseError:
        tok = self.cur
        shown = tok.lexeme or "end of input"
        return ParseError(f"{message}, found {shown!r}", tok.line, tok.col, frozenset(expected))

    def at_keyword(self, *names: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "keyword" and tok.value in names

    def accept_keyword(self, *names: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind == "keyword" and tok.value in names:
            self.pos += 1
            return tok
        return None

    def expect_keyword(self, *names: str) -> Token:
        tok = self.accept_keyword(*names)
        if tok is None:
            raise self.error("unexpected token", set(names))
        return tok

    def accept(self, kind: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind == kind:
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.accept(kind)
        if tok is None:
            raise self.error(f"expected {what or kind}", {kind})
        return tok

    def expect_ident(self, what: str = "identifier") -> str:
        tok = self.accept("ident")
        if tok is None:
            raise self.error(f"expected {what}", {"identifier"})
        return str(tok.value)

    # -- statements ------------------------------------------------------

    def parse_statements(self) -> list[Statement]:
        statements: list[Statement] = []
        while self.cur.kind != "eof":
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> Statement:
        start = self.cur
        if self.at_keyword("CREATE"):
            stmt = self._parse_create()
        elif self.at_keyword("INSERT"):
            raise self.error("INSERT is only allowed inside CREATE PROGRAM bodies")
        elif self.cur.kind == "ident" and self._peek().kind == "keyword" and self._peek().value == "NOT":
            name = self.expect_ident()
            self.expect_keyword("NOT")
            self.expect_keyword("EMPTY")
            stmt = NotEmptyConstraint(name=name)
        else:
            raise self.error("expected a statement", {"CREATE", "<view> NOT EMPTY"})
        semi = self.expect(";", "';' to end the statement")
        stmt.span = Span(start.pos, semi.pos + 1, start.line, start.col)
        return stmt

    def _parse_create(self) -> Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("EVENT"):
            self.expect_keyword("TABLE")
            return self._parse_table_tail(event=True)
        if self.accept_keyword("TABLE"):
            return self._parse_table_tail(event=False)
        if self.accept_keyword("VIEW"):
            return self._parse_query_relation("view")
        if self.accept_keyword("ASYNC"):
            self.expect_keyword("VIEW")
            return self._parse_query_relation("async_view")
        if self.accept_keyword("OUTPUT"):
            return self._parse_query_relation("output")
        if self.accept_keyword("TEMPLATE"):
            return self._parse_template()
        if self.accept_keyword("PROGRAM"):
            return self._parse_program()
        raise UnknownKeywordError(
            f"unknown CREATE form starting with {self.cur.lexeme!r}",
            self.cur.line,
            self.cur.col,
            frozenset({"EVENT", "TABLE", "VIEW", "ASYNC", "OUTPUT", "TEMPLATE", "PROGRAM"}),
        )

    def _parse_table_tail(self, event: bool) -> Statement:
        name = self.expect_ident("table name")
        if self.accept_keyword("AS"):
            source = self.expect_ident("source relation")
            return SchemaCopy(name=name, source=source, event=event)
        self.expect("(")
        columns: list[ColumnDef] = []
        if not self.accept(")"):
            while True:
                columns.append(self._parse_column_def())
                if self.accept(")"):
                    break
                self.expect(",", "',' or ')'")
        if event:
            return CreateEventTable(name=name, columns=columns)
        return CreateTable(name=name, columns=columns)

    def _parse_column_def(self) -> ColumnDef:
        name = self.expect_ident("column name")
        type_tok = self.accept_keyword(*COLUMN_TYPES)
        if type_tok is None:
            raise self.error("expected a column type", set(COLUMN_TYPES))
        check: Expr | None = None
        if self.accept_keyword("CHECK"):
            # parens are optional: `CHECK size > 0` and `CHECK (size > 0)` both parse
            if self.accept("("):
                check = self.parse_expr()
                self.expect(")")
            else:
                check = self.parse_expr()
        return ColumnDef(name=name, type=str(type_tok.value), check=check)

    def _parse_query_relation(self, target: str) -> Statement:
        name = self.expect_ident("relation name")
        self.expect_keyword("AS")
        if self.at_keyword("USE"):
            return self._parse_use_template(name, target)
        query = self.parse_select()
        if target == "view":
            return CreateView(name=name, query=query)
        if target == "async_view":
            return CreateAsyncView(name=name, query=query)
        return CreateOutput(name=name, query=query)

    def _parse_use_template(self, name: str, target: str) -> UseTemplate:
        self.expect_keyword("USE")
        self.expect_keyword("TEMPLATE")
        template = self.expect_ident("template name")
        self.expect("(")
        bindings: dict[str, str] = {}
        if not self.accept(")"):
            while True:
                var = self.expect_ident("template variable")
                self.expect("=")
                val = self.expect("string", "a quoted binding value")
                bindings[var] = str(val.value)
                if self.accept(")"):
                    break
                self.expect(",", "',' or ')'")
        return UseTemplate(name=name, target=target, template=template, bindings=bindings)

    def _parse_template(self) -> CreateTemplate:
        name = self.expect_ident("template name")
        self.expect("(")
        params: list[str] = []
        if not self.accept(")"):
            while True:
                params.append(self.expect_ident("template parameter"))
                if self.accept(")"):
                    break
                self.expect(",", "',' or ')'")
        self.expect_keyword("AS")
        # capture the body as normalized token text up to (not including) the ';'
        body_tokens: list[Token] = []
        depth = 0
        while True:
            tok = self.cur
            if tok.kind == "eof":
                raise self.error("unterminated template body", {";"})
            if tok.kind == ";" and depth == 0:
                break
            if tok.kind == "(":
                depth += 1
            elif tok.kind == ")":
                depth -= 1
            body_tokens.append(tok)
            self.pos += 1
        body = " ".join(t.lexeme for t in body_tokens)
        return CreateTemplate(name=name, params=params, body=body)

    def _parse_program(self) -> CreateProgram:
        self.expect_keyword("AFTER")
        self.expect("(")
        triggers: list[str] = []
        while True:
            triggers.append(self.expect_ident("event table name"))
            if self.accept(")"):
                break
            self.expect(",", "',' or ')'")
        self.expect_keyword("BEGIN")
        commands: list[InsertStatement | SelectQuery] = []
        while not self.at_keyword("END"):
            if self.at_keyword("INSERT"):
                commands.append(self._parse_insert())
            elif self.at_keyword("SELECT"):
                commands.append(self.parse_select())
            else:
                raise self.error("expected a program command", {"INSERT", "SELECT", "END"})
            self.expect(";", "';' after program command")
        self.expect_keyword("END")
        self._program_count += 1
        return CreateProgram(name=f"program_{self._program_count}", triggers=triggers, commands=commands)

    def _parse_insert(self) -> InsertStatement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident("table name")
        columns: list[str] | None = None
        if self.cur.kind == "(":
            self.expect("(")
            columns = []
            while True:
                columns.append(self.expect_ident("column name"))
                if self.accept(")"):
                    break
                self.expect(",", "',' or ')'")
        if self.at_keyword("SELECT"):
            return InsertStatement(name=table, columns=columns, select=self.parse_select())
        self.expect_keyword("VALUES")
        values: list[list[Expr]] = []
        while True:
            self.expect("(")
            row: list[Expr] = []
            if not self.accept(")"):
                while True:
                    row.append(self.parse_expr())
                    if self.accept(")"):
                        break
                    self.expect(",", "',' or ')'")
            values.append(row)
            if not self.accept(","):
                break
        return InsertStatement(name=table, columns=columns, values=values)

    # -- queries ----------------------------------------------------------

    def parse_select(self) -> SelectQuery:
        self.expect_keyword("SELECT")
        items = [self._parse_select_item()]
        while self.accept(","):
            items.append(self._parse_select_item())
        query = SelectQuery(items=items)
        if self.accept_keyword("FROM"):
            query.table = self._parse_table_ref()
            while True:
                if self.accept(","):
                    query.joins.append(Join(kind="cross", table=self._parse_table_ref()))
                    continue
                kind = None
                if self.accept_keyword("JOIN"):
                    kind = "inner"
                elif self.at_keyword("LEFT"):
                    self.expect_keyword("LEFT")
                    self.accept_keyword("OUTER")
                    self.expect_keyword("JOIN")
                    kind = "left"
                elif self.at_keyword("INNER"):
                    self.expect_keyword("INNER")
                    self.expect_keyword("JOIN")
                    kind = "inner"
                if kind is None:
                    break
                table = self._parse_table_ref()
                on = self.parse_expr() if self.accept_keyword("ON") else None
                query.joins.append(Join(kind=kind, table=table, on=on))
        if self.accept_keyword("WHERE"):
            query.where = self.parse_expr()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            query.group_by.append(self.parse_expr())
            while self.accept(","):
                query.group_by.append(self.parse_expr())
        if self.accept_keyword("HAVING"):
            query.having = self.parse_expr()
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            while True:
                expr = self.parse_expr()
                descending = bool(self.accept_keyword("DESC"))
                if not descending:
                    self.accept_keyword("ASC")
                query.order_by.append(OrderItem(expr=expr, descending=descending))
                if not self.accept(","):
                    break
        if self.accept_keyword("LIMIT"):
            query.limit = self.parse_expr()
        return query

    def _parse_select_item(self) -> SelectItem:
        expr = self.parse_expr()
        alias: str | None = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident("alias")
        elif self.cur.kind == "ident":
            alias = self.expect_ident()
        return SelectItem(expr=expr, alias=alias)

    def _parse_table_ref(self) -> TableRef:
        latest = bool(self.accept_keyword("LATEST"))
        latest_request = False
        if not latest:
            latest_request = bool(self.accept_keyword("LATEST_REQUEST"))
        if self.at_keyword("CREATE"):
            raise self.error("CREATE is not allowed inside FROM", {"table name"})
        name = self.expect_ident("table name")
        alias: str | None = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident("alias")
        elif self.cur.kind == "ident":
            alias = self.expect_ident()
        return TableRef(name=name, alias=alias, latest=latest, latest_request=latest_request)

    # -- expressions (precedence climbing) ---------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self.accept_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        while True:
            if self.at_keyword("IS"):
                self.expect_keyword("IS")
                negated = bool(self.accept_keyword("NOT"))
                self.expect_keyword("NULL")
                left = IsNull(left, negated=negated)
                continue
            op = None
            for candidate in ("=", "==", "!=", "<>", "<=", ">=", "<", ">"):
                if self.cur.kind == candidate:
                    op = candidate
                    break
            if op is None:
                return left
            self.pos += 1
            normalized = {"==": "=", "<>": "!="}.get(op, op)
            left = BinaryOp(normalized, left, self._parse_additive())

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self.cur.kind in ("+", "-"):
            op = self.cur.kind
            self.pos += 1
            left = BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while self.cur.kind in ("*", "/", "%"):
            op = self.cur.kind
            self.pos += 1
            left = BinaryOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expr:
        if self.cur.kind == "-":
            self.pos += 1
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        tok = self.cur
        if tok.kind == "number":
            self.pos += 1
            return Literal(tok.value)
        if tok.kind == "string":
            self.pos += 1
            return Literal(tok.value)
        if self.accept_keyword("NULL"):
            return Literal(None)
        if self.at_keyword("CASE"):
            return self._parse_case()
        if tok.kind == "(":
            self.pos += 1
            if self.at_keyword("SELECT"):
                query = self.parse_select()
                self.expect(")")
                return ScalarSubquery(query)
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "*":
            self.pos += 1
            return Star()
        if tok.kind == "ident":
            return self._parse_name_or_call()
        raise self.error("expected an expression", {"literal", "column", "function", "(", "CASE"})

    def _parse_case(self) -> Expr:
        self.expect_keyword("CASE")
        operand: Expr | None = None
        if not self.at_keyword("WHEN"):
            operand = self.parse_expr()
        whens: list[tuple[Expr, Expr]] = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expr()
            self.expect_keyword("THEN")
            whens.append((cond, self.parse_expr()))
        if not whens:
            raise self.error("CASE needs at least one WHEN arm", {"WHEN"})
        else_result: Expr | None = None
        if self.accept_keyword("ELSE"):
            else_result = self.parse_expr()
        self.expect_keyword("END")
        return CaseExpr(operand=operand, whens=whens, else_result=else_result)

    def _parse_name_or_call(self) -> Expr:
        name = self.expect_ident()
        if self.cur.kind == "(":
            self.pos += 1
            if self.accept(")"):
                # zero-argument calls (COUNT(), RANDOM()) normalize to star form
                # for COUNT so the printer emits COUNT(*)
                if name.upper() == "COUNT":
                    return FuncCall(name=name, args=[], star=True)
                return FuncCall(name=name, args=[])
            if self.cur.kind == "*" and self._peek().kind == ")":
                self.pos += 2
                return FuncCall(name=name, args=[], star=True)
            args: list[Expr] = [self._parse_func_arg()]
            while self.accept(","):
                args.append(self._parse_func_arg())
            self.expect(")")
            return FuncCall(name=name, args=args)
        if self.cur.kind == ".":
            self.pos += 1
            if self.cur.kind == "*":
                self.pos += 1
                return Star(table=name)
            column = self.expect_ident("column name")
            return ColumnRef(column=column, table=name)
        return ColumnRef(column=name)

    def _parse_func_arg(self) -> Expr:
        # allow `t.*` as an argument so UDFs can take a relation's user columns
        if self.cur.kind == "ident" and self._peek().kind == "." and self._peek(2).kind == "*":
            table = self.expect_ident()
            self.pos += 2
            return Star(table=table)
        return self.parse_expr()


def parse_diel(source: str) -> list[Statement]:
    """Parse DIEL program text into statements, in source order."""
    parser = _Parser(tokenize(source), source)
    return parser.parse_statements()


def parse_query(source: str) -> SelectQuery:
    """Parse a single SELECT; trailing `;` is optional, anything else is an error."""
    parser = _Parser(tokenize(source), source)
    parser.expect_keyword("SELECT")
    parser.pos -= 1
    query = parser.parse_select()
    parser.accept(";")
    if parser.cur.kind != "eof":
        raise parser.error("trailing input after query")
    return query


def parse_query_tokens(tokens: list[Token]) -> SelectQuery:
    """Parse a token list (already lexed) as a single SELECT query."""
    full = tokens + [Token("eof", None, "", 0, 0, 0)]
    parser = _Parser(full)
    query = parser.parse_select()
    if parser.cur.kind != "eof":
        raise parser.error("trailing input after query")
    return query
