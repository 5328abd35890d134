"""Reference token-by-token parser for the ranked SQL dialect.

This is the original recursive-descent implementation of
:func:`repro.engine.sql.parse`, kept as the equivalence oracle for the
regex skeleton that replaced it: on every input the two must return
equal :class:`~repro.engine.sql.ParsedQuery` objects or both raise
:class:`~repro.engine.sql.SqlError`.
"""

from __future__ import annotations

import re

from repro.engine.sql import ParsedQuery, SqlError

__all__ = ["reference_parse"]

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|[*+\-(),])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise SqlError(
                f"unexpected character {match.group()!r} at position {match.start()}"
            )
        tokens.append((kind, match.group()))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self._text = text
        self._tokens = _tokenize(text)
        self._pos = 0

    def _peek(self):
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return ("eof", "")

    def _next(self):
        token = self._peek()
        self._pos += 1
        return token

    def _expect_keyword(self, *words: str) -> str:
        kind, value = self._next()
        if kind != "ident" or value.upper() not in words:
            raise SqlError(
                f"expected {'/'.join(words)}, got {value!r} in {self._text!r}"
            )
        return value.upper()

    def _expect_op(self, op: str) -> None:
        kind, value = self._next()
        if kind != "op" or value != op:
            raise SqlError(f"expected {op!r}, got {value!r} in {self._text!r}")

    def _expect_int(self) -> int:
        kind, value = self._next()
        if kind != "number" or "." in value:
            raise SqlError(f"expected an integer, got {value!r}")
        return int(value)

    def _expect_ident(self) -> str:
        kind, value = self._next()
        if kind != "ident":
            raise SqlError(f"expected an identifier, got {value!r}")
        return value

    def parse(self) -> ParsedQuery:
        explain = False
        kind, value = self._peek()
        if kind == "ident" and value.upper() == "EXPLAIN":
            self._next()
            explain = True
        self._expect_keyword("SELECT")
        self._expect_keyword("TOP")
        k = self._expect_int()
        self._expect_keyword("FROM")
        table = self._expect_ident()

        index_hint = None
        layer_bound = None
        kind, value = self._peek()
        if kind == "ident" and value.upper() == "USING":
            self._next()
            self._expect_keyword("INDEX")
            index_hint = self._expect_ident()
            kind, value = self._peek()
        if kind == "ident" and value.upper() == "WHERE":
            self._next()
            column = self._expect_ident()
            if column.lower() != "layer":
                raise SqlError(
                    f"only 'layer <= c' predicates are supported, got {column!r}"
                )
            self._expect_op("<=")
            layer_bound = self._expect_int()

        self._expect_keyword("ORDER")
        self._expect_keyword("BY")
        weights = self._parse_linear_expression()
        kind, value = self._peek()
        if kind != "eof":
            raise SqlError(f"trailing input starting at {value!r}")
        if k < 0:
            raise SqlError("TOP k must be non-negative")
        return ParsedQuery(
            k=k,
            table=table,
            order_by=weights,
            index_hint=index_hint,
            layer_bound=layer_bound,
            explain=explain,
        )

    def _parse_linear_expression(self) -> dict[str, float]:
        weights: dict[str, float] = {}
        sign = 1.0
        kind, value = self._peek()
        if kind == "op" and value in "+-":
            self._next()
            sign = -1.0 if value == "-" else 1.0
        while True:
            coefficient, attribute = self._parse_term()
            weights[attribute] = weights.get(attribute, 0.0) + sign * coefficient
            kind, value = self._peek()
            if kind == "op" and value in "+-":
                self._next()
                sign = -1.0 if value == "-" else 1.0
                continue
            break
        if not weights:
            raise SqlError("ORDER BY needs at least one attribute term")
        return weights

    def _parse_term(self) -> tuple[float, str]:
        kind, value = self._peek()
        if kind == "number":
            self._next()
            coefficient = float(value)
            kind, value = self._peek()
            if kind == "op" and value == "*":
                self._next()
            attribute = self._expect_ident()
            return coefficient, attribute
        if kind == "ident":
            self._next()
            return 1.0, value
        raise SqlError(f"expected a term, got {value!r}")


def reference_parse(statement: str) -> ParsedQuery:
    """Parse ``statement`` with the token-by-token reference parser."""
    return _Parser(statement).parse()
