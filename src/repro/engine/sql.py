"""A tiny SQL dialect for ranked queries.

The paper's point about deployability is that once layers are
materialized as a column, a robust-index top-k query is *plain SQL*::

    SELECT TOP k FROM D WHERE layer <= k ORDER BY f_rank

This module parses exactly that shape (plus an index hint) into a
:class:`ParsedQuery`:

    [EXPLAIN] SELECT TOP <k> FROM <table>
        [USING INDEX <name>]
        [WHERE layer <= <c>]
        ORDER BY <linear expression>

``EXPLAIN`` asks the executor for the cost-ranked plan alternatives
instead of the rows.

where the linear expression is a ``+``/``-`` combination of optionally
scaled attributes, e.g. ``2*price + distance - 0.5*age``.

Parsing is one compiled regex over the whole clause skeleton plus one
``findall`` over the expression's terms — no per-token Python.  Keywords
are case-insensitive, ``3 a`` means ``3*a``, and repeated attributes
add up.  A rejected statement is scanned once more to report its first
stray character (``unexpected character ... at position N``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["ParsedQuery", "parse", "SqlError"]


class SqlError(ValueError):
    """Raised on any malformed statement, with position context."""


@dataclass(frozen=True)
class ParsedQuery:
    """Structured form of a ranked top-k statement."""

    k: int
    table: str
    order_by: dict[str, float]  # attribute -> weight
    index_hint: str | None = None
    layer_bound: int | None = None
    explain: bool = False
    extra: dict = field(default_factory=dict)


#: One token of the dialect, for error reporting: a statement the
#: skeleton rejects is scanned with this to locate its first stray
#: character (``bad``).
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

# Token patterns.  An identifier must not run on into the next
# character, so the skeleton splits a statement exactly where a
# longest-match tokenizer would (``TOP5`` is one identifier, while
# ``5FROM`` is ``5`` then ``FROM``).  Numbers need no such guard:
# nothing that may follow one starts with a digit or a dot.
_END_IDENT = r"(?![A-Za-z_0-9])"
_IDENT = r"[A-Za-z_][A-Za-z_0-9]*" + _END_IDENT
_INT = r"\d+"
_NUMBER = r"(?:\d+\.\d*|\.\d+|\d+)"


def _keyword(word: str) -> str:
    # ASCII-only case folding: identifiers are ASCII, so e.g. the long
    # s (U+017F) must not match an ``S``.
    return rf"(?ai:{word}){_END_IDENT}"


#: One term of the linear expression: optional sign, optional
#: coefficient (``2*a``, ``2 a``), attribute.
_TERM_RE = re.compile(
    rf"([+\-]?)\s*(?:({_NUMBER})\s*(?:\*\s*)?)?([A-Za-z_][A-Za-z_0-9]*)"
)
_TERM = rf"(?:{_NUMBER}\s*(?:\*\s*)?)?{_IDENT}"

#: Every clause up to and including ``ORDER BY``.
_HEAD = (
    rf"\s*(?:(?P<explain>{_keyword('EXPLAIN')})\s*)?"
    rf"{_keyword('SELECT')}\s*{_keyword('TOP')}\s*(?P<k>{_INT})\s*"
    rf"{_keyword('FROM')}\s*(?P<table>{_IDENT})\s*"
    rf"(?:{_keyword('USING')}\s*{_keyword('INDEX')}\s*(?P<index>{_IDENT})\s*)?"
    rf"(?:{_keyword('WHERE')}\s*{_keyword('layer')}\s*<=\s*"
    rf"(?P<bound>{_INT})\s*)?"
    rf"{_keyword('ORDER')}\s*{_keyword('BY')}"
)
_HEAD_RE = re.compile(_HEAD)

#: The whole statement; ``expr`` is re-read term by term by _TERM_RE.
_STATEMENT_RE = re.compile(
    rf"{_HEAD}\s*(?P<expr>[+\-]?\s*{_TERM}(?:\s*[+\-]\s*{_TERM})*)\s*"
)

_SHAPE = (
    "[EXPLAIN] SELECT TOP <k> FROM <table> [USING INDEX <name>] "
    "[WHERE layer <= <c>] ORDER BY <linear expression>"
)


def _reject(text: str) -> SqlError:
    """The error for a statement the skeleton does not match."""
    for match in _TOKEN_RE.finditer(text):
        if match.lastgroup == "bad":
            return SqlError(
                f"unexpected character {match.group()!r} at position "
                f"{match.start()}"
            )
    head = _HEAD_RE.match(text)
    if head is not None:
        return SqlError(
            f"malformed ORDER BY expression {text[head.end():].strip()!r} "
            f"in {text!r}: expected a +/- combination of optionally "
            "scaled attributes, e.g. '2*price + distance'"
        )
    return SqlError(f"malformed statement {text!r}; expected {_SHAPE}")


def parse(statement: str) -> ParsedQuery:
    """Parse one ranked top-k statement.

    Examples
    --------
    >>> q = parse("SELECT TOP 5 FROM houses ORDER BY 2*price + distance")
    >>> q.k, q.table, sorted(q.order_by.items())
    (5, 'houses', [('distance', 1.0), ('price', 2.0)])
    >>> parse("SELECT TOP 3 FROM d WHERE layer <= 3 ORDER BY a").layer_bound
    3
    """
    match = _STATEMENT_RE.fullmatch(statement)
    if match is None:
        raise _reject(statement)
    weights: dict[str, float] = {}
    for sign, number, attribute in _TERM_RE.findall(match["expr"]):
        coefficient = float(number) if number else 1.0
        value = (-1.0 if sign == "-" else 1.0) * coefficient
        weights[attribute] = weights.get(attribute, 0.0) + value
    bound = match["bound"]
    return ParsedQuery(
        k=int(match["k"]),
        table=match["table"],
        order_by=weights,
        index_hint=match["index"],
        layer_bound=None if bound is None else int(bound),
        explain=match["explain"] is not None,
    )
