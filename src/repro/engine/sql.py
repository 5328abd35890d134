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

Keywords are case-insensitive, ``3 a`` means ``3*a``, and repeated
attributes add up.

Parsing is by statement *shape*.  One regex split cuts a statement at
its numeric literals: every maximal run of ASCII digits that is not
part of an identifier (``a0`` and ``TOP5`` keep theirs).  The text
between the runs is the shape; it keeps every dot, so each literal's
lexical class (``5``, ``5.``, ``5.5``, ``.5``) is part of it and
``TOP 5.5`` never shares a shape with ``TOP 5``.  A bounded,
thread-safe table (an LRU of 1024 shapes) maps a shape to its
template: the table, hint and ``EXPLAIN`` flag, the terms in order,
and a regex of the shape's text with one group per literal.  A
statement fullmatches that regex exactly when it has the shape, so the
template of the previous statement is tried first and a stream of
one shape skips the split and the table.  The literals fill in ``k``,
the layer bound and the weights with the full parse's ``int`` /
``float`` conversions and its term-order accumulation
(``weights.get(a, 0.0) + sign * coefficient``), so the two give equal
:class:`ParsedQuery` values bit for bit — ``-0*a`` and repeated
attributes included.

A new shape is parsed in full once: one compiled regex over the whole
clause skeleton plus one ``findall`` over the expression's terms, run
on the shape with every digit run set to ``1``.  Which statements
match, and where their literals sit, depends only on the shape, so
that parse yields the template.  A shape that does not parse gets no
template; its statements always take the full parse, which raises the
error: a rejected statement is scanned once more to report its first
stray character (``unexpected character ... at position N``).
"""

from __future__ import annotations

import functools
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


def _parse_text(statement: str) -> ParsedQuery:
    """The full regex parse of one statement (raises :class:`SqlError`)."""
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


#: A statement's numeric literals: maximal ASCII digit runs not preceded
#: by an identifier character (a run after one is part of that
#: identifier, or of the run).  ``split`` interleaves the shape's text
#: pieces (even positions) with the runs (odd positions).  The pattern
#: opens with the digit, not the look-behind, so the engine can skip
#: straight to candidate digits.
_DIGITS_RE = re.compile(r"([0-9](?<=(?<![A-Za-z_0-9])[0-9])[0-9]*)")

#: Shapes the template table keeps (least recently used out).
_TEMPLATES = 1024

#: A literal's pattern in a template regex, by its spelling in the
#: shape's canonical text (every digit run set to ``1``).
_LITERAL = {
    "1": r"([0-9]+)",
    "1.": r"([0-9]+\.)",
    ".1": r"(\.[0-9]+)",
    "1.1": r"([0-9]+\.[0-9]+)",
}


@functools.lru_cache(maxsize=_TEMPLATES)
def _template(shape: tuple[str, ...]):
    """The template of a statement shape, or ``None`` when statements
    of that shape do not parse (or hold a literal the shape cannot
    rebuild, such as one with a non-ASCII digit).

    A template is ``(regex, k, bound, table, index_hint, explain,
    terms)``.  ``regex`` is the shape's text with each literal a
    group of its spelling, so a statement fullmatches it exactly when
    it has this shape; ``k`` and ``bound`` index its groups (``bound``
    is ``None`` without a layer predicate) and each term is
    ``(attribute, sign, group)`` (``group`` is ``None`` for an
    unscaled attribute).
    """
    text = "1".join(shape)
    match = _STATEMENT_RE.fullmatch(text)
    if match is None:
        return None
    spans = [match.span("k")]
    if match["bound"] is not None:
        spans.append(match.span("bound"))
    base = match.start("expr")
    terms = []
    for term in _TERM_RE.finditer(match["expr"]):
        group = None
        if term[2]:
            group = len(spans)
            spans.append((base + term.start(2), base + term.end(2)))
        terms.append((term[3], -1.0 if term[1] == "-" else 1.0, group))
    order = sorted(range(len(spans)), key=spans.__getitem__)
    pieces = []
    end = 0
    for i in order:
        start, stop = spans[i]
        pattern = _LITERAL.get(text[start:stop])
        if pattern is None:
            return None
        pieces += [re.escape(text[end:start]), pattern]
        end = stop
    pieces.append(re.escape(text[end:]))
    if "".join(text[a:b] for a, b in spans).count("1") != len(shape) - 1:
        return None  # a digit run outside every literal
    # Groups number the literals in text order.
    group_of = {i: g for g, i in enumerate(order)}
    return (
        re.compile("".join(pieces)),
        group_of[0],
        group_of[1] if match["bound"] is not None else None,
        match["table"],
        match["index"],
        match["explain"] is not None,
        tuple(
            (attribute, sign, None if group is None else group_of[group])
            for attribute, sign, group in terms
        ),
    )


#: The template of the last statement parsed: a statement of the same
#: shape fullmatches its regex and skips the split and the table.
#: Threads may overwrite each other's; a stale one costs one failed
#: match.
_last_template = None

_new_query = object.__new__


def parse(statement: str) -> ParsedQuery:
    """Parse one ranked top-k statement.

    A statement of a shape seen before is filled into that shape's
    cached template; the result equals the full parse's (see the
    module docstring).

    Examples
    --------
    >>> q = parse("SELECT TOP 5 FROM houses ORDER BY 2*price + distance")
    >>> q.k, q.table, sorted(q.order_by.items())
    (5, 'houses', [('distance', 1.0), ('price', 2.0)])
    >>> parse("SELECT TOP 3 FROM d WHERE layer <= 3 ORDER BY a").layer_bound
    3
    """
    global _last_template
    template = _last_template
    match = None if template is None else template[0].fullmatch(statement)
    if match is None:
        template = _template(tuple(_DIGITS_RE.split(statement)[0::2]))
        if template is None:
            return _parse_text(statement)
        match = template[0].fullmatch(statement)
        _last_template = template
    _, k, bound, table, index_hint, explain, terms = template
    literals = match.groups()
    weights: dict[str, float] = {}
    for attribute, sign, group in terms:
        coefficient = 1.0 if group is None else float(literals[group])
        weights[attribute] = weights.get(attribute, 0.0) + sign * coefficient
    # The fields __init__ would set, without its per-field
    # object.__setattr__ (a frozen dataclass's __init__ costs about as
    # much as the rest of this fill).
    query = _new_query(ParsedQuery)
    query.__dict__.update(
        k=int(literals[k]),
        table=table,
        order_by=weights,
        index_hint=index_hint,
        layer_bound=None if bound is None else int(literals[bound]),
        explain=explain,
        extra={},
    )
    return query
