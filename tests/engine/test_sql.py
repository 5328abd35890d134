"""Tests for the ranked-query SQL dialect."""

import itertools
import re
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import sql
from repro.engine.sql import SqlError, parse

from .sql_reference import reference_parse


class TestHappyPath:
    def test_minimal(self):
        q = parse("SELECT TOP 5 FROM houses ORDER BY price")
        assert (q.k, q.table) == (5, "houses")
        assert q.order_by == {"price": 1.0}
        assert q.index_hint is None
        assert q.layer_bound is None

    def test_paper_statement(self):
        q = parse("SELECT TOP 10 FROM D WHERE layer <= 10 ORDER BY 2*a + b")
        assert q.layer_bound == 10
        assert q.order_by == {"a": 2.0, "b": 1.0}

    def test_index_hint(self):
        q = parse("SELECT TOP 3 FROM t USING INDEX robust ORDER BY a")
        assert q.index_hint == "robust"

    def test_hint_and_layer_bound_together(self):
        q = parse(
            "SELECT TOP 3 FROM t USING INDEX r WHERE layer <= 3 ORDER BY a"
        )
        assert q.index_hint == "r"
        assert q.layer_bound == 3

    def test_case_insensitive_keywords(self):
        q = parse("select top 2 from t order by a + b")
        assert q.k == 2

    def test_float_coefficients(self):
        q = parse("SELECT TOP 1 FROM t ORDER BY 0.5*a + 1.25 * b")
        assert q.order_by == {"a": 0.5, "b": 1.25}

    def test_negative_terms(self):
        q = parse("SELECT TOP 1 FROM t ORDER BY a - 2*b - c")
        assert q.order_by == {"a": 1.0, "b": -2.0, "c": -1.0}

    def test_leading_sign(self):
        q = parse("SELECT TOP 1 FROM t ORDER BY -a + b")
        assert q.order_by == {"a": -1.0, "b": 1.0}

    def test_repeated_attribute_accumulates(self):
        q = parse("SELECT TOP 1 FROM t ORDER BY a + 2*a")
        assert q.order_by == {"a": 3.0}

    def test_implicit_multiplication(self):
        q = parse("SELECT TOP 1 FROM t ORDER BY 3 a")
        assert q.order_by == {"a": 3.0}


class TestErrors:
    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT 5 FROM t ORDER BY a",               # missing TOP
            "SELECT TOP five FROM t ORDER BY a",        # non-integer k
            "SELECT TOP 5 FROM t ORDER BY",             # empty expression
            "SELECT TOP 5 FROM t",                      # no ORDER BY
            "SELECT TOP 5 FROM t ORDER BY a extra",     # trailing tokens
            "SELECT TOP 5 FROM t WHERE price <= 3 ORDER BY a",  # bad column
            "SELECT TOP 5 FROM t WHERE layer <= x ORDER BY a",  # bad bound
            "SELECT TOP 5 FROM t ORDER BY 3.5",         # constant only
            "SELECT TOP 2.5 FROM t ORDER BY a",         # fractional k
            "SELECT TOP 5 FROM t USING robust ORDER BY a",  # missing INDEX
        ],
    )
    def test_malformed_statements(self, statement):
        with pytest.raises(SqlError):
            parse(statement)

    def test_unexpected_character(self):
        with pytest.raises(SqlError, match="unexpected character"):
            parse("SELECT TOP 5 FROM t ORDER BY a ; drop")


# ---------------------------------------------------------------------------
# Equivalence with the token-by-token reference parser
# ---------------------------------------------------------------------------

_SPACE = st.sampled_from(["", " ", " ", "  ", "\t", "\n", "  "])
_GAP = st.sampled_from([" ", "  ", "\t", "\n "])  # never merges tokens
_NAMES = st.sampled_from(
    ["a", "b", "price", "x1", "_y", "layer", "order", "Select", "by", "k9"]
)
_NUMBERS = st.sampled_from(
    ["2", "0", "007", "3.", "2.5", ".5", "0.125", "10", "1.0"]
)


def _cased(word: str):
    return st.lists(
        st.booleans(), min_size=len(word), max_size=len(word)
    ).map(lambda flips: "".join(
        c.upper() if f else c.lower() for c, f in zip(word, flips)
    ))


@st.composite
def _terms(draw):
    coefficient = draw(st.one_of(st.just(""), _NUMBERS))
    if coefficient:
        star = draw(st.sampled_from(["*", "", " * ", " "]))
        coefficient = coefficient + star
    return coefficient + draw(_NAMES)


@st.composite
def _statements(draw):
    gap = lambda: draw(_GAP)  # noqa: E731
    space = lambda: draw(_SPACE)  # noqa: E731
    parts = [space()]
    if draw(st.booleans()):
        parts += [draw(_cased("explain")), gap()]
    parts += [draw(_cased("select")), gap(), draw(_cased("top")), gap()]
    parts += [draw(st.sampled_from(["5", "0", "12", "007", "2.5", "x"]))]
    parts += [space(), draw(_cased("from")), gap(), draw(_NAMES), gap()]
    if draw(st.booleans()):
        parts += [draw(_cased("using")), gap(), draw(_cased("index")), gap()]
        parts += [draw(_NAMES), gap()]
    if draw(st.booleans()):
        parts += [draw(_cased("where")), gap()]
        parts += [draw(st.sampled_from(["layer", "LAYER", "price"])), space()]
        parts += [draw(st.sampled_from(["<=", "< =", "="])), space()]
        parts += [draw(st.sampled_from(["3", "40", "1.5", "y"])), space()]
    parts += [draw(_cased("order")), gap(), draw(_cased("by")), gap()]
    n_terms = draw(st.integers(min_value=1, max_value=5))
    lead = draw(st.sampled_from(["", "-", "+", "- "]))
    parts.append(lead + draw(_terms()))
    for _ in range(n_terms - 1):
        parts += [space(), draw(st.sampled_from(["+", "-"])), space()]
        parts.append(draw(_terms()))
    parts.append(space())
    text = "".join(parts)
    # Occasionally corrupt the statement: a stray or misplaced
    # character, or a deleted one.
    edit = draw(st.sampled_from(["none", "none", "insert", "delete"]))
    if edit != "none" and text:
        at = draw(st.integers(min_value=0, max_value=len(text) - 1))
        if edit == "insert":
            char = draw(st.sampled_from(list(";,()<=.*+-5x @éſ")))
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


def _outcome(fn, text, messages=False):
    """What ``fn`` makes of ``text``: the parsed fields, with weights as
    exact bit patterns (so ``-0.0`` differs from ``0.0``), or the error.
    Error messages are compared only for stray characters, or for every
    error with ``messages`` (the two regex paths must agree on all)."""
    try:
        q = fn(text)
    except SqlError as exc:
        message = str(exc)
        if messages or message.startswith("unexpected character"):
            return ("error", message)
        return ("error", None)
    return (
        "ok",
        (q.k, q.table, [(a, w.hex()) for a, w in q.order_by.items()],
         q.index_hint, q.layer_bound, q.explain, q.extra),
    )


#: A number token as the reference tokenizer sees it; identifiers are
#: matched first so their digits (``a0``, ``TOP5``) are never literals.
_NUMBER_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|(\d+\.\d*|\.\d+|\d+)")
_ANY_LITERAL = st.sampled_from(
    ["0", "7", "12", "007", "3.", "2.5", ".5", "0.125", "10", "٣"]
)


def _redrawn(text, literals):
    """``text`` with its number tokens replaced, in order, by
    ``literals`` (cycled)."""
    pieces, end, i = [], 0, 0
    for match in _NUMBER_TOKEN.finditer(text):
        if match[1] is not None:
            pieces += [text[end:match.start()], literals[i % len(literals)]]
            end = match.end()
            i += 1
    pieces.append(text[end:])
    return "".join(pieces)


def _same_class(text, digits):
    """``text`` with every ASCII digit run of its number tokens redrawn
    from ``digits`` (cycled): the same shape, other values."""
    runs = itertools.cycle(digits)
    tokens = [m[1] for m in _NUMBER_TOKEN.finditer(text) if m[1] is not None]
    return _redrawn(
        text, [re.sub(r"[0-9]+", lambda _: next(runs), t) for t in tokens]
    )


def _assert_parses_like_reference(*texts):
    """Each text, parsed after the ones before it (so a repeated shape
    is filled from the template cache), equals the reference parser's
    outcome and the full regex parse's, error messages included."""
    for text in texts:
        assert _outcome(parse, text) == _outcome(reference_parse, text), text
        assert _outcome(parse, text, messages=True) == _outcome(
            sql._parse_text, text, messages=True
        ), text


class TestReferenceEquivalence:
    @settings(max_examples=600, deadline=None)
    @given(
        _statements(),
        st.lists(_ANY_LITERAL, min_size=1, max_size=4),
        st.lists(
            st.text("0123456789", min_size=1, max_size=4), min_size=1,
            max_size=4,
        ),
    )
    def test_matches_reference_parser(self, text, literals, digits):
        # Twice (the second a template hit), then a sibling of the same
        # shape and one with literals of any class.
        _assert_parses_like_reference(
            text, text, _same_class(text, digits), _redrawn(text, literals)
        )

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT TOP 5FROM t ORDER BY a",       # 5 then FROM
            "SELECT TOP5 FROM t ORDER BY a",       # one identifier
            "SELECT TOP 5 FROM t ORDER BY 3a+2 b-.5*a",
            "SELECT TOP 5 FROM t ORDER BY a3",
            "SELECT TOP 5 FROM t ORDER BY 1.2.3*a",
            "SELECT TOP 5 FROM t ORDER BY a - - b",
            "SELECT TOP 5 FROM t ORDER BY a b",
            "SELECT TOP 5 FROM t ORDER BY a*2",
            "SELECT TOP 5 FROM t ORDER BY 2*3*a",
            "SELECT TOP ٣ FROM t ORDER BY a",  # Arabic-Indic digit
            "ſELECT TOP 5 FROM t ORDER BY a",  # long s is not S
            "SELECT TOP 5 FROM t WHERE layer < = 3 ORDER BY a",
            "SELECT TOP 5 FROM t USING INDEX i WHERE layer<=4ORDER BY a",
            "SELECT TOP 5 FROM order ORDER BY select + from",
            "SELECT TOP 5 FROM t ORDER BY a (b)",
            "SELECT TOP 5 FROM t ORDER BY a + 0*a - a",
            "SELECT TOP 5 FROM t ORDER BY -0*a",
            "SELECT TOP 5 FROM t ORDER BY -0*a + b - 0.0*b",
            "SELECT TOP 5 FROM t ORDER BY a0 + 2*a1 + .5*a0 - 2.*a1",
            "SELECT TOP 5 FROM t ORDER BY .5*a + 2.*b + 2.5 c",
            "EXPLAIN SELECT TOP 5 FROM t ORDER BY a",
            "SELECT TOP 5 FROM t USING INDEX i2 ORDER BY 3*x",
            "SELECT TOP 5 FROM t WHERE layer <= 12 ORDER BY 3*x",
            "SELECT TOP 5 FROM t USING INDEX i WHERE layer<=4 ORDER BY a",
            "SELECT TOP 5.5 FROM t ORDER BY a",
            "SELECT TOP .5 FROM t ORDER BY a",
            "SELECT TOP 5 FROM t WHERE layer <= 2. ORDER BY a",
            "SELECT TOP 5 FROM t ORDER BY 2..5*a",
            "SELECT TOP 5 FROM t ORDER BY 2.5.5*a",
            "SELECT TOP 5 FROM t ORDER BY 5 # a",
            "SELECT TOP ٣5 FROM t ORDER BY a",
            "SELECT TOP 5 FROM t ORDER BY ٣*a",
            "",
        ],
    )
    def test_edge_cases(self, text):
        siblings = [
            _same_class(text, ["9", "40", "0"]),
            _redrawn(text, ["2.5", "0"]),
            _redrawn(text, [".25", "3", "1."]),
        ]
        _assert_parses_like_reference(text, text, *siblings)

    def test_literal_class_is_part_of_the_shape(self):
        # A template built from "TOP 5" must not serve "TOP 5.5".
        assert parse("SELECT TOP 5 FROM t ORDER BY a").k == 5
        with pytest.raises(SqlError):
            parse("SELECT TOP 5.5 FROM t ORDER BY a")
        q = parse("SELECT TOP 5 FROM t ORDER BY 2*a")
        assert q.order_by == {"a": 2.0}
        assert parse("SELECT TOP 5 FROM t ORDER BY .5*a").order_by == {
            "a": 0.5
        }
        assert parse("SELECT TOP 5 FROM t ORDER BY 2.*a").order_by == {
            "a": 2.0
        }

    def test_negative_zero_term_matches_bit_for_bit(self):
        for _ in range(2):
            q = parse("SELECT TOP 1 FROM t ORDER BY -0*a - 0.0*b + c - 0*c")
            assert [w.hex() for w in q.order_by.values()] == [
                w.hex()
                for w in reference_parse(
                    "SELECT TOP 1 FROM t ORDER BY -0*a - 0.0*b + c - 0*c"
                ).order_by.values()
            ]

    def test_template_table_is_bounded(self):
        info = sql._template.cache_info()
        assert info.maxsize == sql._TEMPLATES
        for i in range(sql._TEMPLATES + 5):
            parse(f"SELECT TOP 1 FROM t ORDER BY a{i} + 2*b")
        assert sql._template.cache_info().currsize <= sql._TEMPLATES

    def test_valid_statements_are_filled_from_templates(self, monkeypatch):
        """A statement that parses has a template: the full parse only
        runs to raise errors."""
        monkeypatch.setattr(
            sql, "_parse_text", lambda text: pytest.fail(f"full parse {text!r}")
        )
        for k, a, b in [(5, "0.25", "2"), (50, "0.125", "3"), (7, ".5", "2.")]:
            q = parse(
                f"SELECT TOP {k} FROM t USING INDEX i1 WHERE layer <= {k} "
                f"ORDER BY {a}*a0 + a1 - {b} a2"
            )
            assert q == reference_parse(
                f"SELECT TOP {k} FROM t USING INDEX i1 WHERE layer <= {k} "
                f"ORDER BY {a}*a0 + a1 - {b} a2"
            )

    def test_concurrent_callers_get_their_own_answers(self):
        """Threads interleaving shapes (and so overwriting each other's
        last template) still parse every statement exactly."""
        shapes = [
            "SELECT TOP {} FROM t ORDER BY {}*a + 2*b",
            "SELECT TOP {} FROM t USING INDEX i ORDER BY a - {}*b",
            "SELECT TOP {} FROM t WHERE layer <= 9 ORDER BY .{}*c",
            "EXPLAIN SELECT TOP {} FROM u ORDER BY {}.5*a0 + a1",
        ]
        texts = [
            shape.format(i % 97, i % 13 + 1)
            for i in range(400)
            for shape in shapes
        ]
        expected = [_outcome(reference_parse, text) for text in texts]

        def work(offset):
            order = texts[offset:] + texts[:offset]
            return [_outcome(parse, text) for text in order], offset

        with ThreadPoolExecutor(max_workers=4) as pool:
            for outcomes, offset in pool.map(work, [0, 1, 2, 3]):
                assert outcomes == expected[offset:] + expected[:offset]

    def test_identifier_digits_are_not_literals(self):
        a = parse("SELECT TOP 5 FROM t ORDER BY 2*a0 + 3*a1")
        b = parse("SELECT TOP 7 FROM t ORDER BY 4*a1 + 5*a0")
        assert a.order_by == {"a0": 2.0, "a1": 3.0}
        assert b.order_by == {"a1": 4.0, "a0": 5.0}
        assert parse("SELECT TOP 5FROM t ORDER BY a").k == 5
        with pytest.raises(SqlError):
            parse("SELECT TOP5 FROM t ORDER BY a")

    def test_stray_character_position(self):
        with pytest.raises(SqlError, match="'@' at position 20"):
            parse("SELECT TOP 5 FROM t @ORDER BY a")
