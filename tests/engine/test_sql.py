"""Tests for the ranked-query SQL dialect."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _outcome(fn, text):
    try:
        q = fn(text)
    except SqlError as exc:
        message = str(exc)
        if message.startswith("unexpected character"):
            return ("stray", message)
        return ("error", None)
    return (
        "ok",
        (q.k, q.table, list(q.order_by.items()), q.index_hint,
         q.layer_bound, q.explain, q.extra),
    )


class TestReferenceEquivalence:
    @settings(max_examples=600, deadline=None)
    @given(_statements())
    def test_matches_reference_parser(self, text):
        assert _outcome(parse, text) == _outcome(reference_parse, text)

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
            "",
        ],
    )
    def test_edge_cases(self, text):
        assert _outcome(parse, text) == _outcome(reference_parse, text)

    def test_stray_character_position(self):
        with pytest.raises(SqlError, match="'@' at position 20"):
            parse("SELECT TOP 5 FROM t @ORDER BY a")
