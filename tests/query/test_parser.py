"""Regular-query grammar and structure tests (§3)."""

import pytest

from repro.errors import QueryError
from repro.query import parse_query
from repro.query.predicates import (
    DimensionEquals,
    Equals,
    InSet,
    Not,
)


def test_single_link():
    q = parse_query("location=Room")
    assert len(q) == 1
    assert q.is_fixed_length
    assert isinstance(q.links[0].predicate, Equals)
    assert q.links[0].predicate.signature() == "location=Room"


def test_multi_link_fixed_length():
    q = parse_query("location=Door -> location=Room")
    assert len(q) == 2
    assert q.is_fixed_length
    assert not q.has_positive_loops
    assert q.signature() == "location=Door -> location=Room"


def test_negated_kleene_loop():
    q = parse_query("location=D -> (!location=R)* location=R")
    assert len(q) == 2
    assert not q.is_fixed_length
    assert not q.has_positive_loops  # the loop is negated
    link = q.links[1]
    assert link.has_loop and not link.has_positive_loop
    assert isinstance(link.loop, Not)
    assert link.loop.signature() == "!location=R"
    # Negated loops need no index support.
    sigs = [p.signature() for p in q.indexable_predicates()]
    assert sigs == ["location=D", "location=R"]


def test_positive_kleene_loop_is_indexable():
    q = parse_query("location=D -> (location=H)* location=R")
    assert q.has_positive_loops
    sigs = [p.signature() for p in q.indexable_predicates()]
    assert "location=H" in sigs


def test_in_set_predicate():
    q = parse_query("location in {O300, O301} -> location=Hall")
    pred = q.links[0].predicate
    assert isinstance(pred, InSet)
    assert pred.values == ("O300", "O301")


def test_dimension_predicate_requires_table():
    text = "dim(location,LocationType)=Hallway -> location=R"
    with pytest.raises(QueryError, match="unknown dimension table"):
        parse_query(text)
    tables = {"LocationType": {"H1": "Hallway", "R1": "Office"}}
    q = parse_query(text, dimensions=tables)
    pred = q.links[0].predicate
    assert isinstance(pred, DimensionEquals)
    assert pred.base_values() == ["H1"]


def test_parse_errors():
    with pytest.raises(QueryError):
        parse_query("")
    with pytest.raises(QueryError):
        parse_query("location=A -> ")
    with pytest.raises(QueryError):
        parse_query("location ~ A")
    # No range predicates and no quoted values with spaces
    # (docs/QUERY_LANGUAGE.md).
    with pytest.raises(QueryError):
        parse_query("temp in [18, 25]")
    with pytest.raises(QueryError):
        parse_query("location='a b'")
    with pytest.raises(QueryError, match="first link"):
        parse_query("(location=H)* location=R")


def test_query_name_defaults_to_text():
    text = "location=Door -> location=Room"
    assert parse_query(text).name == text
    assert parse_query(text, name="entered").name == "entered"
