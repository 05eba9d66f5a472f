"""Every query in docs/QUERY_LANGUAGE.md's ``query`` blocks parses."""

import os
import re

import pytest

from repro.query import parse_query

DOC = os.path.join(os.path.dirname(__file__), "..", "..", "docs",
                   "QUERY_LANGUAGE.md")
DIMENSIONS = {"LocationType": {"Door": "Doorway", "Room": "Office"}}


def doc_queries():
    with open(DOC) as handle:
        text = handle.read()
    blocks = re.findall(r"^```query\n(.*?)^```", text, re.M | re.S)
    return [line.strip() for block in blocks
            for line in block.splitlines() if line.strip()]


def test_doc_has_query_blocks():
    assert len(doc_queries()) >= 5


@pytest.mark.parametrize("text", doc_queries())
def test_doc_query_parses_and_round_trips(text):
    query = parse_query(text, dimensions=DIMENSIONS)
    again = parse_query(query.signature(), dimensions=DIMENSIONS)
    assert again.signature() == query.signature()
