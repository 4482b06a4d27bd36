"""Every bundled document meets its declared expectation.

The p = 5 quotient document is exercised by the acceptance gate instead (its
simplicity campaign enumerates 2.4M lines); everything else runs here.
"""

import pytest

from trilie.bundled import bundled_names, get_bundled
from trilie.campaigns import overall_verdict, run_document
from trilie.documents import parse_document, render_document

FAST_BUNDLED = [n for n in bundled_names() if n != "laurent-quotient-p5"]


@pytest.mark.parametrize("name", FAST_BUNDLED)
def test_bundled_document_meets_expectation(name):
    ctx = parse_document(render_document(get_bundled(name)))
    results = run_document(ctx)
    expect = ctx.doc["meta"].get("expect", "all-pass")
    got = overall_verdict(results)
    detail = [(r.name, r.verdict, r.witness) for r in results if r.verdict != "pass"]
    assert got == expect, f"{name}: {got} != {expect}: {detail}"
    if expect == "any-fail":
        assert all(r.witness is not None for r in results if r.verdict == "fail")


def test_every_bundled_document_names_its_construction():
    for name in bundled_names():
        doc = get_bundled(name)
        assert doc["meta"]["construction"].strip()
        assert doc["description"].strip()


def test_quotient_p5_document_parses():
    # heavy campaigns run in the acceptance gate; here just validate the doc
    ctx = parse_document(render_document(get_bundled("laurent-quotient-p5")))
    assert ctx.doc["carrier"]["p"] == 5
