"""Every bundled document meets its declared expectation.

The p = 5 quotient document is exercised by the acceptance gate instead (its
simplicity campaign enumerates 2.4M lines); everything else runs here.
"""

from fractions import Fraction

import pytest

from trilie import structure as st
from trilie.fields import GaussianRational
from trilie.bundled import bundled_names, get_bundled
from trilie.campaigns import build_context, overall_verdict, run_document
from trilie.documents import ConfigError, parse_document, render_document

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


def canonical_rational(q):
    """An int, or a Fraction whose denominator is > 1: never a float, never
    an integral Fraction."""
    return type(q) is int or (type(q) is Fraction and q.denominator > 1)


def test_bundled_structure_constants_over_q_and_qi_are_canonical():
    # whatever layer computed them, the tabulated constants of the Q and Q(i)
    # documents are canonical rationals (per component for Q(i))
    tabulated = []
    for name in bundled_names():
        doc = get_bundled(name)
        if doc["field"]["kind"] not in ("rationals", "gaussian-rationals"):
            continue
        algebra = parse_document(render_document(doc)).algebra
        if algebra is None:
            continue
        tabulated.append(name)
        for key, vec in algebra.constants.items():
            for c in vec.values():
                parts = (c.re, c.im) if type(c) is GaussianRational else (c,)
                assert all(map(canonical_rational, parts)), (name, key, c)
    assert "dirac-gamma" in tabulated and "gl2-trace-lift" in tabulated, tabulated


def test_every_bundled_document_names_its_construction():
    for name in bundled_names():
        doc = get_bundled(name)
        assert doc["meta"]["construction"].strip()
        assert doc["description"].strip()


def test_quotient_p5_document_parses():
    # heavy campaigns run in the acceptance gate; here just validate the doc
    ctx = parse_document(render_document(get_bundled("laurent-quotient-p5")))
    assert ctx.doc["carrier"]["p"] == 5


@pytest.mark.parametrize("name, expect, verdict, dims", [
    ("dirac-gamma", "stabilizes-full", "pass", [4, 4]),
    # solvable but not nilpotent: the lower central series stops at dim 3
    ("gl2-trace-lift", "vanishes", "fail", [4, 3, 3]),
])
def test_lower_central_series_campaign(name, expect, verdict, dims):
    doc = get_bundled(name)
    doc["campaigns"] = [{"name": "lcs", "check": "lower-central-series", "expect": expect}]
    ctx = build_context(doc)
    (result,) = run_document(ctx)
    assert result.verdict == verdict
    assert result.notes["dims"] == dims == st.lower_central_series(ctx.algebra).dims


def test_library_budget_overrides_the_document_and_must_be_positive():
    ctx = parse_document(render_document(get_bundled("laurent-quotient-p3")))
    simplicity = [c["name"] for c in ctx.doc["campaigns"] if c["check"] == "simplicity"]
    for budget in (0, -3):
        with pytest.raises(ConfigError, match="positive"):
            run_document(ctx, budget=budget)
    by_name = {r.name: r for r in run_document(ctx, budget=10)}
    assert [by_name[n].counts for n in simplicity] == [{"required": 364, "budget": 10}]
    by_name = {r.name: r for r in run_document(ctx)}
    assert [by_name[n].verdict for n in simplicity] == ["pass"]
