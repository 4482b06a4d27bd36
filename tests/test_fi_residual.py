"""The shared FI residual and scan against unmemoized oracles.

The oracle is the definition itself, evaluated on carrier elements:
[[x1,x2,x3],y1,y2] - sum_i [x1..[xi,y1,y2]..x3].  The shared residual works on
basis indices through a sparse bracket table; both must give the same carrier
element for every basis case, including the non-alternating negative control.
Tabulated FI, whose scan memoizes the shared structure-constant vectors, is
compared with the same definition evaluated through the multilinear bracket
on random tables, and the checks must leave those vectors as they were.
"""

import collections
import copy
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trilie.brackets import check_fi_window
from trilie.bundled import get_bundled
from trilie.campaigns import build_context
from trilie.carriers import AlgebraElement
from trilie.fields import QI, QQ, GaussianRational, PrimeField
from trilie.structure import (
    FiniteNLieAlgebra,
    _fi_cases,
    _fi_residual,
    _fi_scan,
    _perm_sign,
    certify_simplicity,
    derived_series,
    verify_fundamental_identity,
    verify_skew,
)


def residual_case(bracket, xs, ys):
    carrier = bracket.carrier
    ex = [carrier.monomial(i) for i in xs]
    ey = [carrier.monomial(i) for i in ys]
    lhs = bracket(bracket(*ex), *ey)
    rhs = carrier.zero()
    for t in range(3):
        args = list(ex)
        args[t] = bracket(ex[t], *ey)
        rhs = rhs + bracket(*args)
    return lhs - rhs


def fi_window(name):
    """Bracket and window of the document's fundamental-identity campaign."""
    ctx = build_context(get_bundled(name))
    return ctx.bracket, ctx.basis


@pytest.mark.parametrize("name", ["laurent-flip-unit", "control-pair-mismatch"])
def test_residual_matches_element_oracle(name):
    bracket, window = fi_window(name)
    carrier = bracket.carrier
    index = st.sampled_from(window)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.tuples(index, index, index), st.tuples(index, index))
    def check(xs, ys):
        res = _fi_residual(lambda t: bracket.eval_indices(*t).terms,
                           carrier.field, xs, ys)
        assert AlgebraElement(carrier, res) == residual_case(bracket, xs, ys)

    check()


def test_window_check_reports_the_oracle_failures():
    # exhaustively on the control's window: same cases checked, same first
    # witnesses, so the differential test above is not comparing zeros only
    bracket, window = fi_window("control-pair-mismatch")
    carrier = bracket.carrier
    cases = [(xs, ys) for xs in itertools.combinations(window, 3)
             for ys in itertools.combinations(window, 2)]
    want = [{"x": [carrier.index_str(i) for i in xs],
             "y": [carrier.index_str(i) for i in ys],
             "residual": str(res)}
            for xs, ys in cases
            for res in [residual_case(bracket, xs, ys)] if not res.is_zero()]
    rep = check_fi_window(bracket, window)
    assert rep.checked == len(cases)
    assert want and rep.failures == want[:5]


# ---------------------------------------------------------------------------
# tabulated FI against an unmemoized oracle
# ---------------------------------------------------------------------------

FIELDS = [PrimeField(3), PrimeField(65521), QQ, QI]


def scalars(f):
    if isinstance(f, PrimeField):
        return st.integers(0, f.p - 1)
    q = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return q if f is QQ else st.builds(GaussianRational, q, q)


@st.composite
def tables(draw, f):
    """A sparse alternating 3-ary table with d <= 6 over f (constants keyed
    by increasing triples; the algebra completes the signs)."""
    d = draw(st.integers(3, 6))
    keys = list(itertools.combinations(range(d), 3))
    vec = st.dictionaries(st.integers(0, d - 1), scalars(f), max_size=2)
    constants = draw(st.dictionaries(st.sampled_from(keys), vec, max_size=4))
    L = FiniteNLieAlgebra(f, d, 3, constants)
    mutation = (draw(st.sampled_from(keys)), draw(st.integers(0, d - 1)),
                draw(scalars(f).filter(bool)))
    return L, mutation


def oracle_residual(L, xs, ys):
    """[[x1,x2,x3],y1,y2] - sum_i [x1..[xi,y1,y2]..x3] through the
    multilinear bracket and the field's own operations."""
    f = L.field
    ex = [{i: f.one} for i in xs]
    ey = [{j: f.one} for j in ys]
    out = dict(L.bracket_sparse([L.bracket_sparse(ex)] + ey))
    for t in range(3):
        args = list(ex)
        args[t] = L.bracket_sparse([ex[t]] + ey)
        for l, c in L.bracket_sparse(args).items():
            s = f.sub(out.get(l, f.zero), c)
            if f.is_zero(s):
                out.pop(l, None)
            else:
                out[l] = s
    return out


def oracle_report(L, cases):
    f = L.field
    failures = []
    for xs, ys in cases:
        res = oracle_residual(L, xs, ys)
        if res:
            failures.append({"x": list(xs), "y": list(ys), "residual": " + ".join(
                f"{f.render(res[l])}*{L.labels[l]}" for l in sorted(res))})
    return len(cases), failures[:5]


def sampled_cases(d, samples, seed):
    rng = random.Random(seed)
    return [(tuple(rng.choice(range(d)) for _ in range(3)),
             tuple(rng.choice(range(d)) for _ in range(2))) for _ in range(samples)]


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_tabulated_fi_matches_unmemoized_oracle(f):
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(tables(f))
    def check(drawn):
        L, (key, out, delta) = drawn
        for alg in (L, L.mutate_constant(key, out, delta)):
            d = alg.dim
            exhaustive = [(xs, ys) for xs in itertools.combinations(range(d), 3)
                          for ys in itertools.combinations(range(d), 2)]
            rep = verify_fundamental_identity(alg)
            assert (rep.checked, rep.failures) == oracle_report(alg, exhaustive)
            rep = verify_fundamental_identity(alg, mode="sampled", samples=60, seed=11)
            assert (rep.checked, rep.failures) == oracle_report(alg, sampled_cases(d, 60, 11))

    check()


# ---------------------------------------------------------------------------
# shared vectors are never changed, and the scan evaluates each tuple once
# ---------------------------------------------------------------------------

def quotient_and_mutant():
    L = build_context(get_bundled("laurent-quotient-p3")).algebra
    return [L, L.mutate_constant(min(L.constants), 0, L.field.one)]


@pytest.mark.parametrize("which", ["quotient", "mutated"])
def test_checks_leave_the_structure_constants_unchanged(which):
    L = quotient_and_mutant()[which == "mutated"]
    before = copy.deepcopy(L.constants)
    verify_skew(L)
    verify_fundamental_identity(L)
    verify_fundamental_identity(L, mode="sampled", samples=300, seed=3)
    derived_series(L)
    certify_simplicity(L)
    assert L.constants == before
    f = L.field
    for key, vec in L.constants.items():
        for perm in itertools.permutations(range(3)):
            got = L.bracket_indices(tuple(key[t] for t in perm))
            if _perm_sign(perm) == 1:
                assert got is vec
            else:
                assert got is not vec and got == {l: f.neg(c) for l, c in vec.items()}


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_scan_evaluates_each_distinct_tuple_once(mode):
    for L in quotient_and_mutant():
        calls = collections.Counter()

        def evaluate(t):
            calls[t] += 1
            return L.bracket_indices(t)

        checked, _ = _fi_scan(evaluate, L.field,
                              _fi_cases(range(L.dim), 3, mode, samples=500, seed=5))
        assert checked > 0 and calls and set(calls.values()) == {1}
