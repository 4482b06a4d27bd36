"""The shared FI residual against the element-level oracle.

The oracle is the definition itself, evaluated on carrier elements:
[[x1,x2,x3],y1,y2] - sum_i [x1..[xi,y1,y2]..x3].  The shared residual works on
basis indices through a sparse bracket table; both must give the same carrier
element for every basis case, including the non-alternating negative control.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from trilie.brackets import check_fi_window
from trilie.bundled import get_bundled
from trilie.campaigns import build_context
from trilie.carriers import AlgebraElement
from trilie.structure import _fi_residual


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
