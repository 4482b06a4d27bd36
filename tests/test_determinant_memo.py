"""The memoized basis path of the determinant bracket against its definition.

`DeterminantBracket.eval_indices` caches row images per (row, index) and the
product of the first two algebra-valued rows per ordered index pair;
`DeterminantBracket.__call__` on monomials applies every row afresh and is
the oracle.  Brackets are drawn over Q, Q(i) and F_p on one- and
two-variable Laurent carriers, a group algebra and a table algebra whose
products have several terms, with every mix of identity, endomorphism and
functional rows that keeps at least one row algebra valued.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from trilie.brackets import DeterminantBracket, LaurentFlipBracket
from trilie.carriers import (
    AlternatingSign,
    ConstantOne,
    Endomorphism,
    ExponentValue,
    Functional,
    GroupAlgebra,
    GroupHom,
    GroupHomDerivation,
    GroupHomFunctional,
    GroupNegation,
    IdentityRule,
    IdMinus,
    LaurentAlgebra,
    LaurentDerivation,
    LaurentFlip,
    MonomialScale,
    MonomialShift,
    TableAlgebra,
    TableFunctional,
    TableMap,
    VariableScalingDerivation,
)
from trilie.fields import QI, QQ, GaussianRational, PrimeField

FIELDS = [QQ, QI, PrimeField(3), PrimeField(5), PrimeField(101)]


def scalars(f, nonzero=False):
    """Small field elements; over Q(i) with both parts rational."""
    q = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    if f is QI:
        s = st.builds(GaussianRational, q, q)
    elif f is QQ:
        s = q
    else:
        s = st.integers(0, f.p - 1)
    s = s.map(f.normalize)
    return s.filter(lambda c: not f.is_zero(c)) if nonzero else s


def cubic_algebra(f):
    """F[x]/(x^3 - x - 1) on the basis 1, x, x^2: x * x^2 and x^2 * x^2 have
    two terms each."""
    power = {0: {0: 1}, 1: {1: 1}, 2: {2: 1}, 3: {0: 1, 1: 1}, 4: {1: 1, 2: 1}}
    table = {(a, b): {k: f.embed(c) for k, c in power[a + b].items()}
             for a in range(3) for b in range(a, 3)}
    return TableAlgebra(f, 3, table, labels=["1", "x", "x^2"], unit=0, name="cubic")


@st.composite
def carrier_and_maps(draw, f):
    """(carrier, window, endomorphism rules, functional rules)."""
    shape = draw(st.sampled_from(["laurent-1", "laurent-2", "group", "table"]))
    if shape == "laurent-1":
        A = LaurentAlgebra(f, 1)
        lam = draw(scalars(f, nonzero=True))
        simple = [LaurentFlip((lam,)), LaurentDerivation(draw(st.integers(-2, 2))),
                  MonomialScale(lam), MonomialShift(draw(st.integers(-2, 2)), draw(scalars(f)))]
        endos = simple + [VariableScalingDerivation(0), IdMinus(draw(st.sampled_from(simple)))]
        return A, A.window(2), endos, [AlternatingSign(), ConstantOne(), ExponentValue(0)]
    if shape == "laurent-2":
        A = LaurentAlgebra(f, 2)
        flip = LaurentFlip(tuple(draw(scalars(f, nonzero=True)) for _ in range(2)))
        var = draw(st.integers(0, 1))
        endos = [flip, IdMinus(flip), VariableScalingDerivation(var), IdentityRule()]
        return A, A.window(1), endos, [ConstantOne(), ExponentValue(var)]
    if shape == "group":
        G = GroupAlgebra(f, free_rank=1, torsion=(3,))
        torsion = draw(scalars(f)) if f.characteristic == 3 else f.zero
        hom = GroupHom(G, free_values=[draw(scalars(f))], torsion_values=[torsion])
        endos = [GroupNegation(), GroupHomDerivation(hom), IdMinus(GroupNegation()),
                 IdentityRule()]
        return G, G.window(1), endos, [GroupHomFunctional(hom), ConstantOne()]
    T = cubic_algebra(f)
    entries = st.lists(st.lists(scalars(f), min_size=3, max_size=3), min_size=3, max_size=3)
    endos = [TableMap(draw(entries)) for _ in range(2)]
    return T, T.window(0), endos, [TableFunctional(draw(st.lists(scalars(f), min_size=3,
                                                                  max_size=3)))]


@st.composite
def determinants(draw):
    """(bracket, window): 1, 2 or 3 algebra-valued rows in drawn positions."""
    f = draw(st.sampled_from(FIELDS))
    carrier, window, endos, funcs = draw(carrier_and_maps(f))
    n_alg = draw(st.integers(1, 3))
    algebra_slots = draw(st.permutations(range(3)))[:n_alg]
    rows = []
    for r in range(3):
        if r in algebra_slots:
            rule = draw(st.sampled_from([None] + endos))
            rows.append("id" if rule is None else Endomorphism(carrier, rule))
        else:
            rows.append(Functional(carrier, draw(st.sampled_from(funcs))))
    return DeterminantBracket(carrier, rows), window


def definition(det, i, j, k):
    m = det.carrier.monomial
    return det(m(i), m(j), m(k))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_memoized_eval_indices_equals_the_definition(data):
    det, window = data.draw(determinants())
    index = st.sampled_from(window)
    triples = data.draw(st.lists(st.tuples(index, index, index), min_size=1, max_size=25))
    # repeated arguments, in every position
    a, b = data.draw(index), data.draw(index)
    triples += [(a, a, b), (a, b, a), (b, a, a), (a, a, a)]
    for t in triples + triples[::-1]:  # the second pass reads only the memo
        assert det.eval_indices(*t) == definition(det, *t), t


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutating_a_returned_element_leaves_later_evaluations_alone(data):
    det, window = data.draw(determinants())
    index = st.sampled_from(window)
    t = data.draw(st.tuples(index, index, index))
    u = data.draw(st.tuples(index, index, index))
    want_t, want_u = definition(det, *t), definition(det, *u)
    got = det.eval_indices(*t)
    junk = window[0]
    for x in (got, det.eval_indices(*u)):
        x.terms.clear()
        x.terms[junk] = det.carrier.field.one
    assert det.eval_indices(*t) == want_t
    assert det.eval_indices(*u) == want_u


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cached_flip_scale_equals_the_power_product(data):
    f = data.draw(st.sampled_from([F for F in FIELDS if F.characteristic != 2]))
    nvars = data.draw(st.integers(1, 3))
    lambdas = [data.draw(scalars(f, nonzero=True)) for _ in range(nvars)]
    bracket = LaurentFlipBracket(LaurentAlgebra(f, nvars), lambdas)
    exps = data.draw(st.lists(st.tuples(*[st.integers(-6, 6)] * nvars), min_size=1,
                              max_size=12))
    for e in exps + exps:  # the second pass reads the cache
        want = f.one
        for lam, r in zip(lambdas, e):
            want = f.mul(want, f.pow(lam, r))
        assert bracket._scale(e) == want, e
