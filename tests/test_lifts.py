import itertools
from fractions import Fraction

import pytest

from trilie.fields import GaussianRational, PrimeField, QI, QQ
from trilie.carriers import HypothesisViolation
from trilie.lifts import (
    LieAlgebra,
    _mat_mul,
    _solve_in_span,
    dirac_gamma_matrices,
    gamma_algebra,
    general_linear,
    gl_trace_lift,
    killing_form,
    lie_lift,
    metric_extension,
    sl2,
)
from trilie.structure import (
    FiniteNLieAlgebra,
    derived_algebra,
    verify_fundamental_identity,
    verify_skew,
)


# ---------------------------------------------------------------------------
# Lie algebra scaffolding
# ---------------------------------------------------------------------------

def test_gl2_commutator_table():
    gl = general_linear(QQ, 2)
    # [E12, E21] = E11 - E22 with row-major indices E12=1, E21=2
    assert gl.bracket_indices((1, 2)) == {0: Fraction(1), 3: Fraction(-1)}
    assert gl.bracket_indices((2, 1)) == {0: Fraction(-1), 3: Fraction(1)}


def test_lie_algebra_is_the_arity_2_table():
    gl = general_linear(QQ, 2)
    assert isinstance(gl, FiniteNLieAlgebra) and gl.arity == 2
    assert verify_skew(gl).passed
    assert verify_fundamental_identity(gl).passed


@pytest.mark.parametrize("constants", [
    {(0, 5): {1: Fraction(1)}},         # a key outside the basis
    {(0, 1): {7: Fraction(1)}},         # an output index outside the basis
])
def test_lie_table_keys_and_outputs_must_lie_in_the_basis(constants):
    with pytest.raises(ValueError):
        LieAlgebra(QQ, 2, constants)


def test_jacobi_validation_rejects_bad_constants():
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebra(QQ, 3, {(0, 1): {2: Fraction(1)}, (0, 2): {0: Fraction(1)},
                           (1, 2): {0: Fraction(1)}})


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
@pytest.mark.parametrize("m", [2, 3])
def test_gl_killing_form_matches_the_trace_formula(field, m):
    # B(X, Y) = 2m tr(XY) - 2 tr(X) tr(Y) on gl(m); E_ab E_cd = d_bc E_ad
    units = [(a, b) for a in range(m) for b in range(m)]
    B = killing_form(general_linear(field, m))
    for i, (a, b) in enumerate(units):
        for j, (c, d) in enumerate(units):
            tr_xy = int(b == c and a == d)
            want = 2 * m * tr_xy - 2 * int(a == b) * int(c == d)
            assert B[i][j] == field.embed(want)


def test_sl2_killing_form():
    B = killing_form(sl2(QQ))
    assert B == [
        [Fraction(0), Fraction(4), Fraction(0)],
        [Fraction(4), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(8)],
    ]


# ---------------------------------------------------------------------------
# cyclic trace lift
# ---------------------------------------------------------------------------

def test_gl2_trace_lift_basic_bracket():
    L = gl_trace_lift(QQ, 2)
    # [E11, E12, E21] = tr(E11)[E12,E21] = E11 - E22
    assert L.bracket_indices((0, 1, 2)) == {0: Fraction(1), 3: Fraction(-1)}


def test_traceless_triple_vanishes():
    L = gl_trace_lift(QQ, 2)
    # e = E12, f = E21, h = E11 - E22 are all traceless
    e = {1: Fraction(1)}
    f = {2: Fraction(1)}
    h = {0: Fraction(1), 3: Fraction(-1)}
    assert L.bracket_sparse([e, f, h]) == {}


def test_zero_functional_gives_abelian():
    gl = general_linear(QQ, 2)
    L = lie_lift(gl, [QQ.zero] * 4)
    assert not L.constants


def test_lift_rejects_functional_not_killing_derived():
    gl = general_linear(QQ, 2)
    bad = [QQ.zero, QQ.one, QQ.zero, QQ.zero]  # dual of E12, but E12 = [E11,E12]
    with pytest.raises(HypothesisViolation):
        lie_lift(gl, bad)


def test_gl_trace_lift_satisfies_fi():
    for m in (2, 3):
        L = gl_trace_lift(QQ, m)
        assert verify_skew(L).passed
        assert verify_fundamental_identity(L).passed


# ---------------------------------------------------------------------------
# metric extension
# ---------------------------------------------------------------------------

def test_metric_extension_sl2_killing():
    lie = sl2(QQ)
    L = metric_extension(lie, killing_form(lie))
    assert L.dim == 5
    # [x0, e, f] = [e, f] = h
    assert L.bracket_indices((0, 1, 3)) == {2: Fraction(1)}
    # xminus is central: every bracket containing index 4 vanishes
    for i, j in itertools.combinations(range(4), 2):
        assert L.bracket_indices((i, j, 4)) == {}
    # [e, f, h] = B([e,f], h) xminus = B(h,h) xminus = 8 xminus
    assert L.bracket_indices((0, 1, 2)) == {4: Fraction(8)}
    assert verify_fundamental_identity(L).passed


def test_metric_extension_rejects_non_invariant_form():
    lie = sl2(QQ)
    identity = [[QQ.one if i == j else QQ.zero for j in range(3)] for i in range(3)]
    with pytest.raises(HypothesisViolation, match="invariant"):
        metric_extension(lie, identity)


def test_metric_extension_rejects_degenerate_form():
    lie = sl2(QQ)
    zero = [[QQ.zero] * 3 for _ in range(3)]
    with pytest.raises(HypothesisViolation, match="degenerate"):
        metric_extension(lie, zero)


def test_metric_extension_rejects_a_form_of_rank_one_less():
    # symmetric, nonzero and of rank m - 1: only the rank test refuses it
    lie = sl2(QQ)
    form = [[QQ.one if i == j and i < 2 else QQ.zero for j in range(3)] for i in range(3)]
    with pytest.raises(HypothesisViolation, match="degenerate"):
        metric_extension(lie, form)


def test_solve_in_span_returns_coefficients_or_none():
    i = QI.i
    span = [[QI.one, QI.zero, i], [QI.zero, QI.one, QI.one], [QI.one, QI.one, i + QI.one]]
    c = [QI.normalize(2), i, QI.zero]
    target = [sum((c[k] * v[q] for k, v in enumerate(span)), QI.zero) for q in range(3)]
    coeffs = _solve_in_span(span, target)
    assert coeffs is not None and len(coeffs) == 3
    assert [sum((coeffs[k] * v[q] for k, v in enumerate(span)), QI.zero)
            for q in range(3)] == target
    # the third vector is the sum of the first two: the free coefficient is zero
    assert QI.is_zero(coeffs[2])
    assert _solve_in_span(span, [QI.zero, QI.zero, QI.one]) is None
    assert _solve_in_span(span, [QI.zero] * 3) == [QI.zero] * 3


def test_metric_extension_abelian_lie():
    abelian = LieAlgebra(QQ, 2, {})
    identity = [[QQ.one if i == j else QQ.zero for j in range(2)] for i in range(2)]
    L = metric_extension(abelian, identity)
    assert L.dim == 4 and not L.constants


# ---------------------------------------------------------------------------
# gamma matrices
# ---------------------------------------------------------------------------

def test_gamma_matrices_clifford_relations():
    gs = dirac_gamma_matrices()
    zero = [[GaussianRational(0)] * 4 for _ in range(4)]
    ident = [[GaussianRational(1 if r == c else 0) for c in range(4)] for r in range(4)]

    def anticomm(a, b):
        ab = _mat_mul(a, b)
        ba = _mat_mul(b, a)
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]

    for a in range(4):
        for b in range(a + 1, 4):
            assert anticomm(gs[a], gs[b]) == zero
    for j in range(3):
        sq = _mat_mul(gs[j], gs[j])
        assert sq == [[-x for x in row] for row in ident]
    assert _mat_mul(gs[3], gs[3]) == ident


def test_gamma_algebra_structure():
    L = gamma_algebra()
    assert L.dim == 4 and L.field == QI
    # hand computation: [g1,g2,g3] = [[g1,g2] g5, g3] = -4 g4
    assert L.bracket_indices((0, 1, 2)) == {3: QI.embed(-4)}
    # repeated arguments vanish
    assert L.bracket_indices((0, 0, 1)) == {}


def test_gamma_algebra_fi_and_derived():
    L = gamma_algebra()
    rep = verify_fundamental_identity(L)
    assert rep.passed and rep.notes["covered"] == 4 ** 5
    assert verify_skew(L).passed
    assert derived_algebra(L).dim == 4


def test_gamma_every_basis_bracket_nonzero():
    L = gamma_algebra()
    for key in itertools.combinations(range(4), 3):
        assert L.constants.get(key), f"bracket {key} unexpectedly zero"
