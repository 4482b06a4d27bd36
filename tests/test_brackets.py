import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trilie.fields import QI, GaussianRational, PrimeField, QQ
from trilie.carriers import (
    AlgebraElement,
    ConstantOne,
    Endomorphism,
    Functional,
    GroupAlgebra,
    GroupHom,
    GroupHomDerivation,
    GroupNegation,
    HypothesisViolation,
    IdentityRule,
    LaurentAlgebra,
    LaurentDerivation,
    LaurentFlip,
    MonomialScale,
    QuotientLaurentAlgebra,
    VariableScalingDerivation,
)
from trilie import brackets, carriers
from trilie.bundled import get_bundled
from trilie.campaigns import run_campaign
from trilie.documents import parse_document, render_document
from trilie.structure import MAX_WITNESSES
from trilie.brackets import (
    ClosureFailure,
    DeterminantBracket,
    GroupWedgeBracket,
    LaurentFlipBracket,
    LaurentParityBracket,
    QuotientParityBracket,
    check_agreement,
    check_alternating,
    check_derivation,
    check_fi_window,
    check_involution_antisymmetry,
    check_parity_family_vanishing,
    check_principal_ideal_membership,
    functional_det,
    laurent_reachability,
    pair_bracket_delta,
    pair_bracket_omega,
    parity_bracket,
    tabulate,
    _binomial_reduction,
)


@pytest.fixture
def A():
    return LaurentAlgebra(QQ, 1)


def mono(A, m, c=None):
    return A.monomial((m,), c)


# ---------------------------------------------------------------------------
# determinant bracket
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("position", range(3))
def test_an_id_row_is_the_identity_endomorphism(A, position):
    rows = [Endomorphism(A, MonomialScale(QQ.embed(-1))), Functional(A, ConstantOne()),
            Endomorphism(A, LaurentDerivation(0))]
    with_id, with_map = list(rows), list(rows)
    with_id[position], with_map[position] = "id", Endomorphism(A, IdentityRule())
    by_id, by_map = DeterminantBracket(A, with_id), DeterminantBracket(A, with_map)
    window = A.window(2)
    for t in itertools.product(window, repeat=3):
        xs = [A.monomial(i) for i in t]
        assert by_id.eval_indices(*t) == by_map.eval_indices(*t) == by_map(*xs) == by_id(*xs)


def test_det_bracket_sign_id_deriv(A):
    # rows (sign involution e=-1, identity, d/dt) on (t^2, 1, t) -> 4 t^2
    rows = [
        Endomorphism(A, MonomialScale(QQ.embed(-1))),
        "id",
        Endomorphism(A, LaurentDerivation(0)),
    ]
    br = DeterminantBracket(A, rows)
    out = br(mono(A, 2), mono(A, 0), mono(A, 1))
    assert out == mono(A, 2, Fraction(4))


def test_det_bracket_repeated_argument_vanishes(A):
    rows = [
        Endomorphism(A, LaurentFlip((Fraction(2),))),
        "id",
        Endomorphism(A, LaurentDerivation(1)),
    ]
    br = DeterminantBracket(A, rows)
    x, y = mono(A, 1) + mono(A, -2), mono(A, 3)
    assert br(x, x, y).is_zero()


def test_det_bracket_functional_row_with_plain_derivative(A):
    # rows (constant-1 functional, identity, d/dt) on (1, t, t^2):
    # hand expansion gives t^2 - 2t + 1
    rows = [Functional(A, ConstantOne()), "id", Endomorphism(A, LaurentDerivation(0))]
    br = DeterminantBracket(A, rows)
    out = br(mono(A, 0), mono(A, 1), mono(A, 2))
    assert out == mono(A, 2) + mono(A, 1, Fraction(-2)) + mono(A, 0)


def test_det_bracket_functional_row_with_euler_derivative(A):
    # same rows but with t d/dt: hand expansion gives t^3 - 2t^2 + t
    rows = [Functional(A, ConstantOne()), "id", Endomorphism(A, LaurentDerivation(1))]
    br = DeterminantBracket(A, rows)
    out = br(mono(A, 0), mono(A, 1), mono(A, 2))
    assert out == mono(A, 3) + mono(A, 2, Fraction(-2)) + mono(A, 1)


def test_det_bracket_rejects_all_functional_rows(A):
    phi = Functional(A, ConstantOne())
    with pytest.raises(ValueError):
        DeterminantBracket(A, [phi, phi, phi])


def test_functional_det_parity_coefficient(A):
    from trilie.carriers import AlternatingSign, ExponentValue

    alpha = Functional(A, AlternatingSign())
    beta = Functional(A, ConstantOne())
    gamma = Functional(A, ExponentValue())
    closed = parity_bracket(A, (0,))
    for (l, m, n) in [(0, 1, 2), (2, 0, 1), (-3, 1, 4), (0, 2, 4)]:
        got = functional_det(alpha, beta, gamma, mono(A, l), mono(A, m), mono(A, n))
        want = closed.eval_indices((l,), (m,), (n,)).terms.get((l + m + n,), QQ.zero)
        assert got == want


def test_jacobian_style_bracket_from_three_commuting_derivations():
    # three-variable Laurent ring, rows = the three scaling derivations;
    # the determinant of commuting derivations is an alternating 3-bracket
    # satisfying the fundamental identity
    from trilie.carriers import VariableScalingDerivation

    B = LaurentAlgebra(QQ, 3)
    rows = [Endomorphism(B, VariableScalingDerivation(j)) for j in range(3)]
    br = DeterminantBracket(B, rows)
    # [t1, t2, t3] = det of the exponent matrix = 1 on t1*t2*t3
    out = br.eval_indices((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert out == B.monomial((1, 1, 1))
    assert br.eval_indices((1, 0, 0), (1, 0, 0), (0, 0, 1)).is_zero()
    rep = check_fi_window(br, B.window(1), mode="sampled", samples=120, seed=3)
    assert rep.passed


# ---------------------------------------------------------------------------
# 2-ary brackets
# ---------------------------------------------------------------------------

def test_pair_bracket_delta(A):
    d0 = Endomorphism(A, LaurentDerivation(0))
    assert pair_bracket_delta(d0, mono(A, 1), mono(A, 2)) == mono(A, 2)


def test_pair_bracket_repeated(A):
    d0 = Endomorphism(A, LaurentDerivation(0))
    x = mono(A, 1) + mono(A, 3, Fraction(5))
    assert pair_bracket_delta(d0, x, x).is_zero()


def test_pair_bracket_omega_group_negation():
    G = GroupAlgebra(QQ, free_rank=1)
    w = Endomorphism(G, GroupNegation())
    e1, e2 = G.monomial((1,)), G.monomial((2,))
    # w(e1) e2 - w(e2) e1 = e_{1} ... = e_1 - e_-1
    assert pair_bracket_omega(w, e1, e2) == G.monomial((1,)) - G.monomial((-1,))


# ---------------------------------------------------------------------------
# group wedge closed form
# ---------------------------------------------------------------------------

def group_setup(field=QQ, free=1, torsion=(), hom_free=None, hom_tor=None):
    G = GroupAlgebra(field, free_rank=free, torsion=torsion)
    hf = hom_free if hom_free is not None else [field.one] * free
    ht = hom_tor if hom_tor is not None else [field.zero] * len(torsion)
    alpha = GroupHom(G, free_values=hf, torsion_values=ht)
    return G, alpha


def test_group_bracket_integers():
    G, alpha = group_setup()
    br = GroupWedgeBracket(alpha)
    out = br.eval_indices((1,), (2,), (3,))
    expected = G.monomial((4,)) + G.monomial((2,), Fraction(-2)) + G.monomial((0,))
    assert out == expected


def test_group_bracket_skew():
    G, alpha = group_setup()
    br = GroupWedgeBracket(alpha)
    assert br.eval_indices((2,), (2,), (5,)).is_zero()


def test_group_bracket_cyclic_mod3():
    F3 = PrimeField(3)
    G, alpha = group_setup(field=F3, free=0, torsion=(3,), hom_free=[], hom_tor=[1])
    br = GroupWedgeBracket(alpha)
    out = br.eval_indices((0,), (1,), (2,))
    assert out == G.monomial((0,)) + G.monomial((1,)) + G.monomial((2,))


def test_group_bracket_agrees_with_determinant_rows():
    G, alpha = group_setup()
    closed = GroupWedgeBracket(alpha)
    det = DeterminantBracket(G, [
        Endomorphism(G, GroupNegation()),
        "id",
        Endomorphism(G, GroupHomDerivation(alpha)),
    ])
    report = check_agreement(closed, det, G.window(2))
    assert report.passed and report.checked == 125


def test_group_bracket_collision_combining():
    # torsion group Z_4 over F_5: indices h+w-g and g+w-h can collide
    F5 = PrimeField(5)
    G, alpha = group_setup(field=F5, free=0, torsion=(4,), hom_free=[], hom_tor=[0])
    # alpha must satisfy 4*a = 0 mod 5 => a = 0; use a second hom on Z_5 instead
    G5 = GroupAlgebra(F5, torsion=[5])
    alpha5 = GroupHom(G5, torsion_values=[1])
    closed = GroupWedgeBracket(alpha5)
    det = DeterminantBracket(G5, [
        Endomorphism(G5, GroupNegation()),
        "id",
        Endomorphism(G5, GroupHomDerivation(alpha5)),
    ])
    assert check_agreement(closed, det, G5.basis_indices()).passed


# ---------------------------------------------------------------------------
# Laurent flip closed form
# ---------------------------------------------------------------------------

def test_flip_bracket_lambda_one(A):
    br = LaurentFlipBracket(A, [Fraction(1)])
    out = br.eval_indices((0,), (1,), (2,))
    assert out == mono(A, 3) + mono(A, 1, Fraction(-2)) + mono(A, -1)


def test_flip_bracket_lambda_two(A):
    br = LaurentFlipBracket(A, [Fraction(2)])
    out = br.eval_indices((0,), (1,), (2,))
    assert out == mono(A, 3) + mono(A, 1, Fraction(-4)) + mono(A, -1, Fraction(4))


def test_flip_bracket_repeated(A):
    br = LaurentFlipBracket(A, [Fraction(3)])
    assert br.eval_indices((1,), (1,), (2,)).is_zero()


def test_flip_bracket_rejects_zero_lambda(A):
    with pytest.raises(HypothesisViolation):
        LaurentFlipBracket(A, [Fraction(0)])


def test_flip_bracket_rejects_char_two():
    A2 = LaurentAlgebra(PrimeField(2), 1)
    with pytest.raises(HypothesisViolation):
        LaurentFlipBracket(A2, [1])


def test_flip_agrees_with_determinant(A):
    lam = Fraction(2)
    closed = LaurentFlipBracket(A, [lam])
    det = DeterminantBracket(A, [
        Endomorphism(A, LaurentFlip((lam,))),
        "id",
        Endomorphism(A, LaurentDerivation(1)),
    ])
    assert check_agreement(closed, det, A.window(3)).passed


def test_flip_multivariable_agrees_with_determinant():
    from trilie.carriers import VariableScalingDerivation

    B = LaurentAlgebra(QQ, 2)
    lams = (Fraction(2), Fraction(3))
    for j in range(2):
        closed = LaurentFlipBracket(B, lams, var=j)
        det = DeterminantBracket(B, [
            Endomorphism(B, LaurentFlip(lams)),
            "id",
            Endomorphism(B, VariableScalingDerivation(j)),
        ])
        assert check_agreement(closed, det, B.window(1)).passed


def test_flip_involution_antisymmetry(A):
    # w([x,y,z]) = -[w x, w y, w z] for the lambda = 1 flip bracket
    br = LaurentFlipBracket(A, [Fraction(1)])
    w = Endomorphism(A, LaurentFlip((Fraction(1),)))
    assert check_involution_antisymmetry(br, w, A.window(3)).passed


# ---------------------------------------------------------------------------
# parity coefficient closed forms
# ---------------------------------------------------------------------------

def test_parity_bracket_shift_zero(A):
    br = LaurentParityBracket(A, shift=0)
    assert br.eval_indices((2,), (0,), (1,)) == mono(A, 2, Fraction(4))


def test_parity_bracket_all_even_vanishes(A):
    br = LaurentParityBracket(A, shift=0)
    assert br.eval_indices((0,), (2,), (4,)).is_zero()


def test_parity_bracket_repeated(A):
    br = LaurentParityBracket(A, shift=2)
    assert br.eval_indices((3,), (3,), (1,)).is_zero()


def test_parity_agrees_with_determinant(A):
    for k in (0, 1, 2):
        closed = LaurentParityBracket(A, shift=2 * k)
        det = DeterminantBracket(A, [
            Endomorphism(A, MonomialScale(QQ.embed(-1))),
            "id",
            Endomorphism(A, LaurentDerivation(2 * k)),
        ])
        assert check_agreement(closed, det, A.window(3)).passed


# ---------------------------------------------------------------------------
# quotient closed form
# ---------------------------------------------------------------------------

def quotient_bracket(p):
    F = PrimeField(p)
    Q = QuotientLaurentAlgebra(F, p)
    return Q, QuotientParityBracket(Q)


def test_quotient_case_boundary_family():
    # [t^{p-1}, t^p, t^{2-p}] = 4 t^p, which is t^p over F_3
    Q, br = quotient_bracket(3)
    out = br.eval_indices((2,), (3,), (-1,))
    assert out == Q.monomial((3,), 1)


def test_quotient_interior_family():
    # [t^l, t^p, t^{1-p}] has coefficient (-1)^l - 2l + 1; l = 2 gives -2 = 1 mod 3
    Q, br = quotient_bracket(3)
    out = br.eval_indices((2,), (3,), (-2,))
    assert out == Q.monomial((2,), 1)


def test_quotient_repeated():
    Q, br = quotient_bracket(3)
    assert br.eval_indices((1,), (1,), (2,)).is_zero()


def test_quotient_requires_matching_characteristic():
    Q = QuotientLaurentAlgebra(QQ, 3)
    with pytest.raises(HypothesisViolation):
        QuotientParityBracket(Q)
    Q2 = QuotientLaurentAlgebra(PrimeField(2), 2)
    with pytest.raises(HypothesisViolation):
        QuotientParityBracket(Q2)


# ---------------------------------------------------------------------------
# the one closed form against the determinant oracle, on drawn parameters
# ---------------------------------------------------------------------------

ODD_FIELDS = [QQ, QI, PrimeField(3), PrimeField(5), PrimeField(7)]


def scalars(f, nonzero=False):
    """Small field elements; over Q(i) with both parts rational."""
    q = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    if f is QI:
        s = st.builds(GaussianRational, q, q)
    else:
        s = q if f is QQ else st.integers(0, f.p - 1)
    s = s.map(f.normalize)
    return s.filter(lambda c: not f.is_zero(c)) if nonzero else s


@st.composite
def closed_forms(draw):
    """(closed form, determinant with rows (omega, id, delta) from the map
    rules, window) for a drawn form and parameterisation."""
    form = draw(st.sampled_from(["flip", "wedge", "parity", "monomial-parity", "quotient"]))
    if form == "flip":
        f, nvars = draw(st.sampled_from(ODD_FIELDS)), draw(st.integers(1, 2))
        A, var = LaurentAlgebra(f, nvars), draw(st.integers(0, nvars - 1))
        lambdas = [draw(scalars(f, nonzero=True)) for _ in range(nvars)]
        return (LaurentFlipBracket(A, lambdas, var), A,
                [LaurentFlip(lambdas), VariableScalingDerivation(var)], A.window(3 // nvars))
    if form == "wedge":
        # a hom on Z^a x Z_m over F_p vanishes on the torsion unless p | m
        f = draw(st.sampled_from([PrimeField(3), PrimeField(5)]))
        m = draw(st.sampled_from([2, 3, 4, 5, 6, 10]))
        G = GroupAlgebra(f, free_rank=draw(st.integers(0, 2)), torsion=(m,))
        torsion = draw(scalars(f)) if m % f.p == 0 else f.zero
        hom = GroupHom(G, [draw(scalars(f)) for _ in range(G.free_rank)], [torsion])
        return GroupWedgeBracket(hom), G, [GroupNegation(), GroupHomDerivation(hom)], G.window(1)
    if form == "quotient":
        p = draw(st.sampled_from([3, 5, 7]))
        Q = QuotientLaurentAlgebra(PrimeField(p), p)
        return (QuotientParityBracket(Q), Q, [MonomialScale(p - 1), LaurentDerivation(0)],
                Q.basis_indices())
    # the monomial-parity form at shift k is laurent-parity at k + 1, also
    # over F_2, where it is zero
    f = draw(st.sampled_from(ODD_FIELDS + [PrimeField(2)] * (form == "monomial-parity")))
    A, shift = LaurentAlgebra(f, 1), draw(st.integers(-4, 4))
    closed = (LaurentParityBracket(A, shift) if form == "parity"
              else parity_bracket(A, (shift - 1,)))
    return closed, A, [MonomialScale(f.embed(-1)), LaurentDerivation(shift)], A.window(4)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_closed_form_equals_the_determinant_on_drawn_parameters(data):
    closed, carrier, (omega, delta), window = data.draw(closed_forms())
    det = DeterminantBracket(carrier, [Endomorphism(carrier, omega), "id",
                                       Endomorphism(carrier, delta)])
    triples = data.draw(st.lists(st.tuples(*[st.sampled_from(window)] * 3),
                                 min_size=1, max_size=20))
    for t in triples:
        assert closed.eval_indices(*t) == det.eval_indices(*t), t


# ---------------------------------------------------------------------------
# the monomial-parity-agreement campaign
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("module, name, wrong", [
    pytest.param(carriers, "MonomialScale", lambda base: MonomialScale(QQ.embed(2)),
                 id="2^m-for-the-sign"),
    pytest.param(brackets, "IdentityRule", lambda: LaurentDerivation(1), id="t-d/dt-for-id"),
    pytest.param(carriers, "LaurentDerivation", lambda power: LaurentDerivation(power + 1),
                 id="one-power-too-many"),
])
def test_monomial_parity_agreement_catches_a_wrong_determinant_row(module, name, wrong,
                                                                   monkeypatch):
    # the campaign builds its determinant from map rules, so a wrong rule in
    # any row fails it: the closed form is not compared with itself
    doc = get_bundled("laurent-even-shift-k1")
    camp = next(c for c in doc["campaigns"] if c["check"] == "monomial-parity-agreement")
    ctx = parse_document(render_document(doc))
    assert run_campaign(ctx, camp).verdict == "pass"
    monkeypatch.setattr(module, name, wrong)
    result = run_campaign(ctx, camp)
    assert result.verdict == "fail" and result.counts["checked"] == 13 ** 3


# ---------------------------------------------------------------------------
# tabulation
# ---------------------------------------------------------------------------

def test_tabulate_quotient_p3_closes():
    Q, br = quotient_bracket(3)
    alg = tabulate(br, Q.basis_indices(), name="q3")
    assert not isinstance(alg, ClosureFailure)
    assert alg.dim == 6


def test_tabulate_laurent_window_escapes(A):
    br = LaurentParityBracket(A, shift=0)
    out = tabulate(br, A.window(2))
    assert isinstance(out, ClosureFailure)


def test_tabulate_cyclic_group_closes():
    F3 = PrimeField(3)
    G = GroupAlgebra(F3, torsion=[3])
    alpha = GroupHom(G, torsion_values=[1])
    alg = tabulate(GroupWedgeBracket(alpha), G.basis_indices(), name="z3")
    assert not isinstance(alg, ClosureFailure)
    assert alg.dim == 3
    # single increasing triple (0,1,2) -> e0 + e1 + e2
    assert alg.constants[(0, 1, 2)] == {0: 1, 1: 1, 2: 1}


def test_bracket_indices_replays_tabulation():
    # the table's bracket on every ordered basis triple, read back on the
    # carrier, is the bracket it tabulates
    Q, br = quotient_bracket(3)
    basis = Q.basis_indices()
    alg = tabulate(br, basis)
    for idxs in itertools.product(range(len(basis)), repeat=3):
        got = {basis[l]: c for l, c in alg.bracket_indices(idxs).items()}
        assert AlgebraElement(Q, got) == br.eval_indices(*(basis[i] for i in idxs))


# ---------------------------------------------------------------------------
# generic bracket laws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda A: LaurentFlipBracket(A, [Fraction(2)]),
    lambda A: LaurentParityBracket(A, shift=2),
    lambda A: LaurentParityBracket(A, shift=0),
])
def test_alternating_and_trilinear(A, make):
    br = make(A)
    window = A.window(3)
    assert check_alternating(br, window).passed


def test_alternating_checks_the_determinant_definition(A, monkeypatch):
    # the determinant's memoized basis path is alternating by its sign rule,
    # so the check must evaluate the definition: with one permutation term
    # dropped from it, repeated arguments no longer vanish
    det = DeterminantBracket(A, [Endomorphism(A, LaurentFlip((Fraction(2),))), "id",
                                 Endomorphism(A, LaurentDerivation(1))])
    window = A.window(3)
    assert check_alternating(det, window).passed
    call = DeterminantBracket.__call__

    def drop_one_term(self, a, b, c):
        with monkeypatch.context() as m:
            m.setattr(brackets, "_PERMS3", brackets._PERMS3[:-1])
            return call(self, a, b, c)

    monkeypatch.setattr(DeterminantBracket, "__call__", drop_one_term)
    rep = check_alternating(det, window)
    assert not rep.passed and len(rep.failures) == MAX_WITNESSES
    assert "value" in rep.failures[0]


# ---------------------------------------------------------------------------
# binomial reduction and ideal membership
# ---------------------------------------------------------------------------

def test_binomial_reduction_of_a_multiple_is_zero(A):
    g = mono(A, 3) + mono(A, -3, Fraction(-1))          # t^3 - t^-3: t^6 = 1
    h = mono(A, 2, Fraction(5)) + mono(A, -1)
    assert _binomial_reduction(g * h, g).is_zero()
    # t^7 = t and t^-4 = t^2 on the basis t^-3, ..., t^2
    assert _binomial_reduction(mono(A, 7) + mono(A, -4), g) == mono(A, 1) + mono(A, 2)


def test_binomial_reduction_uses_the_relation_and_its_inverse(A):
    g = mono(A, 1, Fraction(2)) + mono(A, 0, Fraction(3))   # 2t + 3: t = -3/2
    assert _binomial_reduction(mono(A, 0), g) == mono(A, 0)
    assert _binomial_reduction(mono(A, 2), g) == mono(A, 0, Fraction(9, 4))
    assert _binomial_reduction(mono(A, -1), g) == mono(A, 0, Fraction(-2, 3))
    with pytest.raises(ValueError):
        _binomial_reduction(mono(A, 0), g + mono(A, 2))


def _sympy_divides(x, g):
    """Whether g divides x in F[t, t^-1], from sympy's remainder of the two
    polynomials shifted to lowest exponent 0."""
    import sympy

    t = sympy.Symbol("t")
    f = x.field

    def poly(e):
        low = min(k for (k,) in e.terms)
        return sum(sympy.Rational(str(f.render(c))) * t ** (k - low) for (k,), c in e.terms.items())

    options = {"modulus": f.p} if f.characteristic else {"domain": "QQ"}
    return sympy.rem(sympy.Poly(poly(x), t, **options), sympy.Poly(poly(g), t, **options)).is_zero


@st.composite
def laurent_and_binomial(draw):
    f = draw(st.sampled_from([QQ, PrimeField(3), PrimeField(5), PrimeField(7)]))
    A = LaurentAlgebra(f, 1)
    coeffs = st.integers(-3, 3).map(f.embed)
    nonzero = coeffs.filter(lambda c: not f.is_zero(c))
    x = A.element({(e,): draw(coeffs) for e in draw(st.lists(st.integers(-8, 8), max_size=6))})
    b = draw(st.integers(-5, 4))
    a = draw(st.integers(b + 1, 6))
    g = A.monomial((a,), draw(nonzero)) + A.monomial((b,), draw(nonzero))
    return x, g


@settings(max_examples=300, deadline=None)
@given(laurent_and_binomial())
def test_binomial_reduction_is_zero_exactly_when_sympy_divides(case):
    x, g = case
    assert _binomial_reduction(x * g, g).is_zero()
    if not x.is_zero():
        assert _binomial_reduction(x, g).is_zero() == _sympy_divides(x, g)


def test_principal_ideal_membership_mod3():
    F3 = PrimeField(3)
    A3 = LaurentAlgebra(F3, 1)
    for sign in (1, -1):
        gen = A3.monomial((3,)) + A3.monomial((-3,), F3.embed(sign))
        for br in (LaurentFlipBracket(A3, [1]), LaurentParityBracket(A3, shift=0)):
            report = check_principal_ideal_membership(br, gen, range(-2, 3), 3)
            assert report.passed, report.failures


def test_principal_ideal_membership_fails_off_characteristic(A):
    # over Q the same family is NOT an ideal: divisibility must fail somewhere
    gen = mono(A, 3) + mono(A, -3, Fraction(-1))
    br = LaurentParityBracket(A, shift=0)
    report = check_principal_ideal_membership(br, gen, range(-2, 3), 3)
    assert not report.passed


# ---------------------------------------------------------------------------
# char-zero evidence for the plain-derivative family
# ---------------------------------------------------------------------------

def test_parity_family_vanishing_classification():
    report = check_parity_family_vanishing(QQ, 8)
    assert report.passed


def test_laurent_reachability():
    report = laurent_reachability(QQ, 4)
    assert report.passed


def test_parity_evidence_runs_in_characteristic_two():
    # the closed form has no characteristic check: over F_2 every parity
    # coefficient is zero, so both classifications fail with witnesses
    vanishing = check_parity_family_vanishing(PrimeField(2), 3)
    assert not vanishing.passed and vanishing.checked == 49
    assert vanishing.first_witness() == {"l": -3, "m": -2, "coefficient": "0"}
    reach = laurent_reachability(PrimeField(2), 2)
    assert not reach.passed and reach.first_witness() == {"from": -2, "to": -2}


@pytest.mark.parametrize("run, cases", [
    # the identity is no derivation: D(xy) = xy but D(x)y + xD(y) = 2xy
    pytest.param(lambda A: check_derivation(Endomorphism(A, IdentityRule()), A.window(3)),
                 28, id="derivation"),
    pytest.param(lambda A: check_agreement(LaurentParityBracket(A, shift=0),
                                           LaurentParityBracket(A, shift=2), A.window(2)),
                 125, id="agreement"),
])
def test_failing_check_keeps_capped_witnesses_and_counts_every_case(run, cases):
    rep = run(LaurentAlgebra(QQ, 1))
    assert not rep.passed
    assert rep.checked == cases
    assert len(rep.failures) == MAX_WITNESSES == 5
    assert rep.first_witness() == rep.failures[0]
