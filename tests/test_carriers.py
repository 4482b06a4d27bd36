import itertools
import random
from fractions import Fraction

import pytest

from trilie.fields import PrimeField, QI, QQ
from trilie.carriers import (
    AlternatingSign,
    CarrierMismatchError,
    CharacterFunctional,
    CharacterMap,
    ConstantOne,
    Endomorphism,
    ExponentValue,
    Functional,
    FunctionalRule,
    GroupAlgebra,
    GroupHom,
    GroupHomDerivation,
    GroupHomFunctional,
    GroupNegation,
    HypothesisViolation,
    IdMinus,
    LaurentAlgebra,
    LaurentDerivation,
    LaurentFlip,
    MonomialScale,
    MonomialShift,
    QuotientLaurentAlgebra,
    TableFunctional,
    TableMap,
    check_anticommute,
    check_derivation,
    check_functional_bracket_conditions,
    check_involution,
    classify_involutions,
    coordinates,
    truncated_polynomial_algebra,
)


def laurent(field=QQ, nvars=1):
    return LaurentAlgebra(field, nvars)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def test_laurent_monomial_product():
    A = laurent()
    assert A.monomial((2,)) * A.monomial((-5,)) == A.monomial((-3,))


def test_cyclic_group_product_mod3():
    F3 = PrimeField(3)
    A = GroupAlgebra(F3, torsion=[3])
    assert A.monomial((1,)) * A.monomial((2,)) == A.monomial((0,))


def test_one_plus_t_times_one_minus_t():
    A = laurent()
    one, t = A.one(), A.monomial((1,))
    assert (one + t) * (one - t) == one - A.monomial((2,))


def test_no_zero_coefficients_stored():
    A = laurent()
    t = A.monomial((1,))
    z = t - t
    assert z.terms == {} and z.is_zero()
    assert (A.one() + t) - t == A.one()


def test_carrier_mismatch_raises():
    A, B = laurent(), laurent(nvars=2)
    with pytest.raises(CarrierMismatchError):
        A.monomial((1,)) * B.monomial((1, 0))


@pytest.mark.parametrize(
    "carrier",
    [
        LaurentAlgebra(QQ, 1),
        GroupAlgebra(PrimeField(5), torsion=[5]),
        GroupAlgebra(QQ, free_rank=1, torsion=[4]),
        QuotientLaurentAlgebra(PrimeField(3), 3),
        truncated_polynomial_algebra(QQ, 4),
    ],
)
def test_commutative_and_associative(carrier):
    window = carrier.window(1)[:6]
    for i, j in itertools.combinations_with_replacement(window, 2):
        x, y = carrier.monomial(i), carrier.monomial(j)
        assert x * y == y * x
    for i, j, k in itertools.combinations_with_replacement(window, 3):
        x, y, z = carrier.monomial(i), carrier.monomial(j), carrier.monomial(k)
        assert (x * y) * z == x * (y * z)


def test_quotient_exponent_reduction():
    A = QuotientLaurentAlgebra(PrimeField(3), 3)
    assert A.reduce_index((4,)) == (-2,)   # t^4 = t^p * t = t^-p * t = t^-2
    assert A.reduce_index((-3,)) == (3,)   # t^-p = t^p
    assert A.monomial((2,)) * A.monomial((2,)) == A.monomial((-2,))


# ---------------------------------------------------------------------------
# endomorphisms and functionals
# ---------------------------------------------------------------------------

def test_derivation_on_monomial():
    A = laurent()
    d0 = Endomorphism(A, LaurentDerivation(0))  # d/dt
    assert d0(A.monomial((3,))) == A.monomial((2,), Fraction(3))


def test_flip_with_lambda_two():
    A = laurent()
    w = Endomorphism(A, LaurentFlip((Fraction(2),)))
    assert w(A.monomial((2,))) == A.monomial((-2,), Fraction(4))


def test_group_hom_functional():
    A = GroupAlgebra(QQ, free_rank=1)
    alpha = GroupHom(A, free_values=[Fraction(1)])
    phi = Functional(A, GroupHomFunctional(alpha))
    x = A.monomial((3,), Fraction(2)) - A.monomial((1,))
    assert phi(x) == Fraction(5)


def test_endomorphism_linearity():
    rng = random.Random(2)
    A = laurent()
    maps = [
        Endomorphism(A, LaurentDerivation(1)),
        Endomorphism(A, LaurentFlip((Fraction(3),))),
        Endomorphism(A, MonomialScale(Fraction(-1))),
        Endomorphism(A, IdMinus(MonomialScale(Fraction(-1)))),
    ]
    for f in maps:
        for _ in range(10):
            x = A.element({(rng.randint(-4, 4),): QQ.random_element(rng) for _ in range(3)})
            y = A.element({(rng.randint(-4, 4),): QQ.random_element(rng) for _ in range(3)})
            c = QQ.random_element(rng)
            assert f(x + y) == f(x) + f(y)
            assert f(x.scale(c)) == f(x).scale(c)


def test_functional_linearity():
    rng = random.Random(4)
    A = laurent()
    for rule in (AlternatingSign(), ConstantOne(), ExponentValue()):
        phi = Functional(A, rule)
        for _ in range(10):
            x = A.element({(rng.randint(-4, 4),): QQ.random_element(rng) for _ in range(3)})
            y = A.element({(rng.randint(-4, 4),): QQ.random_element(rng) for _ in range(3)})
            assert phi(x + y) == QQ.add(phi(x), phi(y))


# ---------------------------------------------------------------------------
# law checks
# ---------------------------------------------------------------------------

def test_group_hom_derivation_satisfies_leibniz():
    A = GroupAlgebra(QQ, free_rank=1)
    alpha = GroupHom(A, free_values=[Fraction(1)])
    astar = Endomorphism(A, GroupHomDerivation(alpha))
    report = check_derivation(astar, A.window(2))
    assert report.passed and report.checked > 0


def test_flip_is_not_a_derivation():
    A = laurent()
    w = Endomorphism(A, LaurentFlip((Fraction(1),)))
    report = check_derivation(w, A.window(2))
    assert not report.passed
    assert report.first_witness() is not None


def test_zero_map_is_a_derivation():
    A = laurent()
    zero_map = Endomorphism(A, MonomialShift(0, QQ.zero))
    assert check_derivation(zero_map, A.window(2)).passed


class CountingEndomorphism(Endomorphism):
    calls = 0

    def __call__(self, x):
        self.calls += 1
        return super().__call__(x)


def test_law_checks_map_each_window_monomial_once():
    A = GroupAlgebra(QQ, free_rank=4)
    alpha = GroupHom(A, free_values=[Fraction(1, 2)] * 4)
    window = A.window(1)                          # 81 monomials, 3,321 pairs
    pairs = len(window) * (len(window) + 1) // 2
    astar = CountingEndomorphism(A, GroupHomDerivation(alpha))
    assert check_derivation(astar, window).checked == pairs
    assert astar.calls == len(window) + pairs     # not 3 per pair
    neg = CountingEndomorphism(A, GroupNegation())
    assert check_involution(neg, window).checked == len(window) + pairs
    assert neg.calls == 2 * len(window) + pairs


def test_group_negation_is_involution():
    A = GroupAlgebra(QQ, free_rank=2)
    w = Endomorphism(A, GroupNegation())
    report = check_involution(w, A.window(1))  # 9 basis elements
    assert report.passed and report.checked >= 9


def test_sign_rule_is_involution():
    A = laurent()
    w = Endomorphism(A, MonomialScale(QQ.embed(-1)))
    assert check_involution(w, A.window(3)).passed


def test_doubling_scale_fails_involution():
    A = laurent()
    w = Endomorphism(A, MonomialScale(QQ.embed(2)))
    report = check_involution(w, A.window(2))
    assert not report.passed


def test_anticommute_sign_with_even_power_derivation():
    A = laurent()
    w = Endomorphism(A, MonomialScale(QQ.embed(-1)))
    d = Endomorphism(A, LaurentDerivation(2))  # t^2 d/dt
    assert check_anticommute(w, d, A.window(8)).passed


def test_anticommute_flip_with_euler_derivation():
    A = laurent()
    w = Endomorphism(A, LaurentFlip((Fraction(3),)))
    d = Endomorphism(A, LaurentDerivation(1))  # t d/dt
    assert check_anticommute(w, d, A.window(8)).passed


def test_anticommute_fails_for_identity_sign_with_t2_derivation():
    A = laurent()
    w = Endomorphism(A, MonomialScale(QQ.embed(1)))
    d = Endomorphism(A, LaurentDerivation(2))
    report = check_anticommute(w, d, A.window(3))
    assert not report.passed
    assert report.first_witness() is not None


def test_multivariable_flip_anticommutes_with_scaling_derivations():
    from trilie.carriers import VariableScalingDerivation

    B = LaurentAlgebra(QQ, 2)
    w = Endomorphism(B, LaurentFlip((Fraction(2), Fraction(5))))
    for j in range(2):
        dj = Endomorphism(B, VariableScalingDerivation(j))
        assert check_anticommute(w, dj, B.window(2)).passed
    assert check_involution(w, B.window(2)).passed


# ---------------------------------------------------------------------------
# functional bracket conditions
# ---------------------------------------------------------------------------

def test_indicator_functional_kills_window_products():
    A = GroupAlgebra(QQ, free_rank=1)
    # nonzero only at e_5, outside the sums of the |g| <= 2 window
    class Indicator(FunctionalRule):
        def value(self, carrier, idx):
            return QQ.one if idx == (5,) else QQ.zero

        def describe(self):
            return "indicator of e_5"

    alpha = Functional(A, Indicator())
    report = check_functional_bracket_conditions(alpha, None, None, None, None, A.window(2))
    assert report.details["alpha_kills_products"].passed


def test_constant_one_fails_derivation_commutator_condition():
    A = laurent()
    beta = Functional(A, ConstantOne())
    d0 = Endomorphism(A, LaurentDerivation(0))
    report = check_functional_bracket_conditions(None, beta, None, d0, None, A.window(2))
    sub = report.details["beta_kills_derivation_commutators"]
    assert not sub.passed and sub.failures


def test_zero_functionals_pass_everything():
    A = laurent()

    class Zero(FunctionalRule):
        def value(self, carrier, idx):
            return QQ.zero

        def describe(self):
            return "0"

    z = Functional(A, Zero())
    w = Endomorphism(A, MonomialScale(QQ.embed(-1)))
    d = Endomorphism(A, LaurentDerivation(2))
    report = check_functional_bracket_conditions(z, z, z, d, w, A.window(2))
    assert report.passed


# ---------------------------------------------------------------------------
# involution classification
# ---------------------------------------------------------------------------

def test_classification_returns_two_families():
    A = laurent()
    fams = classify_involutions(A)
    assert [f.kind for f in fams] == ["sign", "flip"]
    sign, flip = fams
    for eps in (1, -1):
        assert check_involution(sign.make(eps), A.window(3)).passed
    assert check_involution(flip.make(Fraction(7)), A.window(3)).passed


def test_classification_sign_plus_one_is_identity():
    A = laurent()
    w = classify_involutions(A)[0].make(1)
    for m in range(-3, 4):
        assert w(A.monomial((m,))) == A.monomial((m,))


def test_classification_refuses_characteristic_two():
    A = LaurentAlgebra(PrimeField(2), 1)
    with pytest.raises(HypothesisViolation, match="characteristic"):
        classify_involutions(A)


def test_flip_lambda_one_matches_group_negation():
    A = laurent()
    G = GroupAlgebra(QQ, free_rank=1)
    flip = classify_involutions(A)[1].make(Fraction(1))
    neg = Endomorphism(G, GroupNegation())
    for m in range(-4, 5):
        img = flip(A.monomial((m,)))
        gimg = neg(G.monomial((m,)))
        assert list(img.terms.items()) == [((-m,), QQ.one)]
        assert list(gimg.terms.items()) == [((-m,), QQ.one)]


def test_flip_zero_lambda_rejected():
    A = laurent()
    flip = classify_involutions(A)[1]
    with pytest.raises(HypothesisViolation):
        flip.make(QQ.zero)


# ---------------------------------------------------------------------------
# Witt commutator sanity
# ---------------------------------------------------------------------------

def test_witt_commutator_relation():
    # [t^m d, t^n d] = (n-m) t^{m+n} d with d = t d/dt, checked on monomials
    A = laurent()
    for m, n in itertools.product(range(-2, 3), repeat=2):
        Dm = Endomorphism(A, LaurentDerivation(m + 1))   # t^m * (t d/dt)
        Dn = Endomorphism(A, LaurentDerivation(n + 1))
        for j in range(-3, 4):
            x = A.monomial((j,))
            lhs = Dm(Dn(x)) - Dn(Dm(x))
            rhs = A.monomial((m + n + j,), QQ.embed((n - m) * j))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# homs, windows, text forms
# ---------------------------------------------------------------------------

def test_hom_torsion_validation_char_zero():
    A = GroupAlgebra(QQ, free_rank=1, torsion=[4])
    GroupHom(A, free_values=[Fraction(2)], torsion_values=[Fraction(0)])
    with pytest.raises(HypothesisViolation):
        GroupHom(A, free_values=[Fraction(2)], torsion_values=[Fraction(1)])


def test_hom_torsion_allowed_when_p_divides_order():
    F5 = PrimeField(5)
    A = GroupAlgebra(F5, torsion=[5, 5])
    GroupHom(A, torsion_values=[3, 3])  # 5*3 = 0 mod 5


def test_character_bases_are_roots_of_unity_on_torsion():
    F5 = PrimeField(5)
    A = QuotientLaurentAlgebra(F5, 5)
    # t^3 t^3 = t^-4 in F_5[Z_10], but 2^3 2^3 = 4 * 2^-4 in F_5
    with pytest.raises(HypothesisViolation, match="order 10"):
        Endomorphism(A, MonomialScale(2))
    x = A.monomial((3,))
    for base in (F5.one, F5.neg(F5.one)):
        f = Endomorphism(A, MonomialScale(base))
        assert f(x * x) == f(x) * f(x)
    Functional(A, AlternatingSign())
    # only the torsion coordinates, which come last, are restricted
    B = GroupAlgebra(QQ, free_rank=1, torsion=[2])
    Endomorphism(B, CharacterMap((QQ.embed(2), QQ.embed(-1))))
    with pytest.raises(HypothesisViolation, match="order 2"):
        Functional(B, CharacterFunctional((QQ.embed(-1), QQ.embed(2))))
    C = GroupAlgebra(QI, torsion=[4])
    Endomorphism(C, MonomialScale(QI.i))
    with pytest.raises(HypothesisViolation, match="order 2"):
        Endomorphism(GroupAlgebra(QI, torsion=[2]), MonomialScale(QI.i))


def test_index_text_round_trips():
    A1 = laurent()
    assert A1.parse_index(A1.index_str((-3,))) == (-3,)
    assert A1.index_str((0,)) == "1"
    A2 = laurent(nvars=2)
    assert A2.parse_index("t1^2*t2^-1") == (2, -1)
    assert A2.index_str((2, -1)) == "t1^2*t2^-1"
    G = GroupAlgebra(QQ, free_rank=2, torsion=[2])
    assert G.parse_index("e(1,0|2)") == (1, 0, 0)
    assert G.parse_index(G.index_str((1, 0, 1))) == (1, 0, 1)
    Q3 = QuotientLaurentAlgebra(PrimeField(3), 3)
    assert Q3.parse_index("t^-3") == (3,)


@pytest.mark.parametrize("carrier, text", [
    (laurent(), "t3^1"), (laurent(), "t0"), (laurent(), "x^2"), (laurent(nvars=2), "t^x"),
    (laurent(nvars=2), "t1^2*t1^3"), (laurent(), "t^2*t1"),
    (QuotientLaurentAlgebra(PrimeField(3), 3), "x"),
    (QuotientLaurentAlgebra(PrimeField(3), 3), "t2^1"),
    (GroupAlgebra(QQ, torsion=[3]), "e(1)"),
    (truncated_polynomial_algebra(QQ, 3), "y"),
    # an empty power was read as 1, an empty coordinate was dropped
    (laurent(), "t^"), (laurent(nvars=2), "t1^*t2^3"),
    (QuotientLaurentAlgebra(PrimeField(3), 3), "t^"),
    (GroupAlgebra(QQ, free_rank=2, torsion=[3]), "e(1,,2|1)"),
    (GroupAlgebra(QQ, free_rank=2, torsion=[3]), "e(1,2|1,)"),
    (GroupAlgebra(QQ, torsion=[3]), "e(|,1)"),
])
def test_malformed_index_text_is_a_value_error(carrier, text):
    with pytest.raises(ValueError):
        carrier.parse_index(text)


def test_table_rules_need_a_carrier_indexed_from_zero():
    # t^-2 is basis index -2 of this carrier: a table read by position would
    # send it to row -2, "t^4", which is not even a basis index
    Q3 = QuotientLaurentAlgebra(PrimeField(3), 3)
    identity = [[int(i == j) for j in range(6)] for i in range(6)]
    with pytest.raises(ValueError, match="indexed 0..d-1"):
        Endomorphism(Q3, TableMap(identity))
    with pytest.raises(ValueError, match="indexed 0..d-1"):
        Functional(Q3, TableFunctional([1] * 6))
    # a carrier indexed 0..d-1 takes them
    A = truncated_polynomial_algebra(QQ, 2)
    assert Endomorphism(A, TableMap([[1, 0], [0, 1]]))(A.monomial(1)) == A.monomial(1)
    assert Functional(A, TableFunctional([QQ.one, QQ.zero]))(A.monomial(0)) == QQ.one


def test_coordinates():
    A = laurent()
    x = A.monomial((1,), Fraction(2)) - A.monomial((-1,))
    window = [(-1,), (0,), (1,)]
    assert coordinates(x, window) == [Fraction(-1), Fraction(0), Fraction(2)]
    with pytest.raises(ValueError):
        coordinates(A.monomial((5,)), window)


def test_truncated_polynomial_algebra():
    A = truncated_polynomial_algebra(QQ, 4)
    x = A.monomial(1)
    assert x * x == A.monomial(2)
    assert (x * x) * (x * x) == A.zero()
    N = truncated_polynomial_algebra(QQ, 4, unital=False)
    assert N.unit_index() is None
    assert N.monomial(0) * N.monomial(0) == N.monomial(1)  # x*x = x^2
