import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from trilie.fields import (
    GaussianRational,
    PrimeField,
    QI,
    QQ,
    FieldError,
    FieldMismatchError,
    field_from_descriptor,
    is_prime,
    require_same_field,
    _MR_EXACT_BELOW,
)


# ---------------------------------------------------------------------------
# basic exact arithmetic
# ---------------------------------------------------------------------------

def test_rational_add():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_prime_field_mul():
    F3 = PrimeField(3)
    assert F3.mul(2, 2) == 1


def test_gaussian_i_squared():
    i = QI.i
    assert QI.mul(i, i) == QI.embed(-1)


def test_rational_inverse():
    assert QQ.inv(Fraction(5, 6)) == Fraction(6, 5)


def test_prime_field_inverse():
    F5 = PrimeField(5)
    assert F5.inv(3) == 2
    assert F5.mul(3, F5.inv(3)) == 1


def test_gaussian_inverse():
    a = GaussianRational(1, 1)
    assert QI.inv(a) == GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert QI.mul(a, QI.inv(a)) == QI.one


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        QI.inv(QI.zero)


def test_integer_embed():
    assert PrimeField(3).embed(-2) == 1
    assert QQ.embed(7) == Fraction(7)
    assert PrimeField(3).embed(4) == 1


def test_embed_is_ring_homomorphism():
    rng = random.Random(1)
    for F in (QQ, QI, PrimeField(7)):
        for _ in range(50):
            a, b = rng.randint(-40, 40), rng.randint(-40, 40)
            assert F.embed(a + b) == F.add(F.embed(a), F.embed(b))
            assert F.embed(a * b) == F.mul(F.embed(a), F.embed(b))


# ---------------------------------------------------------------------------
# field axioms on randomized triples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("F", [QQ, QI, PrimeField(5), PrimeField(2)])
def test_field_axioms(F):
    rng = random.Random(7)
    for _ in range(60):
        a = F.random_element(rng)
        b = F.random_element(rng)
        c = F.random_element(rng)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == F.zero
        if not F.is_zero(a):
            assert F.mul(a, F.inv(a)) == F.one


# ---------------------------------------------------------------------------
# the one sparse sum
# ---------------------------------------------------------------------------

SUM_FIELDS = [QQ, QI, PrimeField(2), PrimeField(101), PrimeField(2**61 - 1)]


def raw_values(F):
    """Field values and the raw values sums meet: ints everywhere, Fractions
    (integral ones too) for Q and Q(i), and for F_p ints outside [0, p), as
    the values' own `-` and `*` leave them."""
    ints = st.integers(-3 * F.characteristic - 3, 3 * F.characteristic + 3)
    q = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    if F is QQ:
        return st.one_of(ints, q)
    if F is QI:
        return st.one_of(ints, q, st.builds(GaussianRational, q, q))
    return st.one_of(ints, st.integers(0, F.p - 1))


def canonical_rational(q):
    """An int, or a Fraction whose denominator is > 1."""
    return type(q) is int or (type(q) is Fraction and q.denominator > 1)


def is_canonical(F, c):
    """The canonical form of an element of F: a canonical rational for Q, a
    GaussianRational of two for Q(i), an int in [0, p) for F_p."""
    if F is QQ:
        return canonical_rational(c)
    if F is QI:
        return (type(c) is GaussianRational and canonical_rational(c.re)
                and canonical_rational(c.im))
    return type(c) is int and 0 <= c < F.p


def naive_sum(F, terms):
    out = {}
    for k, c in terms:
        s = F.add(out.get(k, F.zero), F.normalize(c))
        if F.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_combine_is_the_naive_sum_of_normalized_terms(data):
    F = data.draw(st.sampled_from(SUM_FIELDS))
    values = raw_values(F)
    # products of one to three raw factors, on few indices so they repeat
    products = st.lists(values, min_size=1, max_size=3).map(math.prod)
    terms = data.draw(st.lists(st.tuples(st.integers(0, 4), products), max_size=12))
    # and terms that cancel some of them
    terms += [(k, -c) for k, c in data.draw(st.lists(st.sampled_from(terms), max_size=4)
                                            if terms else st.just([]))]
    terms = data.draw(st.permutations(terms))
    got = F.combine(terms)
    assert got == naive_sum(F, terms)
    for c in got.values():
        assert is_canonical(F, c) and F.normalize(c) == c and not F.is_zero(c)


# ---------------------------------------------------------------------------
# the one scalar rule
# ---------------------------------------------------------------------------

def integral_to_int(q):
    return q.numerator if q.denominator == 1 else q


def field_values(F):
    """Canonical elements of F."""
    q = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
    if F is QQ:
        return q.map(integral_to_int)
    if F is QI:
        return st.builds(GaussianRational, q, q)
    return st.integers(0, F.p - 1)


def explicit_ops(F):
    """add, sub, mul, neg and embed written out per field: the values' own
    operators for Q (an integral result as an int) and Q(i), residues mod p
    for F_p."""
    if F.characteristic:
        p = F.p
        return ((lambda a, b: (a + b) % p), (lambda a, b: (a - b) % p),
                (lambda a, b: (a * b) % p), (lambda a: (-a) % p), (lambda n: n % p))
    if F is QQ:
        return ((lambda a, b: integral_to_int(Fraction(a + b))),
                (lambda a, b: integral_to_int(Fraction(a - b))),
                (lambda a, b: integral_to_int(Fraction(a * b))),
                (lambda a: integral_to_int(Fraction(-a))), (lambda n: n))
    return ((lambda a, b: a + b), (lambda a, b: a - b), (lambda a, b: a * b),
            (lambda a: -a), GaussianRational)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_base_class_arithmetic_is_the_explicit_definition(data):
    F = data.draw(st.sampled_from(SUM_FIELDS))
    a, b = data.draw(field_values(F)), data.draw(field_values(F))
    n = data.draw(st.integers(-3 * F.characteristic - 9, 3 * F.characteristic + 9))
    add, sub, mul, neg, embed = explicit_ops(F)
    for got, want in ((F.add(a, b), add(a, b)), (F.sub(a, b), sub(a, b)),
                      (F.mul(a, b), mul(a, b)), (F.neg(a), neg(a)), (F.embed(n), embed(n))):
        assert got == want and type(got) is type(want) and is_canonical(F, got)
    raw = data.draw(raw_values(F))
    if F.characteristic:
        raw = data.draw(st.sampled_from([raw, F.p, -F.p, 0]))
    assert F.is_zero(raw) == (raw == F.zero)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rational_results_are_canonical(data):
    # no operation of Q or Q(i) returns a float or an integral Fraction,
    # whatever raw rationals it is given
    F = data.draw(st.sampled_from([QQ, QI]))
    a, b = data.draw(raw_values(F)), data.draw(raw_values(F))
    n = data.draw(st.integers(-4, 4))
    got = [F.add(a, b), F.sub(a, b), F.mul(a, b), F.neg(a), F.embed(n), F.normalize(a)]
    if not F.is_zero(a):
        got += [F.inv(a), F.pow(a, n)]
    got += F.combine([(0, a), (1, b), (0, a * b)]).values()
    for c in got:
        assert is_canonical(F, c), c


def test_inverse_of_an_integer_is_an_exact_fraction():
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert type(QQ.inv(Fraction(1, 3))) is int
    half = QI.inv(GaussianRational(2))
    assert half.re == Fraction(1, 2) and type(half.re) is Fraction and type(half.im) is int


def test_validate_refuses_a_value_of_the_wrong_type():
    QQ.validate(3)
    QQ.validate(Fraction(1, 2))
    QI.validate(GaussianRational(3))
    for F, a in ((QQ, Fraction(3)), (QQ, Fraction(-4, 2)), (QQ, 0.5), (QI, 3),
                 (QI, Fraction(1, 2)), (PrimeField(5), True), (PrimeField(5), 7)):
        with pytest.raises(FieldError):
            F.validate(a)


@pytest.mark.parametrize("make", [QQ.normalize, QI.normalize,
                                  lambda a: GaussianRational(a),
                                  lambda a: GaussianRational(1, a)])
@pytest.mark.parametrize("a", [0.5, 1.0, -0.25])
def test_a_float_is_refused_not_made_rational(make, a):
    with pytest.raises(FieldError, match="float"):
        make(a)


def test_strings_and_ints_still_parse_as_rationals():
    assert QQ.parse("3/6") == Fraction(1, 2) and QQ.parse("0.25") == Fraction(1, 4)
    assert QQ.normalize(4) == 4 and type(QQ.parse("4/2")) is int
    assert QI.parse("1/2+3i") == GaussianRational(Fraction(1, 2), 3)


@pytest.mark.parametrize("F, text", [(QQ, "1/0"), (QQ, "-3/0"), (QI, "1/0"), (QI, "1/0i"),
                                     (QI, "1+2/0i"), (PrimeField(5), "1/0")])
def test_a_zero_denominator_is_a_value_error(F, text):
    with pytest.raises(ValueError, match="zero denominator|invalid literal"):
        F.parse(text)


@pytest.mark.parametrize("F", [QQ, QI, PrimeField(5)])
def test_canonical_form_idempotent(F):
    rng = random.Random(3)
    for _ in range(30):
        a = F.random_element(rng)
        assert F.normalize(a) == a
        F.validate(a)


def test_pow_including_negative_exponents():
    F5 = PrimeField(5)
    assert F5.pow(2, 4) == 1
    assert F5.pow(2, -1) == 3
    assert QQ.pow(Fraction(2), -3) == Fraction(1, 8)


# ---------------------------------------------------------------------------
# descriptors, text forms
# ---------------------------------------------------------------------------

def test_prime_field_requires_prime():
    with pytest.raises(FieldError):
        PrimeField(6)
    assert is_prime(2) and is_prime(97) and not is_prime(1)


# strong pseudoprimes to every prime base up to 7, 11, 13, 17, 23 and 37
STRONG_PSEUDOPRIMES = [3215031751, 2152302898747, 3474749660383, 341550071728321,
                       3825123056546413051, 318665857834031151167461]


def test_is_prime_matches_sympy_on_ranges():
    rng = random.Random(0)
    starts = [0, 2 ** 31 - 100, 10 ** 12] + [rng.randrange(2 ** e) for e in (20, 40, 64, 80)]
    for start in starts:
        for n in range(start, start + 300):
            assert is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert not is_prime(n)


def test_verdicts_below_the_exact_bound_match_sympy():
    # the top of the exact range, past the starts of the ranges above
    rng = random.Random(0)
    lo = 2 ** 81
    for n in [rng.randrange(lo, _MR_EXACT_BELOW) | 1 for _ in range(60)] + \
             [sympy.nextprime(rng.randrange(lo, _MR_EXACT_BELOW - 10 ** 6)) for _ in range(12)]:
        assert n < _MR_EXACT_BELOW
        assert is_prime(n) == sympy.isprime(n), n


def test_moduli_from_the_exact_bound_on_are_refused_prime_or_not():
    # Miller-Rabin with the first 13 prime bases is exact below
    # 3,317,044,064,679,887,385,961,981 (itself a strong pseudoprime to
    # them); from there on, is_prime refuses before any test
    below = sympy.prevprime(_MR_EXACT_BELOW)
    assert is_prime(below) and PrimeField(below).p == below
    for n in (_MR_EXACT_BELOW, sympy.nextprime(_MR_EXACT_BELOW), 2 ** 89 - 1, 2 ** 100):
        assert n >= _MR_EXACT_BELOW
        with pytest.raises(FieldError, match="cannot decide"):
            is_prime(n)
        with pytest.raises(FieldError):
            PrimeField(n)


def test_composites_above_the_exact_bound_are_refuted():
    # past the bound no composite becomes a field, with or without a small
    # factor, and none is taken for a prime
    for n in (43 * sympy.nextprime(10 ** 23),
              sympy.nextprime(10 ** 25) * sympy.nextprime(10 ** 26),
              (2 ** 89 - 1) * (2 ** 61 - 1), 561 * sympy.nextprime(10 ** 30)):
        assert n > _MR_EXACT_BELOW and not sympy.isprime(n)
        with pytest.raises(FieldError, match="cannot decide"):
            PrimeField(n)


# a safe prime n = 2q + 1 with q past the exact bound, found with sympy
UNDECIDED_SAFE_PRIME = 6634088129359774771927739


def test_undecided_modulus_past_the_exact_bound_is_a_field_error():
    # n is prime, but past the bound, so the field refuses it, and quickly
    n = UNDECIDED_SAFE_PRIME
    assert sympy.isprime(n) and sympy.isprime((n - 1) // 2) and n > _MR_EXACT_BELOW
    t0 = time.monotonic()
    with pytest.raises(FieldError, match="cannot decide"):
        PrimeField(n)
    assert time.monotonic() - t0 < 1.0


def test_large_prime_field_builds_quickly():
    t0 = time.monotonic()
    F = PrimeField(2 ** 64 + 13)
    assert time.monotonic() - t0 < 1.0
    assert F.mul(F.inv(3), 3) == 1


def test_descriptor_round_trip():
    for F in (QQ, QI, PrimeField(11)):
        assert field_from_descriptor(F.descriptor()) == F


def test_descriptor_equality_and_mismatch():
    assert PrimeField(3) == PrimeField(3)
    assert PrimeField(3) != PrimeField(5)
    assert QQ != QI
    with pytest.raises(FieldMismatchError):
        require_same_field(QQ, PrimeField(3))


@pytest.mark.parametrize(
    "F,text",
    [
        (QQ, "5/6"),
        (QQ, "-7"),
        (QI, "1/2-1/2i"),
        (QI, "3"),
        (QI, "i"),
        (QI, "-2/3i"),
        (QI, "1+i"),
        (PrimeField(7), "4"),
    ],
)
def test_render_parse_round_trip(F, text):
    val = F.parse(text)
    assert F.parse(F.render(val)) == val


def test_gaussian_render():
    assert QI.render(GaussianRational(Fraction(1, 2), Fraction(-1, 2))) == "1/2-1/2i"
    assert QI.render(GaussianRational(0, 1)) == "i"
    assert QI.render(GaussianRational(-3, 0)) == "-3"
