import random
import time
from fractions import Fraction

import pytest
import sympy

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


def test_is_prime_above_the_exact_bound_uses_trial_division():
    # 43 is the first trial divisor, and the product is past
    # 3,317,044,064,679,887,385,961,981
    n = 43 * sympy.nextprime(10 ** 23)
    assert n > 3317044064679887385961981
    assert not is_prime(n)


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
