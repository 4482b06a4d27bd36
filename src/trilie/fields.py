"""Exact scalar arithmetic over Q, Q(i) and prime fields F_p.

Field objects are descriptors: they carry the arithmetic while the element
values stay lightweight: for Q a Python int when integral and otherwise a
`fractions.Fraction` with denominator > 1, for Q(i) a `GaussianRational` whose
components have that form, for F_p a plain int residue in [0, p).  Every
operation is exact, and the Q inverses divide with `Fraction`, so there
is no floating point anywhere in this package.

There is one scalar rule: compute with the values' own operators, then
`normalize` once.  `Field.add/sub/mul/neg/embed` are defined only in the base
class as exactly that, so a field supplies just `normalize` (the canonical
rational, Q(i) value or residue mod p), `inv` and its text forms; a fold such
as a dot product sums raw products and normalizes the total, and `is_zero` is
truthiness.

Sparse vectors are {index: coefficient} dicts holding only normalized, nonzero
coefficients, and every sum of them is formed one way: `Field.combine` adds
(index, coefficient) terms with the values' own `+` (products in the terms may
use their own `*`, so an F_p term may be an unreduced int), and `Field.sparse`
then normalizes each coordinate once and drops the zero ones.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

Scalar = Any  # int | Fraction | GaussianRational, depending on the field


class FieldError(ValueError):
    pass


class FieldMismatchError(FieldError):
    """Raised when values tagged with different field descriptors meet."""


def _rational(a):
    """The canonical rational equal to `a` (an int, a Fraction, or anything
    but a float that `Fraction` reads): an int when it is integral, otherwise
    a Fraction whose denominator is > 1.  A float is refused: it is not
    exact, so it has no place in an exact field."""
    if type(a) is not int:
        if isinstance(a, float):
            raise FieldError(f"{a!r} is a float, not an exact rational")
        if type(a) is not Fraction:
            a = Fraction(a)
        if a.denominator == 1:
            return a.numerator
    return a


class GaussianRational:
    """a + b*i with exact rational components, each canonical as in Q: an int
    when integral, a Fraction with denominator > 1 otherwise."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _rational(re))
        object.__setattr__(self, "im", _rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(Fraction(self.re, n), Fraction(-self.im, n))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _render_fraction(q) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class Field:
    """Base descriptor: the arithmetic is the values' own operators followed
    by the subclass's `normalize`."""

    kind: str
    characteristic: int

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        return self.normalize(a + b)

    def sub(self, a, b):
        return self.normalize(a - b)

    def mul(self, a, b):
        return self.normalize(a * b)

    def neg(self, a):
        return self.normalize(-a)

    def inv(self, a):
        raise NotImplementedError

    def embed(self, n: int):
        """Canonical image of a signed integer (ring homomorphism Z -> F)."""
        return self.normalize(n)

    def pow(self, a, n: int):
        if n < 0:
            a, n = self.inv(a), -n
        out = self.one
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def is_zero(self, a) -> bool:
        return not a

    def normalize(self, a):
        """Recanonicalize a raw value (idempotent on valid elements)."""
        raise NotImplementedError

    def combine(self, terms) -> dict:
        """The sparse sum of (index, coefficient) pairs: coefficients of one
        index are added with their own `+`, then `sparse` normalizes."""
        acc = {}
        for k, c in terms:
            s = acc.get(k)
            acc[k] = c if s is None else s + c
        return self.sparse(acc)

    def sparse(self, acc: dict) -> dict:
        """{index: raw sum} -> its normalized, nonzero coordinates."""
        out = {}
        for k, s in acc.items():
            s = self.normalize(s)
            if s:
                out[k] = s
        return out

    def validate(self, a) -> None:
        """FieldError unless `a` is its own normalization, in value and in
        type (so Q refuses `Fraction(3)` and F_p refuses `True`)."""
        n = self.normalize(a)
        if n != a or type(n) is not type(a):
            raise FieldError(f"{a!r} is not a canonical element of {self}")

    def render(self, a) -> str:
        raise NotImplementedError

    def parse(self, text: str):
        """The element a scalar string names; ValueError for anything else."""
        if not isinstance(text, str):
            raise ValueError(f"a scalar is written as a string, not {text!r}")
        return self._parse(text.strip())

    def _parse(self, text: str):
        raise NotImplementedError

    def random_element(self, rng, nonzero=False):
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.characteristic == other.characteristic
        )

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    def __repr__(self):
        return self.kind


# field elements are immutable, so the constants are shared
_QI_ZERO, _QI_ONE = GaussianRational(0), GaussianRational(1)


class Rationals(Field):
    """Q.  An element is a Python int when integral and a `Fraction` with
    denominator > 1 otherwise; `normalize` maps every rational to that form,
    so equal elements are also equal in type."""

    kind = "rationals"
    characteristic = 0

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return _rational(Fraction(1, a))

    def normalize(self, a):
        return _rational(a)

    def render(self, a):
        return _render_fraction(a)

    def _parse(self, text):
        return _rational(text)

    def random_element(self, rng, nonzero=False):
        while True:
            a = _rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            if a != 0 or not nonzero:
                return a

    def descriptor(self):
        return {"kind": "rationals"}


class GaussianRationals(Field):
    kind = "gaussian-rationals"
    characteristic = 0

    @property
    def zero(self):
        return _QI_ZERO

    @property
    def one(self):
        return _QI_ONE

    @property
    def i(self):
        return GaussianRational(0, 1)

    def inv(self, a):
        return self.normalize(a).inverse()

    def normalize(self, a):
        if isinstance(a, GaussianRational):
            return a
        return GaussianRational(a)

    def render(self, a):
        if a.im == 0:
            return _render_fraction(a.re)
        im = f"{_render_fraction(abs(a.im))}i" if abs(a.im) != 1 else "i"
        if a.re == 0:
            return im if a.im > 0 else f"-{im}"
        sign = "+" if a.im > 0 else "-"
        return f"{_render_fraction(a.re)}{sign}{im}"

    def _parse(self, text):
        s = text.replace(" ", "")
        if not s.endswith("i"):
            return GaussianRational(s)
        body = s[:-1]
        # split real and imaginary parts on the last +/- that is not a sign
        # inside a fraction or a leading sign
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                re_part, im_part = body[:k], body[k:]
                break
        else:
            re_part, im_part = "", body
        im = {"": 1, "+": 1, "-": -1}.get(im_part, im_part)
        return GaussianRational(re_part or 0, im)

    def random_element(self, rng, nonzero=False):
        while True:
            a = GaussianRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
            )
            if bool(a) or not nonzero:
                return a

    def descriptor(self):
        return {"kind": "gaussian-rationals"}


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality below `_MR_EXACT_BELOW`; no verdict rests on a
    probabilistic test.  A strong Miller-Rabin witness among `_MR_BASES`
    proves n composite, and having none proves it prime.  From the bound on,
    n is refused with `FieldError` before any test, prime or not."""
    if n >= _MR_EXACT_BELOW:
        raise FieldError(f"cannot decide whether {n} is prime: Miller-Rabin with "
                         f"fixed bases is exact only below {_MR_EXACT_BELOW}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"F_p requires a prime modulus, got {p}")
        self.p = p
        self.characteristic = p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def normalize(self, a):
        return a % self.p

    def render(self, a):
        return str(a)

    def _parse(self, text):
        return int(text) % self.p

    def random_element(self, rng, nonzero=False):
        return rng.randint(1 if nonzero else 0, self.p - 1)

    def descriptor(self):
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"F_{self.p}"


QQ = Rationals()
QI = GaussianRationals()


# each field kind of a descriptor, with the field it builds from the descriptor
FIELD_KINDS = {
    "rationals": lambda desc: QQ,
    "gaussian-rationals": lambda desc: QI,
    "prime": lambda desc: PrimeField(int(desc["p"])),
}


def field_from_descriptor(desc: dict) -> Field:
    kind = desc.get("kind")
    if not (isinstance(kind, str) and kind in FIELD_KINDS):
        raise FieldError(f"unknown field descriptor {desc!r}")
    return FIELD_KINDS[kind](desc)


def require_same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldMismatchError(f"field mismatch: {a} vs {b}")
