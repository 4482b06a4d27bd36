"""Exact scalar arithmetic over Q, Q(i) and prime fields F_p.

Field objects are descriptors: they carry the arithmetic while the element
values stay lightweight (`fractions.Fraction` for Q, `GaussianRational` for
Q(i), plain int residues in [0, p) for F_p).  Every operation is exact; there
is no floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Union

Scalar = Any  # Fraction | GaussianRational | int, depending on the field


class FieldError(ValueError):
    pass


class FieldMismatchError(FieldError):
    """Raised when values tagged with different field descriptors meet."""


class GaussianRational:
    """a + b*i with exact rational components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

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
        return GaussianRational(self.re / n, -self.im / n)

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


def _render_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class Field:
    """Base descriptor.  Subclasses implement exact arithmetic on raw values."""

    kind: str
    characteristic: int

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def embed(self, n: int):
        """Canonical image of a signed integer (ring homomorphism Z -> F)."""
        raise NotImplementedError

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
        return a == self.zero

    def normalize(self, a):
        """Recanonicalize a raw value (idempotent on valid elements)."""
        raise NotImplementedError

    def validate(self, a) -> None:
        if self.normalize(a) != a:
            raise FieldError(f"{a!r} is not a canonical element of {self}")

    def render(self, a) -> str:
        raise NotImplementedError

    def parse(self, text: str):
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
_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)
_QI_ZERO, _QI_ONE = GaussianRational(0), GaussianRational(1)


class Rationals(Field):
    kind = "rationals"
    characteristic = 0

    @property
    def zero(self):
        return _Q_ZERO

    @property
    def one(self):
        return _Q_ONE

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / a

    def embed(self, n):
        return Fraction(n)

    def normalize(self, a):
        return Fraction(a)

    def render(self, a):
        return _render_fraction(a)

    def parse(self, text):
        return Fraction(text.strip())

    def random_element(self, rng, nonzero=False):
        while True:
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
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

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return a.inverse()

    def embed(self, n):
        return GaussianRational(n)

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

    def parse(self, text):
        s = text.strip().replace(" ", "")
        if not s.endswith("i"):
            return GaussianRational(Fraction(s))
        body = s[:-1]
        # split real and imaginary parts on the last +/- that is not a sign
        # inside a fraction or a leading sign
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                re_part, im_part = body[:k], body[k:]
                break
        else:
            re_part, im_part = "", body
        if im_part in ("", "+"):
            im = Fraction(1)
        elif im_part == "-":
            im = Fraction(-1)
        else:
            im = Fraction(im_part)
        re = Fraction(re_part) if re_part else Fraction(0)
        return GaussianRational(re, im)

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
    """Exact primality: deterministic Miller-Rabin below `_MR_EXACT_BELOW`,
    trial division above it, so no verdict rests on a probabilistic test."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_EXACT_BELOW:
        d = 43
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
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

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def embed(self, n):
        return n % self.p

    def normalize(self, a):
        return a % self.p

    def render(self, a):
        return str(a)

    def parse(self, text):
        return int(text.strip()) % self.p

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


def field_from_descriptor(desc: dict) -> Field:
    kind = desc.get("kind")
    if kind == "rationals":
        return QQ
    if kind == "gaussian-rationals":
        return QI
    if kind == "prime":
        return PrimeField(int(desc["p"]))
    raise FieldError(f"unknown field descriptor {desc!r}")


def require_same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldMismatchError(f"field mismatch: {a} vs {b}")
