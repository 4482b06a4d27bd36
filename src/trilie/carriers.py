"""Commutative associative carrier algebras and their distinguished maps.

Carriers: Laurent polynomial rings in k variables, group algebras of finitely
generated abelian groups, quotients of one-variable Laurent rings by the
relation t^p = t^-p, and explicit finite multiplication tables (used for
truncated polynomial rings).  Elements are sparse maps from basis indices to
nonzero field scalars.

Derivations, involutions and linear functionals are first-class evaluable
objects defined on basis indices and extended linearly, with checkable laws
(Leibniz rule, multiplicativity + square = identity, anticommutation).
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .fields import Field
from .structure import CheckReport


class CarrierMismatchError(ValueError):
    pass


class HypothesisViolation(ValueError):
    """A constructor's mathematical hypothesis does not hold for the inputs."""


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------

class CarrierAlgebra:
    """Commutative associative algebra given by a basis-index product rule."""

    shape = "abstract"
    # exponent variables of a monomial index (none: indices are not exponents)
    nvars = 0

    def __init__(self, field: Field):
        self.field = field

    # -- structure -----------------------------------------------------
    def dim(self) -> Optional[int]:
        return None

    def unit_index(self):
        return None

    def mul_indices(self, i, j) -> List[Tuple[object, object]]:
        return [(self.add_indices(i, j), self.field.one)]

    # -- exponent carriers: the basis is a group, written additively -----
    def add_indices(self, i, j):
        raise NotImplementedError(f"{self.shape} carrier has no index addition")

    def exponents(self, i) -> Tuple[int, ...]:
        """A monomial's exponents, or a group element's coordinates."""
        raise NotImplementedError(f"{self.shape} carrier indices are not exponents")

    def neg_index(self, i):
        raise NotImplementedError(f"{self.shape} carrier has no basis negation")

    def validate_index(self, i) -> None:
        raise NotImplementedError

    def basis_indices(self) -> List[object]:
        raise NotImplementedError(f"{self.shape} carrier is infinite dimensional")

    def window(self, bound: int) -> List[object]:
        raise NotImplementedError

    # -- text forms ------------------------------------------------------
    def index_str(self, i) -> str:
        raise NotImplementedError

    def parse_index(self, text: str):
        raise NotImplementedError

    # -- element constructors -------------------------------------------
    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def monomial(self, index, coeff=None) -> "AlgebraElement":
        self.validate_index(index)
        c = self.field.one if coeff is None else coeff
        if self.field.is_zero(c):
            return self.zero()
        return AlgebraElement(self, {index: c})

    def one(self) -> "AlgebraElement":
        u = self.unit_index()
        if u is None:
            raise ValueError(f"{self.shape} carrier has no unit")
        return self.monomial(u)

    def element(self, terms) -> "AlgebraElement":
        terms = dict(terms)
        for idx in terms:
            self.validate_index(idx)
        return AlgebraElement(self, self.field.sparse(terms))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, CarrierAlgebra)
            and self.shape == other.shape
            and self.field == other.field
            and self._signature() == other._signature()
        )

    def __hash__(self):
        return hash((self.shape, self.field, self._signature()))

    def _signature(self):
        return ()


def _parse_exponents(text: str, nvars: int) -> tuple:
    """Exponents of a monomial written "1", "t^a" or "t1^a*t2^b" (an omitted
    power is 1); ValueError unless it names variables 1..nvars."""
    exps = [0] * nvars
    if text.strip() != "1":
        for part in text.split("*"):
            name, _, power = part.partition("^")
            name = name.strip()
            var = "1" if name == "t" else name[1:]
            if (name[:1] != "t" or not var.isdigit() or not 1 <= int(var) <= nvars
                    or exps[int(var) - 1]):
                raise ValueError(f"bad monomial {text!r} for {nvars} variable(s)")
            exps[int(var) - 1] = int(power) if power else 1
    return tuple(exps)


class LaurentAlgebra(CarrierAlgebra):
    """F[t_1^-1..t_k^-1, t_1..t_k]; indices are integer exponent tuples."""

    shape = "laurent"

    def __init__(self, field: Field, nvars: int = 1):
        super().__init__(field)
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars

    def _signature(self):
        return (self.nvars,)

    def unit_index(self):
        return (0,) * self.nvars

    def add_indices(self, i, j):
        return tuple(map(operator.add, i, j))

    def exponents(self, i):
        return i

    def neg_index(self, i):
        return tuple(map(operator.neg, i))

    def validate_index(self, i):
        if not (isinstance(i, tuple) and len(i) == self.nvars and all(isinstance(a, int) for a in i)):
            raise ValueError(f"bad Laurent exponent tuple {i!r} for {self.nvars} variable(s)")

    def window(self, bound: int) -> List[tuple]:
        rng = range(-bound, bound + 1)
        return [tuple(t) for t in itertools.product(rng, repeat=self.nvars)]

    def index_str(self, i):
        if all(a == 0 for a in i):
            return "1"
        if self.nvars == 1:
            return f"t^{i[0]}"
        parts = [f"t{k + 1}^{a}" for k, a in enumerate(i) if a != 0]
        return "*".join(parts)

    def parse_index(self, text: str):
        return _parse_exponents(text, self.nvars)


class GroupAlgebra(CarrierAlgebra):
    """F[G] for G = Z^a x Z_{m_1} x ... x Z_{m_b}; indices are group elements
    stored as (free..., torsion...) integer tuples with torsion residues
    reduced into [0, m_i)."""

    shape = "group"

    def __init__(self, field: Field, free_rank: int = 0, torsion: Sequence[int] = ()):
        super().__init__(field)
        self.free_rank = free_rank
        self.torsion = tuple(int(m) for m in torsion)
        if free_rank < 0 or any(m < 2 for m in self.torsion):
            raise ValueError("free rank must be >= 0 and torsion orders >= 2")
        if free_rank == 0 and not self.torsion:
            raise ValueError("trivial group not supported")

    def _signature(self):
        return (self.free_rank, self.torsion)

    @property
    def rank(self):
        return self.free_rank + len(self.torsion)

    def dim(self):
        if self.free_rank:
            return None
        d = 1
        for m in self.torsion:
            d *= m
        return d

    def unit_index(self):
        return (0,) * self.rank

    def reduce_index(self, i):
        free = tuple(i[: self.free_rank])
        tor = tuple(x % m for x, m in zip(i[self.free_rank:], self.torsion))
        return free + tor

    def add_indices(self, i, j):
        return self.reduce_index(tuple(a + b for a, b in zip(i, j)))

    def exponents(self, i):
        return i

    def neg_index(self, i):
        return self.reduce_index(tuple(-a for a in i))

    def validate_index(self, i):
        if not (isinstance(i, tuple) and len(i) == self.rank and all(isinstance(a, int) for a in i)):
            raise ValueError(f"bad group element {i!r}")
        if i != self.reduce_index(i):
            raise ValueError(f"group element {i!r} has unreduced torsion part")

    def basis_indices(self):
        if self.free_rank:
            raise NotImplementedError("group has infinite order")
        return [tuple(t) for t in itertools.product(*(range(m) for m in self.torsion))]

    def window(self, bound: int):
        free = itertools.product(range(-bound, bound + 1), repeat=self.free_rank)
        tors = list(itertools.product(*(range(m) for m in self.torsion)))
        return [f + t for f in free for t in tors]

    def index_str(self, i):
        free = ",".join(str(a) for a in i[: self.free_rank])
        tor = ",".join(str(a) for a in i[self.free_rank:])
        if tor:
            return f"e({free}|{tor})"
        return f"e({free})"

    def parse_index(self, text: str):
        s = text.strip()
        if not (s.startswith("e(") and s.endswith(")")):
            raise ValueError(f"bad group element text {text!r}")
        body = s[2:-1]
        free_part, _, tor_part = body.partition("|")
        free = tuple(int(x) for x in free_part.split(",") if x.strip() != "")
        tor = tuple(int(x) for x in tor_part.split(",") if x.strip() != "")
        if (len(free), len(tor)) != (self.free_rank, len(self.torsion)):
            raise ValueError(f"group element {text!r} does not match the free rank and "
                             f"torsion orders {self._signature()}")
        return self.reduce_index(free + tor)


class QuotientLaurentAlgebra(CarrierAlgebra):
    """One-variable Laurent ring modulo the identification t^p = t^-p.

    Exponents live in the canonical window {1-p, ..., p} and add modulo 2p;
    this is the quotient by the principal ideal generated by t^p - t^-p.
    """

    shape = "quotient-laurent"
    nvars = 1

    def __init__(self, field: Field, p: int):
        super().__init__(field)
        if p < 2:
            raise ValueError("quotient parameter must be >= 2")
        self.p = p

    def _signature(self):
        return (self.p,)

    def dim(self):
        return 2 * self.p

    def unit_index(self):
        return 0

    def reduce_exponent(self, e: int) -> int:
        return (e - (1 - self.p)) % (2 * self.p) + (1 - self.p)

    def add_indices(self, i, j):
        return self.reduce_exponent(i + j)

    def exponents(self, i):
        return (i,)

    def neg_index(self, i):
        return self.reduce_exponent(-i)

    def validate_index(self, i):
        if not isinstance(i, int) or not (1 - self.p <= i <= self.p):
            raise ValueError(
                f"quotient exponent {i!r} outside canonical window [{1 - self.p}, {self.p}]"
            )

    def basis_indices(self):
        return list(range(1 - self.p, self.p + 1))

    def window(self, bound: int):
        return self.basis_indices()

    def index_str(self, i):
        return "1" if i == 0 else f"t^{i}"

    def parse_index(self, text: str):
        return self.reduce_exponent(_parse_exponents(text, 1)[0])


class TableAlgebra(CarrierAlgebra):
    """Finite-dimensional carrier given by an explicit multiplication table.

    The table maps ordered pairs (i, j) with i <= j to {k: coeff}; products
    are symmetrized from it.  Associativity is spot-verified on construction
    (exhaustively for dimension <= 6, on seeded samples above that).
    """

    shape = "table"

    def __init__(self, field: Field, dim: int, table: Dict, labels: Optional[List[str]] = None,
                 unit: Optional[int] = None, name: str = "table"):
        super().__init__(field)
        self._dim = dim
        self.labels = list(labels) if labels else [f"b{i}" for i in range(dim)]
        self.unit = unit
        self.name = name
        self.table = {}
        for (i, j), terms in table.items():
            self.table[(min(i, j), max(i, j))] = field.sparse(terms)
        self._spot_check_associativity()

    def _signature(self):
        return (self._dim, self.name)

    def _spot_check_associativity(self):
        d = self._dim
        if d <= 6:
            triples = itertools.product(range(d), repeat=3)
        else:
            rng = random.Random(0)
            triples = [tuple(rng.randrange(d) for _ in range(3)) for _ in range(200)]
        for (i, j, k) in triples:
            lhs = self.monomial(i) * self.monomial(j) * self.monomial(k)
            rhs = self.monomial(i) * (self.monomial(j) * self.monomial(k))
            if lhs != rhs:
                raise ValueError(
                    f"multiplication table is not associative at ({i},{j},{k})"
                )

    def dim(self):
        return self._dim

    def unit_index(self):
        return self.unit

    def mul_indices(self, i, j):
        terms = self.table.get((min(i, j), max(i, j)), {})
        return list(terms.items())

    def validate_index(self, i):
        if not isinstance(i, int) or not (0 <= i < self._dim):
            raise ValueError(f"index {i!r} outside table of dimension {self._dim}")

    def basis_indices(self):
        return list(range(self._dim))

    def window(self, bound: int):
        return self.basis_indices()

    def index_str(self, i):
        return self.labels[i]

    def parse_index(self, text: str):
        return self.labels.index(text.strip())


def truncated_polynomial_algebra(field: Field, n: int, unital: bool = True) -> TableAlgebra:
    """F[x]/(x^n), or its maximal ideal x*F[x]/(x^n) when unital is False."""
    if unital:
        powers = list(range(n))
    else:
        powers = list(range(1, n))
    pos = {p: i for i, p in enumerate(powers)}
    table = {}
    for a in range(len(powers)):
        for b in range(a, len(powers)):
            s = powers[a] + powers[b]
            table[(a, b)] = {pos[s]: field.one} if s < n else {}
    labels = ["1" if p == 0 else ("x" if p == 1 else f"x^{p}") for p in powers]
    unit = pos.get(0)
    return TableAlgebra(field, len(powers), table, labels=labels, unit=unit,
                        name=f"poly-trunc-{n}{'' if unital else '-nonunital'}")


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class AlgebraElement:
    """Sparse finite linear combination of carrier basis indices."""

    __slots__ = ("carrier", "terms")

    def __init__(self, carrier: CarrierAlgebra, terms: Dict):
        self.carrier = carrier
        self.terms = terms

    @property
    def field(self):
        return self.carrier.field

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "AlgebraElement"):
        if self.carrier != other.carrier:
            raise CarrierMismatchError("elements live on different carriers")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.carrier, self.field.combine(
            itertools.chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return AlgebraElement(self.carrier, {i: f.neg(c) for i, c in self.terms.items()})

    def scale(self, scalar):
        f = self.field
        if f.is_zero(scalar):
            return AlgebraElement(self.carrier, {})
        return AlgebraElement(self.carrier, {i: f.mul(scalar, c) for i, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            mul = self.carrier.mul_indices
            return AlgebraElement(self.carrier, self.field.combine(
                (k, ci * cj * ck) for i, ci in self.terms.items()
                for j, cj in other.terms.items() for k, ck in mul(i, j)))
        if isinstance(other, int):
            return self.scale(self.field.embed(other))
        return self.scale(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.carrier == other.carrier
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.carrier, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        f = self.field
        parts = []
        for idx, c in sorted(self.terms.items(), key=operator.itemgetter(0)):
            mono = self.carrier.index_str(idx)
            cs = f.render(c)
            parts.append(mono if cs == "1" else f"{cs}*{mono}")
        return " + ".join(parts)

    __repr__ = __str__


def coordinates(elem: AlgebraElement, ordered_indices: Sequence) -> list:
    """Dense coordinate vector of an element over an ordered index list.

    Raises if the element has support outside the listed indices.
    """
    pos = {idx: k for k, idx in enumerate(ordered_indices)}
    f = elem.field
    vec = [f.zero] * len(ordered_indices)
    for idx, c in elem.terms.items():
        if idx not in pos:
            raise ValueError(f"element term {elem.carrier.index_str(idx)} escapes the basis")
        vec[pos[idx]] = c
    return vec


# ---------------------------------------------------------------------------
# group homomorphisms into the additive group of the field
# ---------------------------------------------------------------------------

class GroupHom:
    """alpha in Hom(G, F^+), stored by its values on the generators.

    Torsion generators must satisfy m_i * alpha(g_i) = 0 in F; over a field of
    characteristic zero this forces alpha to vanish on torsion.
    """

    def __init__(self, carrier: GroupAlgebra, free_values: Sequence = (), torsion_values: Sequence = ()):
        if not isinstance(carrier, GroupAlgebra):
            raise CarrierMismatchError("GroupHom requires a group algebra carrier")
        f = carrier.field
        self.carrier = carrier
        self.free_values = [f.normalize(v) for v in free_values]
        self.torsion_values = [f.normalize(v) for v in torsion_values]
        if len(self.free_values) != carrier.free_rank or len(self.torsion_values) != len(carrier.torsion):
            raise ValueError("generator value count does not match the group signature")
        for m, v in zip(carrier.torsion, self.torsion_values):
            if not f.is_zero(f.mul(f.embed(m), v)):
                raise HypothesisViolation(
                    f"hom value {f.render(v)} on a torsion generator of order {m} "
                    f"violates m*alpha = 0 in {f}"
                )

    def is_zero(self):
        f = self.carrier.field
        return all(f.is_zero(v) for v in self.free_values + self.torsion_values)

    def __call__(self, g) -> object:
        values = self.free_values + self.torsion_values
        return self.carrier.field.normalize(sum(x * v for x, v in zip(g, values)))


# ---------------------------------------------------------------------------
# endomorphisms and functionals
# ---------------------------------------------------------------------------

def _check_variable(var: int, carrier: CarrierAlgebra) -> None:
    if not 0 <= var < carrier.nvars:
        raise ValueError(f"variable index {var} is out of range for a carrier with "
                         f"{carrier.nvars} exponent variable(s)")


def _table_dim(carrier: CarrierAlgebra) -> int:
    """The dimension d of a carrier whose basis indices are 0..d-1, the
    positions at which a table rule reads its entries."""
    d = carrier.dim()
    if d is None or carrier.basis_indices() != list(range(d)):
        raise ValueError(f"a table rule needs a finite carrier indexed 0..d-1, "
                         f"not a {carrier.shape} carrier")
    return d


class MapRule:
    """How a map acts on basis indices; `one_variable` rules read the
    exponent m of t^m."""

    one_variable = False

    def check(self, carrier: CarrierAlgebra) -> None:
        """Raise ValueError unless the rule's parameters suit `carrier`; run
        once, when a map is built from the rule."""
        if self.one_variable and carrier.nvars != 1:
            raise ValueError(f"{self.describe()} needs a carrier with one exponent variable, "
                             f"not {carrier.nvars}")

    def describe(self) -> str:
        raise NotImplementedError


class EndoRule(MapRule):
    def image(self, carrier: CarrierAlgebra, idx) -> List[Tuple[object, object]]:
        raise NotImplementedError


class IdentityRule(EndoRule):
    def image(self, carrier, idx):
        return [(idx, carrier.field.one)]

    def describe(self):
        return "identity"


class MonomialScale(EndoRule):
    """t^m -> base^m t^m on a one-variable monomial carrier.

    base = -1 is the sign involution family member; base = +1 the identity.
    """

    one_variable = True

    def __init__(self, base):
        self.base = base

    def check(self, carrier):
        super().check(carrier)
        if carrier.field.is_zero(carrier.field.normalize(self.base)):
            raise HypothesisViolation("monomial scale requires base != 0")

    def image(self, carrier, idx):
        m, = carrier.exponents(idx)
        return [(idx, carrier.field.pow(self.base, m))]

    def describe(self):
        return "monomial scale base^m"


class LaurentDerivation(EndoRule):
    """t^l * d/dt on one-variable carriers: t^m -> m t^{m+l-1}."""

    one_variable = True

    def __init__(self, power: int):
        self.power = power

    def image(self, carrier, idx):
        m, = carrier.exponents(idx)
        if isinstance(carrier, QuotientLaurentAlgebra):
            return [(carrier.reduce_exponent(m + self.power - 1), carrier.field.embed(m))]
        return [((m + self.power - 1,), carrier.field.embed(m))]

    def describe(self):
        return f"t^{self.power} d/dt"


class VariableScalingDerivation(EndoRule):
    """t_j * d/dt_j on multivariable Laurent carriers: t^r -> r_j t^r."""

    def __init__(self, var: int = 0):
        self.var = var

    def check(self, carrier):
        _check_variable(self.var, carrier)

    def image(self, carrier, idx):
        return [(idx, carrier.field.embed(idx[self.var]))]

    def describe(self):
        return f"t_{self.var + 1} d/dt_{self.var + 1}"


class LaurentFlip(EndoRule):
    """t^r -> L(r) t^{-r} with L(r) = prod_s lambda_s^{r_s}; one lambda_s per
    variable, each nonzero."""

    def __init__(self, lambdas: Sequence):
        self.lambdas = tuple(lambdas)
        self._scales: Dict[tuple, object] = {}

    def check(self, carrier):
        f = carrier.field
        if len(self.lambdas) != carrier.nvars:
            raise ValueError("one scale factor per variable required")
        if any(f.is_zero(f.normalize(lam)) for lam in self.lambdas):
            raise HypothesisViolation("flip involution requires lambda != 0")

    def scale(self, field: Field, exps: tuple):
        """L(r) for the exponent tuple r, cached per tuple."""
        c = self._scales.get(exps)
        if c is None:
            c = self._scales[exps] = field.normalize(
                math.prod(field.pow(lam, r) for lam, r in zip(self.lambdas, exps)))
        return c

    def image(self, carrier, idx):
        return [(carrier.neg_index(idx), self.scale(carrier.field, carrier.exponents(idx)))]

    def describe(self):
        return "lambda^r t^-r flip"


class GroupNegation(EndoRule):
    """e_g -> e_{-g} on any carrier with basis negation."""

    def image(self, carrier, idx):
        return [(carrier.neg_index(idx), carrier.field.one)]

    def describe(self):
        return "e_g -> e_-g"


class GroupHomDerivation(EndoRule):
    """e_g -> alpha(g) e_g for alpha in Hom(G, F^+)."""

    def __init__(self, hom: GroupHom):
        self.hom = hom

    def image(self, carrier, idx):
        return [(idx, self.hom(idx))]

    def describe(self):
        return "e_g -> alpha(g) e_g"


class TableMap(EndoRule):
    """Explicit linear map: basis j maps to sum_i entries[i][j] e_i."""

    def __init__(self, entries: Sequence[Sequence]):
        self.entries = [list(r) for r in entries]

    def check(self, carrier):
        d = _table_dim(carrier)
        if len(self.entries) != d or any(len(r) != d for r in self.entries):
            raise ValueError(f"a map of a {d}-dimensional carrier needs a {d} x {d} table")

    def image(self, carrier, idx):
        f = carrier.field
        out = []
        for i, row in enumerate(self.entries):
            if not f.is_zero(row[idx]):
                out.append((i, row[idx]))
        return out

    def describe(self):
        return "matrix-defined map"


class MonomialShift(EndoRule):
    """t^m -> coeff * t^{m+offset} on one-variable Laurent carriers."""

    one_variable = True

    def __init__(self, offset: int, coeff=None):
        self.offset = offset
        self.coeff = coeff

    def image(self, carrier, idx):
        c = carrier.field.one if self.coeff is None else self.coeff
        return [(carrier.add_indices(idx, (self.offset,)), c)]

    def describe(self):
        return f"t^m -> c t^(m{self.offset:+d})"


class IdMinus(EndoRule):
    """x -> x - inner(x)."""

    def __init__(self, inner: EndoRule):
        self.inner = inner

    def check(self, carrier):
        self.inner.check(carrier)

    def image(self, carrier, idx):
        f = carrier.field
        return list(f.combine(itertools.chain(
            [(idx, f.one)], ((j, -c) for j, c in self.inner.image(carrier, idx)))).items())

    def describe(self):
        return f"identity minus ({self.inner.describe()})"


class Endomorphism:
    """Linear map of a carrier, defined on basis indices, extended linearly."""

    def __init__(self, carrier: CarrierAlgebra, rule: EndoRule, name: str = ""):
        rule.check(carrier)
        self.carrier = carrier
        self.rule = rule
        self.name = name or rule.describe()

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        if x.carrier != self.carrier:
            raise CarrierMismatchError("endomorphism applied to a foreign element")
        return AlgebraElement(self.carrier, self.carrier.field.combine(
            (j, c * d) for idx, c in x.terms.items()
            for j, d in self.rule.image(self.carrier, idx)))

    def __repr__(self):
        return f"Endo({self.name})"


class FunctionalRule(MapRule):
    def value(self, carrier: CarrierAlgebra, idx):
        raise NotImplementedError


class AlternatingSign(FunctionalRule):
    """t^m -> (-1)^m (one-variable)."""

    one_variable = True

    def value(self, carrier, idx):
        m, = carrier.exponents(idx)
        return carrier.field.embed(-1 if m % 2 else 1)

    def describe(self):
        return "(-1)^m"


class ConstantOne(FunctionalRule):
    def value(self, carrier, idx):
        return carrier.field.one

    def describe(self):
        return "1"


class ExponentValue(FunctionalRule):
    """t^m -> m (one-variable) or r_j for a chosen variable."""

    def __init__(self, var: int = 0):
        self.var = var

    def check(self, carrier):
        _check_variable(self.var, carrier)

    def value(self, carrier, idx):
        return carrier.field.embed(carrier.exponents(idx)[self.var])

    def describe(self):
        return "exponent value"


class GroupHomFunctional(FunctionalRule):
    """phi_alpha(e_g) = alpha(g)."""

    def __init__(self, hom: GroupHom):
        self.hom = hom

    def value(self, carrier, idx):
        return self.hom(idx)

    def describe(self):
        return "phi_alpha"


class TableFunctional(FunctionalRule):
    def __init__(self, values: Sequence):
        self.values = list(values)

    def check(self, carrier):
        d = _table_dim(carrier)
        if len(self.values) != d:
            raise ValueError(f"a functional of a {d}-dimensional carrier needs {d} values")

    def value(self, carrier, idx):
        return self.values[idx]

    def describe(self):
        return "vector-defined functional"


class Functional:
    def __init__(self, carrier: CarrierAlgebra, rule: FunctionalRule, name: str = ""):
        rule.check(carrier)
        self.carrier = carrier
        self.rule = rule
        self.name = name or rule.describe()

    def __call__(self, x: AlgebraElement):
        if x.carrier != self.carrier:
            raise CarrierMismatchError("functional applied to a foreign element")
        return self.carrier.field.normalize(
            sum(c * self.rule.value(self.carrier, idx) for idx, c in x.terms.items()))

    def __repr__(self):
        return f"Functional({self.name})"


# ---------------------------------------------------------------------------
# law checks
# ---------------------------------------------------------------------------

def _window_images(f: Endomorphism, window: Sequence):
    """The window monomials and their images under f, by index: each image is
    computed once, not once per pair."""
    x = {a: f.carrier.monomial(a) for a in window}
    return x, {a: f(xa) for a, xa in x.items()}


def check_derivation(f: Endomorphism, window: Sequence) -> CheckReport:
    """Leibniz law D(xy) = D(x)y + xD(y) on all pairs from the window."""
    carrier = f.carrier
    rep = CheckReport("D(xy) = D(x)y + xD(y)")
    x, fx = _window_images(f, window)
    for a, b in itertools.combinations_with_replacement(window, 2):
        lhs = f(x[a] * x[b])
        rhs = fx[a] * x[b] + x[a] * fx[b]
        if rep.fails(lhs != rhs):
            rep.failures.append({
                "pair": [carrier.index_str(a), carrier.index_str(b)],
                "lhs": str(lhs), "rhs": str(rhs),
            })
    return rep


def check_involution(f: Endomorphism, window: Sequence) -> CheckReport:
    """Multiplicativity on pairs and f(f(x)) = x on singletons."""
    carrier = f.carrier
    rep = CheckReport("f(xy) = f(x)f(y) and f^2 = id")
    x, fx = _window_images(f, window)
    for a in window:
        ffx = f(fx[a])
        if rep.fails(ffx != x[a]):
            rep.failures.append({"index": carrier.index_str(a), "law": "f(f(x)) = x",
                                 "value": str(ffx)})
    for a, b in itertools.combinations_with_replacement(window, 2):
        if rep.fails(f(x[a] * x[b]) != fx[a] * fx[b]):
            rep.failures.append({"pair": [carrier.index_str(a), carrier.index_str(b)],
                                 "law": "f(xy) = f(x)f(y)"})
    return rep


def check_anticommute(omega: Endomorphism, delta: Endomorphism, window: Sequence) -> CheckReport:
    """(omega.delta + delta.omega)(x) = 0 on all window basis indices."""
    carrier = omega.carrier
    if carrier != delta.carrier:
        raise CarrierMismatchError("maps live on different carriers")
    rep = CheckReport("omega.delta + delta.omega = 0")
    for a in window:
        xa = carrier.monomial(a)
        val = omega(delta(xa)) + delta(omega(xa))
        if rep.fails(not val.is_zero()):
            rep.failures.append({"index": carrier.index_str(a), "value": str(val)})
    return rep


def check_functional_bracket_conditions(
    alpha: Optional[Functional],
    beta: Optional[Functional],
    gamma: Optional[Functional],
    delta: Optional[Endomorphism],
    omega: Optional[Endomorphism],
    window: Sequence,
) -> CheckReport:
    """The three compatibility conditions between functionals and maps that
    make the functional-row triple brackets close: alpha kills products,
    beta kills derivation commutators x D(y) - y D(x), and gamma takes the
    same value on x D(y) - y D(x) and omega(x) D(y) - omega(y) D(x).

    Each condition whose maps are all supplied is evaluated on all window
    pairs; the report carries one sub-report per condition.  A call that
    enables no condition is an error.
    """
    carrier = next((obj.carrier for obj in (alpha, beta, gamma, delta, omega)
                    if obj is not None), None)
    pairs = list(itertools.combinations_with_replacement(window, 2))
    details = {}

    if alpha is not None:
        sub = details["alpha_kills_products"] = CheckReport("alpha(xy) = 0")
        for a, b in pairs:
            val = alpha(carrier.monomial(a) * carrier.monomial(b))
            if sub.fails(not carrier.field.is_zero(val)):
                sub.failures.append({"pair": [carrier.index_str(a), carrier.index_str(b)],
                                     "value": carrier.field.render(val)})

    if beta is not None and delta is not None:
        sub = details["beta_kills_derivation_commutators"] = CheckReport(
            "beta(x D(y) - y D(x)) = 0")
        for a, b in pairs:
            xa, xb = carrier.monomial(a), carrier.monomial(b)
            val = beta(xa * delta(xb) - xb * delta(xa))
            if sub.fails(not carrier.field.is_zero(val)):
                sub.failures.append({"pair": [carrier.index_str(a), carrier.index_str(b)],
                                     "value": carrier.field.render(val)})

    if gamma is not None and delta is not None and omega is not None:
        sub = details["gamma_twist_balance"] = CheckReport(
            "gamma(x D(y) - y D(x)) = gamma(w(x) D(y) - w(y) D(x))")
        for a, b in pairs:
            xa, xb = carrier.monomial(a), carrier.monomial(b)
            lhs = gamma(xa * delta(xb) - xb * delta(xa))
            rhs = gamma(omega(xa) * delta(xb) - omega(xb) * delta(xa))
            if sub.fails(lhs != rhs):
                sub.failures.append({"pair": [carrier.index_str(a), carrier.index_str(b)],
                                     "lhs": carrier.field.render(lhs),
                                     "rhs": carrier.field.render(rhs)})

    if not details:
        raise ValueError("nothing to check: give alpha, beta with delta, "
                         "or gamma with delta and omega")
    return CheckReport("functional bracket conditions",
                       sum(r.checked for r in details.values()), details=details)


def check_witt_relation(carrier: LaurentAlgebra, bound: int) -> CheckReport:
    """Commutator law of the scaling derivations on a one-variable Laurent
    ring: [t^m d, t^n d] = (n-m) t^{m+n} d with d = t d/dt, on monomials."""
    if not isinstance(carrier, LaurentAlgebra) or carrier.nvars != 1:
        raise ValueError("the Witt relation check is one-variable")
    f = carrier.field
    rep = CheckReport("[t^m d, t^n d] = (n-m) t^{m+n} d")
    for m in range(-bound, bound + 1):
        Dm = Endomorphism(carrier, LaurentDerivation(m + 1))
        for n in range(-bound, bound + 1):
            Dn = Endomorphism(carrier, LaurentDerivation(n + 1))
            for j in range(-bound, bound + 1):
                x = carrier.monomial((j,))
                lhs = Dm(Dn(x)) - Dn(Dm(x))
                rhs = carrier.monomial((m + n + j,), f.embed((n - m) * j))
                if rep.fails(lhs != rhs):
                    rep.failures.append({"m": m, "n": n, "input": carrier.index_str((j,)),
                                         "lhs": str(lhs), "rhs": str(rhs)})
    return rep


# ---------------------------------------------------------------------------
# involution classification for one-variable Laurent rings
# ---------------------------------------------------------------------------

@dataclass
class InvolutionFamily:
    kind: str                       # "sign" or "flip"
    description: str
    make: Callable[..., Endomorphism]


def classify_involutions(carrier: LaurentAlgebra) -> List[InvolutionFamily]:
    """The two parametric families of involutions of F[t,t^-1], char != 2.

    Sign family: t^m -> e^m t^m with e = +-1; flip family: t^m -> c^m t^-m
    with c != 0.  Any algebra involution is one of these.
    """
    if not isinstance(carrier, LaurentAlgebra) or carrier.nvars != 1:
        raise ValueError("classification applies to one-variable Laurent rings")
    if carrier.field.characteristic == 2:
        raise HypothesisViolation(
            "involution classification assumes characteristic != 2, "
            f"but the field is {carrier.field}"
        )

    def make_sign(eps: int) -> Endomorphism:
        if eps not in (1, -1):
            raise ValueError("sign parameter must be +1 or -1")
        return Endomorphism(carrier, MonomialScale(carrier.field.embed(eps)),
                            name=f"sign involution eps={eps}")

    def make_flip(lam) -> Endomorphism:
        return Endomorphism(carrier, LaurentFlip((lam,)),
                            name="flip involution")

    return [
        InvolutionFamily("sign", "t^m -> e^m t^m, e = +-1", make_sign),
        InvolutionFamily("flip", "t^m -> c^m t^-m, c != 0", make_flip),
    ]
