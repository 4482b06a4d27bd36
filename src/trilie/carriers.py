"""Commutative associative carrier algebras and their distinguished maps.

Every carrier but a multiplication table is one group algebra F[G] of a
finitely generated abelian group G = Z^a x Z_{m_1} x ... x Z_{m_b}
(`GroupAlgebra`).  A basis index is the int tuple of a group element, free
coordinates first, each torsion coordinate reduced to its lowest
representative; e_g e_h = e_{g+h}.  The shapes differ only in those
representatives and in one text form each:

    shape             G        lowest representatives   text form
    laurent           Z^k      (free)                   1, t^-3, t1^2*t2^-1
    quotient-laurent  Z_2p     1-p, so t^e with e in    1, t^-2, t^3
                               {1-p, ..., p}
    group             Z^a x    0 on each Z_m            e(1,0|2)
                      prod Z_m

so F[t, t^-1] is F[Z], and its quotient by t^p = t^-p is F[Z_2p].
`TableAlgebra` is an explicit finite multiplication table (used for
truncated polynomial rings).  Elements are sparse maps from basis indices to
nonzero field scalars.

Derivations, involutions and linear functionals are first-class evaluable
objects defined on basis indices and extended linearly, with checkable laws
(Leibniz rule, multiplicativity + square = identity, anticommutation).  On a
group algebra each map rule is a character chi(g) = prod_s b_s^{g_s} or an
additive map a(g) = sum_s a_s g_s:

    CharacterMap          e_g -> c chi(g) e_{sigma(g)+s}, sigma in {id, -}
    AdditiveDerivation    e_g -> a(g) e_{g+s}
    CharacterFunctional   e_g -> chi(g)
    AdditiveFunctional    e_g -> a(g)

and the named rules of the documents are these with fixed parameters
(`MonomialScale`, `LaurentFlip`, `LaurentDerivation`, ...).
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
    # coordinates of a group-element index (none: indices are not group elements)
    rank = 0

    def __init__(self, field: Field):
        self.field = field

    # -- structure -----------------------------------------------------
    def dim(self) -> Optional[int]:
        return None

    def unit_index(self):
        return None

    def mul_indices(self, i, j) -> List[Tuple[object, object]]:
        return [(self.add_indices(i, j), self.field.one)]

    # -- group algebras: the basis is a group, written additively --------
    def add_indices(self, i, j):
        raise NotImplementedError(f"{self.shape} carrier has no index addition")

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
    power is 1); ValueError unless it names variables 1..nvars, each once,
    and every "^" is followed by a power."""
    exps = [0] * nvars
    if text.strip() != "1":
        for part in text.split("*"):
            name, caret, power = part.partition("^")
            name = name.strip()
            var = "1" if name == "t" else name[1:]
            if (name[:1] != "t" or not var.isdigit() or not 1 <= int(var) <= nvars
                    or exps[int(var) - 1] or (caret and not power.strip())):
                raise ValueError(f"bad monomial {text!r} for {nvars} variable(s)")
            exps[int(var) - 1] = int(power) if caret else 1
    return tuple(exps)


def _parse_coordinates(text: str) -> tuple:
    """The integers of a comma-separated list, none of them empty; "" is ()."""
    parts = text.split(",") if text.strip() else []
    if any(not x.strip() for x in parts):
        raise ValueError(f"empty coordinate in {text!r}")
    return tuple(int(x) for x in parts)


class GroupAlgebra(CarrierAlgebra):
    """F[G] for G = Z^a x Z_{m_1} x ... x Z_{m_b}; indices are group elements
    stored as (free..., torsion...) int tuples, each torsion coordinate
    reduced into [low, low + m) (low = 0 unless `lows` says otherwise).
    `shape` names the document shape and picks the text form: monomials for
    "laurent" and "quotient-laurent", e(free|torsion) for "group"."""

    def __init__(self, field: Field, free_rank: int = 0, torsion: Sequence[int] = (),
                 lows: Optional[Sequence[int]] = None, shape: str = "group"):
        super().__init__(field)
        self.free_rank = free_rank
        self.torsion = tuple(int(m) for m in torsion)
        lows = (0,) * len(self.torsion) if lows is None else tuple(lows)
        self.shape = shape
        self.rank = free_rank + len(self.torsion)
        if free_rank < 0 or any(m < 2 for m in self.torsion):
            raise ValueError("free rank must be >= 0 and torsion orders >= 2")
        if self.rank == 0:
            raise ValueError("trivial group not supported")
        if len(lows) != len(self.torsion):
            raise ValueError("one lowest representative per torsion order required")
        # each coordinate's order (None: free) and lowest representative
        self._orders = (None,) * free_rank + self.torsion
        self._lows = (0,) * free_rank + lows
        if self.torsion:  # free coordinates alone need no reduction
            self.add_indices, self.neg_index = self._add_reduced, self._neg_reduced

    def _signature(self):
        return (self._orders, self._lows)

    def dim(self):
        return None if self.free_rank else math.prod(self.torsion)

    def unit_index(self):
        return (0,) * self.rank

    def reduce_index(self, i):
        """The element `i` with each torsion coordinate at its lowest
        representative."""
        return tuple([x if m is None else (x - lo) % m + lo
                      for x, m, lo in zip(i, self._orders, self._lows)])

    def add_indices(self, i, j):
        return tuple(map(operator.add, i, j))

    def neg_index(self, i):
        return tuple(map(operator.neg, i))

    def _add_reduced(self, i, j):
        return self.reduce_index(tuple(map(operator.add, i, j)))

    def _neg_reduced(self, i):
        return self.reduce_index(tuple(map(operator.neg, i)))

    def validate_index(self, i):
        if not (isinstance(i, tuple) and len(i) == self.rank and all(isinstance(a, int) for a in i)):
            raise ValueError(f"bad {self.shape} index {i!r}: need {self.rank} integer coordinates")
        if self.torsion and i != self.reduce_index(i):
            raise ValueError(f"{self.shape} index {i!r} has a torsion coordinate outside "
                             f"its lowest representatives")

    def basis_indices(self):
        if self.free_rank:
            raise NotImplementedError(f"{self.shape} carrier is infinite dimensional")
        return self.window(0)

    def window(self, bound: int):
        """The elements with free coordinates in [-bound, bound], and every
        torsion coordinate."""
        return list(itertools.product(*(range(-bound, bound + 1) if m is None else
                                        range(lo, lo + m)
                                        for m, lo in zip(self._orders, self._lows))))

    def index_str(self, i):
        if self.shape == "group":
            free = ",".join(str(a) for a in i[: self.free_rank])
            tor = ",".join(str(a) for a in i[self.free_rank:])
            return f"e({free}|{tor})" if tor else f"e({free})"
        if not any(i):
            return "1"
        if self.rank == 1:
            return f"t^{i[0]}"
        return "*".join(f"t{k + 1}^{a}" for k, a in enumerate(i) if a != 0)

    def parse_index(self, text: str):
        if self.shape != "group":
            return self.reduce_index(_parse_exponents(text, self.rank))
        s = text.strip()
        if not (s.startswith("e(") and s.endswith(")")):
            raise ValueError(f"bad group element text {text!r}")
        free_part, _, tor_part = s[2:-1].partition("|")
        free, tor = _parse_coordinates(free_part), _parse_coordinates(tor_part)
        if (len(free), len(tor)) != (self.free_rank, len(self.torsion)):
            raise ValueError(f"group element {text!r} does not match the free rank and "
                             f"torsion orders {(self.free_rank, self.torsion)}")
        return self.reduce_index(free + tor)


def LaurentAlgebra(field: Field, nvars: int = 1) -> GroupAlgebra:
    """F[t_1^-1..t_k^-1, t_1..t_k] = F[Z^k]; indices are exponent tuples."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    return GroupAlgebra(field, nvars, shape="laurent")


def QuotientLaurentAlgebra(field: Field, p: int) -> GroupAlgebra:
    """One-variable Laurent ring modulo the identification t^p = t^-p, the
    quotient by the principal ideal generated by t^p - t^-p: F[Z_2p], with
    exponents (e,) in the canonical window {1-p, ..., p}."""
    if p < 2:
        raise ValueError("quotient parameter must be >= 2")
    return GroupAlgebra(field, 0, (2 * p,), lows=(1 - p,), shape="quotient-laurent")


def _one_variable_laurent(carrier) -> bool:
    """Whether `carrier` is F[t, t^-1], the ring of the one-variable checks."""
    return isinstance(carrier, GroupAlgebra) and carrier.shape == "laurent" and carrier.rank == 1


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
        free = [f.normalize(v) for v in free_values]
        torsion = [f.normalize(v) for v in torsion_values]
        if len(free) != carrier.free_rank or len(torsion) != len(carrier.torsion):
            raise ValueError("generator value count does not match the group signature")
        for m, v in zip(carrier.torsion, torsion):
            if not f.is_zero(f.mul(f.embed(m), v)):
                raise HypothesisViolation(
                    f"hom value {f.render(v)} on a torsion generator of order {m} "
                    f"violates m*alpha = 0 in {f}"
                )
        # one value per coordinate of a group element
        self.values = tuple(free + torsion)

    def is_zero(self):
        return not any(self.values)

    def __call__(self, g) -> object:
        return self.carrier.field.normalize(sum(map(operator.mul, g, self.values)))


# ---------------------------------------------------------------------------
# map rules: characters and additive maps
# ---------------------------------------------------------------------------

def _check_variable(var: int, carrier: CarrierAlgebra) -> None:
    if not 0 <= var < carrier.rank:
        raise ValueError(f"variable index {var} is out of range for a carrier with "
                         f"{carrier.rank} exponent variable(s)")


def _check_shift(shift, carrier: CarrierAlgebra) -> None:
    if shift is not None and len(shift) != carrier.rank:
        raise ValueError(f"a shift by {shift} needs a carrier with {len(shift)} exponent "
                         f"variable(s), not {carrier.rank}")


def _unit(var: int) -> tuple:
    """The values of a(g) = g_var."""
    if var < 0:
        raise ValueError(f"variable index {var} is negative")
    return (0,) * var + (1,)


def _table_dim(carrier: CarrierAlgebra) -> int:
    """The dimension d of a carrier whose basis indices are 0..d-1, the
    positions at which a table rule reads its entries."""
    d = carrier.dim()
    if d is None or carrier.basis_indices() != list(range(d)):
        raise ValueError(f"a table rule needs a finite carrier indexed 0..d-1, "
                         f"not a {carrier.shape} carrier")
    return d


class Character:
    """chi(g) = prod_s bases_s^{g_s} on group-element indices, cached per
    index; no bases is chi = 1 on any carrier.

    When every base is a Python int (parity's -1), chi is evaluated in ints
    and left unnormalized, as a value of any field's arithmetic: callers sum
    it with `Field.combine` or `Field.normalize`, which normalize once.
    """

    def __init__(self, bases: Sequence = ()):
        self.bases = tuple(bases)
        self._ints = all(type(b) is int for b in self.bases)
        self._field, self._values = None, {}

    def check(self, carrier: CarrierAlgebra) -> None:
        f = carrier.field
        if self.bases and len(self.bases) != carrier.rank:
            raise ValueError("one scale factor per variable required")
        if any(f.is_zero(f.normalize(b)) for b in self.bases):
            raise HypothesisViolation("a character prod_s lambda_s^(g_s) requires lambda != 0")
        # the coordinates of torsion orders m (the last ones) are read mod m
        torsion = getattr(carrier, "torsion", ())
        for b, m in zip(map(f.normalize, self.bases[len(self.bases) - len(torsion):]), torsion):
            if f.pow(b, m) != f.one:
                raise HypothesisViolation(f"a character on a torsion coordinate of order {m} "
                                          f"requires lambda^{m} = 1, not lambda = {f.render(b)}")

    def __call__(self, field: Field, g):
        if not self.bases:
            return 1
        if field is not self._field:  # the cache holds the values of one field
            self._field, self._values = field, {}
        c = self._values.get(g)
        if c is None:
            c = self._values[g] = self._power_product(field, g)
        return c

    def _power_product(self, field: Field, g):
        if not self._ints:
            return field.normalize(math.prod(field.pow(b, e) for b, e in zip(self.bases, g)))
        num = den = 1
        for b, e in zip(self.bases, g):
            if e < 0:
                den *= b ** -e
            else:
                num *= b ** e
        return num * den if den in (1, -1) else field.mul(num, field.inv(field.normalize(den)))


class MapRule:
    """How a map acts on basis indices."""

    def check(self, carrier: CarrierAlgebra) -> None:
        """Raise ValueError unless the rule's parameters suit `carrier`; run
        once, when a map is built from the rule."""

    def describe(self) -> str:
        raise NotImplementedError


class EndoRule(MapRule):
    def image(self, carrier: CarrierAlgebra, idx) -> List[Tuple[object, object]]:
        raise NotImplementedError


class FunctionalRule(MapRule):
    def value(self, carrier: CarrierAlgebra, idx):
        raise NotImplementedError


class CharacterMap(EndoRule):
    """e_g -> c chi(g) e_{sigma(g)+s}: sigma = - when `negate`, s = 0 when
    `shift` is None, c = 1 when `coeff` is None."""

    def __init__(self, bases: Sequence = (), negate: bool = False, shift=None, coeff=None):
        self.chi = Character(bases)
        self.negate, self.shift, self.coeff = negate, shift, coeff

    def check(self, carrier):
        self.chi.check(carrier)
        _check_shift(self.shift, carrier)

    def image(self, carrier, idx):
        c = self.chi(carrier.field, idx)
        if self.negate:
            idx = carrier.neg_index(idx)
        if self.shift is not None:
            idx = carrier.add_indices(idx, self.shift)
        return [(idx, c if self.coeff is None else self.coeff * c)]

    def describe(self):
        target = ("-g" if self.negate else "g") + (f"+{self.shift}" if self.shift else "")
        return f"e_g -> c chi(g) e_({target}), chi = prod {self.chi.bases}^g"


class AdditiveDerivation(EndoRule):
    """e_g -> a(g) e_{g+s} for a(g) = sum_s a_s g_s (a_s = 0 past the given
    values); s = 0 when `shift` is None."""

    def __init__(self, a: Sequence, shift=None):
        self.a, self.shift = tuple(a), shift

    def check(self, carrier):
        if self.a:
            _check_variable(len(self.a) - 1, carrier)
        _check_shift(self.shift, carrier)

    def image(self, carrier, idx):
        target = idx if self.shift is None else carrier.add_indices(idx, self.shift)
        return [(target, sum(map(operator.mul, self.a, idx)))]

    def describe(self):
        return f"e_g -> a(g) e_(g+{self.shift or 0}), a = {self.a}"


class CharacterFunctional(FunctionalRule):
    """e_g -> chi(g)."""

    def __init__(self, bases: Sequence = ()):
        self.chi = Character(bases)

    def check(self, carrier):
        self.chi.check(carrier)

    def value(self, carrier, idx):
        return self.chi(carrier.field, idx)

    def describe(self):
        return f"chi(g) = prod {self.chi.bases}^g"


class AdditiveFunctional(FunctionalRule):
    """e_g -> a(g) = sum_s a_s g_s."""

    def __init__(self, a: Sequence):
        self.a = tuple(a)

    def check(self, carrier):
        if self.a:
            _check_variable(len(self.a) - 1, carrier)

    def value(self, carrier, idx):
        return sum(map(operator.mul, self.a, idx))

    def describe(self):
        return f"a(g), a = {self.a}"


# the named rules: (chi, sigma, s, c) or (a, s)

def IdentityRule() -> CharacterMap:
    return CharacterMap()


def MonomialScale(base) -> CharacterMap:
    """t^m -> base^m t^m: base = -1 is the sign involution, +1 the identity."""
    return CharacterMap((base,))


def LaurentFlip(lambdas: Sequence) -> CharacterMap:
    """t^r -> L(r) t^{-r} with L(r) = prod_s lambda_s^{r_s}; one lambda_s per
    variable, each nonzero."""
    return CharacterMap(lambdas, negate=True)


def GroupNegation() -> CharacterMap:
    """e_g -> e_{-g}."""
    return CharacterMap(negate=True)


def MonomialShift(offset: int, coeff=None) -> CharacterMap:
    """t^m -> coeff * t^{m+offset} on one-variable carriers."""
    return CharacterMap(shift=(offset,), coeff=coeff)


def LaurentDerivation(power: int) -> AdditiveDerivation:
    """t^l * d/dt on one-variable carriers: t^m -> m t^{m+l-1}."""
    return AdditiveDerivation((1,), (power - 1,))


def VariableScalingDerivation(var: int = 0) -> AdditiveDerivation:
    """t_j * d/dt_j on multivariable Laurent carriers: t^r -> r_j t^r."""
    return AdditiveDerivation(_unit(var))


def GroupHomDerivation(hom: GroupHom) -> AdditiveDerivation:
    """e_g -> alpha(g) e_g for alpha in Hom(G, F^+)."""
    return AdditiveDerivation(hom.values)


def AlternatingSign() -> CharacterFunctional:
    """t^m -> (-1)^m (one-variable)."""
    return CharacterFunctional((-1,))


def ConstantOne() -> CharacterFunctional:
    return CharacterFunctional()


def ExponentValue(var: int = 0) -> AdditiveFunctional:
    """t^r -> r_var."""
    return AdditiveFunctional(_unit(var))


def GroupHomFunctional(hom: GroupHom) -> AdditiveFunctional:
    """phi_alpha(e_g) = alpha(g)."""
    return AdditiveFunctional(hom.values)


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


def check_witt_relation(carrier: GroupAlgebra, bound: int) -> CheckReport:
    """Commutator law of the scaling derivations on a one-variable Laurent
    ring: [t^m d, t^n d] = (n-m) t^{m+n} d with d = t d/dt, on monomials."""
    if not _one_variable_laurent(carrier):
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


def classify_involutions(carrier: GroupAlgebra) -> List[InvolutionFamily]:
    """The two parametric families of involutions of F[t,t^-1], char != 2.

    Sign family: t^m -> e^m t^m with e = +-1; flip family: t^m -> c^m t^-m
    with c != 0.  Any algebra involution is one of these.
    """
    if not _one_variable_laurent(carrier):
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
