"""Evaluable 3-ary alternating brackets on carrier algebras.

The determinant bracket (three row operators: maps, functionals or the
identity, expanded as a formal 3x3 determinant) is the single source of
truth.  Its basis path `DeterminantBracket.eval_indices` is memoized per
bracket; its `__call__` on general elements is the unmemoized definition,
and the oracle of that path.  On a group algebra (a Laurent ring is F[Z^k],
the quotient F[Z_2p]) the determinant with rows (omega, id, delta) is one
closed form, `ClosedFormBracket`, for a character chi, an additive map a,
sigma in {id, -} and a shift s:

    [e_x, e_y, e_z] = sum over the cyclic shifts of (x, y, z) of
                      chi(x) (a(z) - a(y)) e_{sigma(x)+y+z+s}

    form              chi(x)                 a(x)       sigma  s
    group-wedge       1                      alpha(x)   -      0
    laurent-flip      prod_s lambda_s^{x_s}  x_var      -      0
    laurent-parity    (-1)^x                 x          id     shift - 1
    quotient-parity   (-1)^x                 x mod p    id     -1
    monomial-parity   (-1)^x                 x          id     shift

so `monomial-parity` at shift k is `laurent-parity` at shift k + 1.  The
closed form is verified against the determinant, never trusted on its own.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .carriers import (
    AlgebraElement,
    CarrierAlgebra,
    CarrierMismatchError,
    Character,
    Endomorphism,
    Functional,
    GroupAlgebra,
    GroupHom,
    HypothesisViolation,
    _check_variable,
    _one_variable_laurent,
)
from .fields import Field
from .structure import CheckReport, FiniteNLieAlgebra, _fi_cases, _fi_scan, _perm_sign

_PERMS3 = [(p, _perm_sign(p)) for p in itertools.permutations(range(3))]

Row = Union[str, Endomorphism, Functional]


def _normalize_row(row: Row) -> Tuple[str, object]:
    if row == "id" or row is None:
        return ("id", None)
    if isinstance(row, Endomorphism):
        return ("endo", row)
    if isinstance(row, Functional):
        return ("func", row)
    raise ValueError(f"bad determinant row {row!r}")


class TriBracket:
    """3-linear alternating multiplication, defined on basis indices and
    extended trilinearly."""

    arity = 3

    def __init__(self, carrier: CarrierAlgebra):
        self.carrier = carrier

    def eval_indices(self, i, j, k) -> AlgebraElement:
        raise NotImplementedError

    def __call__(self, a: AlgebraElement, b: AlgebraElement, c: AlgebraElement) -> AlgebraElement:
        for x in (a, b, c):
            if x.carrier != self.carrier:
                raise CarrierMismatchError("bracket applied to a foreign element")
        return AlgebraElement(self.carrier, self.carrier.field.combine(
            (z, ca * cb * cc * cz) for i, ca in a.terms.items() for j, cb in b.terms.items()
            for k, cc in c.terms.items() for z, cz in self.eval_indices(i, j, k).terms.items()))


class DeterminantBracket(TriBracket):
    """Formal 3x3 determinant whose rows are maps/functionals applied to the
    three arguments; functional rows contribute scalar cofactors.

    `__call__` on general elements is the unmemoized definition and the
    oracle of the basis path.  `eval_indices` is that basis path, memoized
    per instance: each row is applied to each basis index once, the first
    two algebra-valued rows are multiplied once per ordered index pair, and
    each of the six signed permutation terms then takes at most one more
    carrier product, and `Field.combine` sums them.
    """

    def __init__(self, carrier: CarrierAlgebra, rows: Sequence[Row]):
        super().__init__(carrier)
        if len(rows) != 3:
            raise ValueError("a determinant bracket needs exactly three rows")
        self.rows = [_normalize_row(r) for r in rows]
        if all(kind == "func" for kind, _ in self.rows):
            raise ValueError("at least one row must be algebra valued")
        for kind, obj in self.rows:
            if kind != "id" and obj.carrier != carrier:
                raise CarrierMismatchError("row operator lives on a different carrier")
        self._algebra_rows = [r for r, (kind, _) in enumerate(self.rows) if kind != "func"]
        self._func_rows = [r for r, (kind, _) in enumerate(self.rows) if kind == "func"]
        self._images: Dict[Tuple[int, object], object] = {}
        self._pairs: Dict[Tuple[object, object], Dict] = {}

    def __call__(self, a, b, c):
        elems = (a, b, c)
        for x in elems:
            if x.carrier != self.carrier:
                raise CarrierMismatchError("bracket applied to a foreign element")
        f = self.carrier.field
        total = self.carrier.zero()
        for perm, sign in _PERMS3:
            scal = f.one if sign == 1 else f.embed(-1)
            alg: Optional[AlgebraElement] = None
            for (kind, obj), pos in zip(self.rows, perm):
                x = elems[pos]
                if kind == "func":
                    scal = f.mul(scal, obj(x))
                else:
                    val = x if kind == "id" else obj(x)
                    alg = val if alg is None else alg * val
            if not f.is_zero(scal):
                total = total + alg.scale(scal)
        return total

    def _image(self, row: int, idx):
        """Row `row` applied to the basis monomial at `idx`: an element for
        `id` and endomorphism rows, a scalar for functional rows; memoized."""
        val = self._images.get((row, idx))
        if val is None:
            kind, obj = self.rows[row]
            x = self.carrier.monomial(idx)
            val = self._images[row, idx] = x if kind == "id" else obj(x)
        return val

    def _pair(self, a, b) -> Dict:
        """Terms of the product of the first two algebra-valued rows at the
        ordered index pair (a, b); memoized."""
        terms = self._pairs.get((a, b))
        if terms is None:
            r0, r1 = self._algebra_rows[:2]
            terms = self._pairs[a, b] = (self._image(r0, a) * self._image(r1, b)).terms
        return terms

    def eval_indices(self, i, j, k):
        f = self.carrier.field
        args = (i, j, k)
        mul = self.carrier.mul_indices
        products = []
        for perm, sign in _PERMS3:
            scal = f.one if sign == 1 else f.embed(-1)
            for r in self._func_rows:
                scal = f.mul(scal, self._image(r, args[perm[r]]))
            if f.is_zero(scal):
                continue
            idxs = [args[perm[r]] for r in self._algebra_rows]
            terms = (self._image(self._algebra_rows[0], idxs[0]).terms if len(idxs) == 1
                     else self._pair(idxs[0], idxs[1]))
            if len(idxs) < 3:
                products += [(x, scal * c) for x, c in terms.items()]
            else:  # the last factor is multiplied straight into the sum
                last = self._image(self._algebra_rows[2], idxs[2]).terms
                products += [(z, scal * cx * cy * cz) for x, cx in terms.items()
                             for y, cy in last.items() for z, cz in mul(x, y)]
        return AlgebraElement(self.carrier, f.combine(products))


def _det3(r1, r2, r3):
    """The raw 3x3 determinant of three rows of scalars."""
    return sum(sign * r1[i] * r2[j] * r3[k] for (i, j, k), sign in _PERMS3)


def functional_det(f1: Functional, f2: Functional, f3: Functional,
                   a: AlgebraElement, b: AlgebraElement, c: AlgebraElement):
    """Scalar 3x3 determinant of three functionals applied to three elements."""
    return a.field.normalize(_det3(*([f(x) for x in (a, b, c)] for f in (f1, f2, f3))))


# ---------------------------------------------------------------------------
# 2-ary brackets on a commutative algebra
# ---------------------------------------------------------------------------

def pair_bracket_delta(delta: Endomorphism, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """[a,b] = a D(b) - b D(a)."""
    return a * delta(b) - b * delta(a)


def pair_bracket_omega(omega: Endomorphism, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """[a,b] = w(a) b - w(b) a."""
    return omega(a) * b - omega(b) * a


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _require_char_not_two(field: Field, what: str):
    if field.characteristic == 2:
        raise HypothesisViolation(f"{what} assumes characteristic != 2, got {field}")


class ClosedFormBracket(TriBracket):
    """The closed form of the module docstring on a group algebra, whose
    indices are the group elements x: chi(x) = prod_s bases_s^{x_s} (a
    `Character`), a(x) = sum_s a_s x_s, and sigma = - with s = 0 when `shift`
    is None.  `hom` is the group hom of the `group-wedge` form, for
    `kernel-ideal`."""

    def __init__(self, carrier: GroupAlgebra, bases: Sequence, a: Sequence, shift=None,
                 hom: Optional[GroupHom] = None):
        super().__init__(carrier)
        if shift is not None:
            carrier.validate_index(shift)
        self.chi = Character(bases)
        self.a = tuple(a)
        self.shift = shift
        self.hom = hom

    def eval_indices(self, i, j, k):
        C, a, mul = self.carrier, self.a, operator.mul
        f, add, chi = C.field, C.add_indices, self.chi
        ai, aj, ak = sum(map(mul, a, i)), sum(map(mul, a, j)), sum(map(mul, a, k))
        ci, cj, ck = chi(f, i) * (ak - aj), chi(f, j) * (ai - ak), chi(f, k) * (aj - ai)
        if self.shift is not None:  # one target x + y + z + s
            return AlgebraElement(C, f.sparse({add(add(add(i, j), k), self.shift): ci + cj + ck}))
        neg = C.neg_index
        return AlgebraElement(C, f.combine(((add(add(j, k), neg(i)), ci),
                                            (add(add(k, i), neg(j)), cj),
                                            (add(add(i, j), neg(k)), ck))))


def GroupWedgeBracket(hom: GroupHom) -> ClosedFormBracket:
    """[e_g,e_h,e_w] = a(w-h) e_{h+w-g} + a(g-w) e_{g+w-h} + a(h-g) e_{g+h-w}
    for a group hom a: G -> F^+: chi = 1, sigma = -."""
    # no bases: chi is the empty product 1, with no field arithmetic per index
    return ClosedFormBracket(hom.carrier, (), hom.values, hom=hom)


def LaurentFlipBracket(carrier: GroupAlgebra, lambdas: Sequence,
                       var: int = 0) -> ClosedFormBracket:
    """[t^r,t^i,t^n] = L(r)(n_j-i_j) t^{i+n-r} + L(i)(r_j-n_j) t^{r+n-i}
    + L(n)(i_j-r_j) t^{r+i-n}, where L(r) = prod_s lambda_s^{r_s} and j is the
    distinguished variable: chi = L, a = e_j, sigma = -."""
    _require_char_not_two(carrier.field, "the flip-involution bracket")
    bracket = ClosedFormBracket(carrier, lambdas, [int(s == var) for s in range(carrier.rank)])
    bracket.chi.check(carrier)
    _check_variable(var, carrier)
    return bracket


def parity_coefficient(field: Field, l: int, m: int, n: int):
    """(-1)^l (n-m) + (-1)^m (l-n) + (-1)^n (m-l), embedded into the field."""
    def sgn(e):
        return -1 if e % 2 else 1

    return field.embed(sgn(l) * (n - m) + sgn(m) * (l - n) + sgn(n) * (m - l))


def parity_bracket(carrier: GroupAlgebra, shift) -> ClosedFormBracket:
    """[t^l,t^m,t^n] = parity_coefficient(l,m,n) t^{l+m+n+s}: `monomial-parity`.
    chi(x) = (-1)^x is evaluated in Python ints on every field."""
    if carrier.rank != 1:
        raise ValueError("parity bracket is one-variable")
    return ClosedFormBracket(carrier, [-1], [1], shift)


def LaurentParityBracket(carrier: GroupAlgebra, shift: int = 0) -> ClosedFormBracket:
    """[t^l,t^m,t^n] = {(-1)^l(n-m)+(-1)^m(l-n)+(-1)^n(m-l)} t^{l+m+n+shift-1}.

    shift = 2k is the closed form with rows (sign involution, identity,
    t^{2k} d/dt); shift = 0 is the plain-derivative form.
    """
    bracket = parity_bracket(carrier, (shift - 1,))
    _require_char_not_two(carrier.field, "the parity-coefficient bracket")
    return bracket


def QuotientParityBracket(carrier: GroupAlgebra) -> ClosedFormBracket:
    """The parity-coefficient bracket on the 2p-dimensional quotient carrier
    with exponents identified modulo t^p = t^-p; requires ch F = p > 2."""
    p = carrier.dim() // 2
    if p <= 2:
        raise HypothesisViolation("the quotient bracket requires p > 2")
    if carrier.field.characteristic != p:
        raise HypothesisViolation(
            f"the quotient bracket requires ch F = p = {p}, "
            f"got {carrier.field}"
        )
    return parity_bracket(carrier, (-1,))


SKEW_SAMPLES = 60


class MonomialBracket(TriBracket):
    """[e_a,e_b,e_c] = f(a,b,c) e_{a+b+c+t} for a skew coefficient function f
    and a fixed shift t; skewness of f is checked on `SKEW_SAMPLES` seeded triples."""

    def __init__(self, carrier: CarrierAlgebra, coeff_fn: Callable, t_shift):
        super().__init__(carrier)
        self.coeff_fn = coeff_fn
        self.t_shift = t_shift
        carrier.validate_index(t_shift)
        rng = random.Random(0)
        f = carrier.field
        window = carrier.window(3)
        for _ in range(SKEW_SAMPLES):
            a, b, c = (rng.choice(window) for _ in range(3))
            base = self.coeff_fn(a, b, c)
            for perm, sign in _PERMS3:
                args = [(a, b, c)[t] for t in perm]
                if self.coeff_fn(*args) != (base if sign == 1 else f.neg(base)):
                    raise ValueError(f"coefficient function is not skew-symmetric at {args}")

    def eval_indices(self, a, b, c):
        add = self.carrier.add_indices
        idx = add(add(add(a, b), c), self.t_shift)
        return self.carrier.monomial(idx, self.coeff_fn(a, b, c))


# the rows (-1)^e, 1 and e of the parity coefficient's determinant
PARITY_ROWS = (lambda e: -1 if e % 2 else 1, lambda e: 1, lambda e: e)


def parity_determinant_coefficient(field: Field):
    """The skew function f(l,m,n) = det[[(-1)^l,(-1)^m,(-1)^n],[1,1,1],[l,m,n]]
    on integer (1-tuple) indices, evaluated from `PARITY_ROWS` in the field's
    arithmetic.  It equals `parity_coefficient`, which
    `monomial-parity-agreement` checks."""

    def f(a, b, c):
        return field.normalize(_det3(*([field.embed(r(x[0])) for x in (a, b, c)]
                                        for r in PARITY_ROWS)))

    return f


class StructureBackedBracket(TriBracket):
    """Bracket of a tabulated algebra, replayed on a finite carrier whose
    ordered basis indexes the structure constants."""

    def __init__(self, algebra: FiniteNLieAlgebra, carrier: CarrierAlgebra,
                 basis_order: Sequence):
        super().__init__(carrier)
        if algebra.dim != len(basis_order):
            raise ValueError("basis order does not match the algebra dimension")
        self.algebra = algebra
        self.basis_order = list(basis_order)
        self.pos = {idx: k for k, idx in enumerate(basis_order)}

    def eval_indices(self, i, j, k):
        vec = self.algebra.bracket_indices((self.pos[i], self.pos[j], self.pos[k]))
        return AlgebraElement(
            self.carrier, {self.basis_order[l]: c for l, c in vec.items()}
        )


# ---------------------------------------------------------------------------
# tabulation
# ---------------------------------------------------------------------------

@dataclass
class ClosureFailure:
    triple: tuple
    escaped_index: object
    value: str

    def __str__(self):
        return f"bracket of {self.triple} escapes the basis at {self.escaped_index}"


def tabulate(bracket: TriBracket, basis: Sequence, name: str = "") -> Union[FiniteNLieAlgebra, ClosureFailure]:
    """Materialize a bracket as structure constants over an ordered basis.

    Returns the first escaping triple as a `ClosureFailure` value when the
    basis is not closed (expected for un-truncated Laurent families).
    """
    carrier = bracket.carrier
    pos = {idx: k for k, idx in enumerate(basis)}
    f = carrier.field
    constants = {}
    for (a, b, c) in itertools.combinations(range(len(basis)), 3):
        elem = bracket.eval_indices(basis[a], basis[b], basis[c])
        vec = {}
        for idx, coeff in elem.terms.items():
            if idx not in pos:
                labels = (carrier.index_str(basis[a]), carrier.index_str(basis[b]),
                          carrier.index_str(basis[c]))
                return ClosureFailure(labels, carrier.index_str(idx), str(elem))
            vec[pos[idx]] = coeff
        if vec:
            constants[(a, b, c)] = vec
    labels = [carrier.index_str(i) for i in basis]
    return FiniteNLieAlgebra(f, len(basis), 3, constants, labels, name=name)


# ---------------------------------------------------------------------------
# bracket-level checks
# ---------------------------------------------------------------------------

def check_alternating(bracket: TriBracket, window: Sequence, seed: int = 0,
                      samples: int = 40) -> CheckReport:
    """Repeated arguments vanish; permutations flip signs (sampled)."""
    carrier = bracket.carrier
    f = carrier.field
    rng = random.Random(seed)
    rep = CheckReport("alternating multiplication")
    for i, j in itertools.product(window[: min(len(window), 8)], repeat=2):
        val = bracket.eval_indices(i, i, j)
        if rep.fails(not val.is_zero()):
            rep.failures.append({"triple": [carrier.index_str(i)] * 2 + [carrier.index_str(j)],
                                 "value": str(val)})
    for _ in range(samples):
        a, b, c = (rng.choice(window) for _ in range(3))
        base = bracket.eval_indices(a, b, c)
        for perm, sign in _PERMS3:
            args = [(a, b, c)[t] for t in perm]
            got = bracket.eval_indices(*args)
            want = base if sign == 1 else base.scale(f.embed(-1))
            if rep.fails(got != want):
                rep.failures.append({"triple": [carrier.index_str(x) for x in args],
                                     "got": str(got), "want": str(want)})
    return rep


def check_trilinear(bracket: TriBracket, window: Sequence, seed: int = 0,
                    samples: int = 25) -> CheckReport:
    """eval(ax+by, c, d) = a eval(x,c,d) + b eval(y,c,d) on random elements."""
    carrier = bracket.carrier
    f = carrier.field
    rng = random.Random(seed)
    rep = CheckReport("trilinearity")
    for _ in range(samples):
        x, y, c, d = (carrier.monomial(rng.choice(window)) for _ in range(4))
        a_s, b_s = f.random_element(rng), f.random_element(rng)
        lhs = bracket(x.scale(a_s) + y.scale(b_s), c, d)
        rhs = bracket(x, c, d).scale(a_s) + bracket(y, c, d).scale(b_s)
        if rep.fails(lhs != rhs):
            rep.failures.append({"got": str(lhs), "want": str(rhs)})
    return rep


def check_agreement(closed: TriBracket, oracle: TriBracket, window: Sequence) -> CheckReport:
    """Exact equality of two brackets on every ordered window triple."""
    carrier = closed.carrier
    rep = CheckReport("closed form agrees with determinant oracle")
    for a, b, c in itertools.product(window, repeat=3):
        lhs = closed.eval_indices(a, b, c)
        rhs = oracle.eval_indices(a, b, c)
        if rep.fails(lhs != rhs):
            rep.failures.append({
                "triple": [carrier.index_str(x) for x in (a, b, c)],
                "closed": str(lhs), "determinant": str(rhs),
            })
    return rep


def check_involution_antisymmetry(bracket: TriBracket, omega: Endomorphism,
                                  window: Sequence) -> CheckReport:
    """w([x,y,z]) = -[w(x), w(y), w(z)] on all window triples."""
    carrier = bracket.carrier
    f = carrier.field
    rep = CheckReport("involution anti-equivariance")
    for a, b, c in itertools.combinations(window, 3):
        xs = [carrier.monomial(i) for i in (a, b, c)]
        lhs = omega(bracket(*xs))
        rhs = bracket(*[omega(x) for x in xs]).scale(f.embed(-1))
        if rep.fails(lhs != rhs):
            rep.failures.append({"triple": [carrier.index_str(x) for x in (a, b, c)],
                                 "lhs": str(lhs), "rhs": str(rhs)})
    return rep


# ---------------------------------------------------------------------------
# fundamental identity on a monomial window (for infinite carriers)
# ---------------------------------------------------------------------------

def check_fi_window(bracket: TriBracket, window: Sequence, mode: str = "exhaustive",
                    samples: int = 500, seed: int = 0) -> CheckReport:
    """Fundamental-identity residual on window basis 5-tuples, evaluated
    exactly in the carrier (results may leave the window; that is fine).

    One case enumerator and one scan serve this and the tabulated
    `structure.verify_fundamental_identity`; `notes["covered"]` counts the
    full |window|^5 tuple space that exhaustive mode spans.  The scan
    memoizes the basis brackets on the ordered triple, without sign
    completion, so a non-alternating bracket is evaluated as it is.
    """
    carrier = bracket.carrier
    checked, found = _fi_scan(lambda t: bracket.eval_indices(*t).terms, carrier.field,
                              _fi_cases(window, 3, mode, samples, seed))
    failures = [{"x": [carrier.index_str(i) for i in xs],
                 "y": [carrier.index_str(i) for i in ys],
                 "residual": str(AlgebraElement(carrier, res))}
                for xs, ys, res in found]
    return CheckReport("fundamental identity on the window", checked, failures,
                       notes={"covered": len(window) ** 5})


# ---------------------------------------------------------------------------
# homomorphisms between brackets
# ---------------------------------------------------------------------------

def check_homomorphism(sigma: Endomorphism, source: TriBracket, target: TriBracket,
                       window: Sequence,
                       intertwine: Sequence[Tuple[str, Endomorphism, Endomorphism]] = (),
                       require_invertible: bool = False,
                       exclude_indices: Sequence = ()) -> CheckReport:
    """sigma([a,b,c]_src) = [sigma a, sigma b, sigma c]_tgt on window triples.

    `intertwine` entries (name, m_src, m_tgt) additionally assert
    sigma . m_src = m_tgt . sigma on window singletons.  When the maps carry
    an isomorphism claim, `require_invertible` checks that sigma sends window
    monomials to nonzero single terms with pairwise distinct indices.
    `exclude_indices` drops selected window indices (with the exclusion noted
    in the report) for maps whose rule degenerates there.
    """
    carrier = source.carrier
    excluded = set(exclude_indices)
    win = [i for i in window if i not in excluded]
    rep = CheckReport("sigma([a,b,c]) = [sigma a, sigma b, sigma c]")
    if excluded:
        rep.notes["excluded_indices"] = [carrier.index_str(i) for i in excluded]
        u = carrier.unit_index()
        if u is not None:
            img = sigma(carrier.monomial(u))
            rep.notes["unit_image"] = str(img)
            rep.notes["unit_fixed"] = img == carrier.monomial(u)

    for a, b, c in itertools.combinations(win, 3):
        xs = [carrier.monomial(i) for i in (a, b, c)]
        lhs = sigma(source(*xs))
        rhs = target(*[sigma(x) for x in xs])
        if rep.fails(lhs != rhs):
            rep.failures.append({"triple": [carrier.index_str(x) for x in (a, b, c)],
                                 "lhs": str(lhs), "rhs": str(rhs)})

    for name, m_src, m_tgt in intertwine:
        sub = rep.details[name] = CheckReport(f"sigma.{name}_src = {name}_tgt.sigma")
        for i in win:
            x = carrier.monomial(i)
            lhs = sigma(m_src(x))
            rhs = m_tgt(sigma(x))
            if sub.fails(lhs != rhs):
                sub.failures.append({"index": carrier.index_str(i),
                                     "lhs": str(lhs), "rhs": str(rhs)})

    if require_invertible:
        sub = rep.details["invertible_on_window"] = CheckReport(
            "sigma maps window monomials to distinct nonzero monomials")
        seen = set()
        for i in win:
            img = sigma(carrier.monomial(i))
            if sub.fails(len(img.terms) != 1 or not seen.isdisjoint(img.terms)):
                sub.failures.append({"index": carrier.index_str(i), "image": str(img)})
            if len(img.terms) == 1:
                seen.update(img.terms)
    return rep


# ---------------------------------------------------------------------------
# plus/minus grading under an involution
# ---------------------------------------------------------------------------

def check_grading(bracket: TriBracket, delta: Optional[Endomorphism],
                  plus_elements: Sequence[AlgebraElement],
                  minus_elements: Sequence[AlgebraElement],
                  window: Sequence) -> CheckReport:
    """Both graded pieces are abelian and the derivation swaps them.

    plus/minus must decompose the window span as a direct sum (checked, a
    failure raises).  Asserted: triple brackets inside each piece vanish and
    delta maps each piece into the other; mixed triples are only observed and
    reported, never asserted zero.
    """
    from .carriers import coordinates
    from .linalg import SpanBuilder

    carrier = bracket.carrier
    f = carrier.field
    plus_coords = [coordinates(x, window) for x in plus_elements]
    minus_coords = [coordinates(x, window) for x in minus_elements]
    sb = SpanBuilder(f, len(window))
    for v in plus_coords + minus_coords:
        if not sb.add(v):
            raise ValueError("plus/minus generators are not independent")
    if sb.dim != len(window):
        raise ValueError("plus + minus does not span the enumerated window")

    rep = CheckReport("graded pieces are abelian subalgebras")
    for name, part in (("plus", plus_elements), ("minus", minus_elements)):
        for xs in itertools.combinations(part, 3):
            val = bracket(*xs)
            if rep.fails(not val.is_zero()):
                rep.failures.append({"part": name, "value": str(val)})

    if delta is not None:
        plus_span = SpanBuilder(f, len(window))
        for v in plus_coords:
            plus_span.add(v)
        minus_span = SpanBuilder(f, len(window))
        for v in minus_coords:
            minus_span.add(v)
        sub = rep.details["delta_swaps_pieces"] = CheckReport(
            "delta(plus) in minus and delta(minus) in plus")
        for name, part, other in (("plus", plus_elements, minus_span),
                                  ("minus", minus_elements, plus_span)):
            for x in part:
                if sub.fails(not other.contains(coordinates(delta(x), window))):
                    sub.failures.append({"from": name, "element": str(x),
                                         "image": str(delta(x))})

    mixed_nonzero = 0
    mixed_total = 0
    for xs in itertools.product(plus_elements, plus_elements, minus_elements):
        mixed_total += 1
        if not bracket(*xs).is_zero():
            mixed_nonzero += 1
    rep.notes = {"mixed_triples_observed": mixed_total,
                 "mixed_triples_nonzero": mixed_nonzero}
    return rep


# ---------------------------------------------------------------------------
# Laurent divisibility and ideal membership
# ---------------------------------------------------------------------------

def laurent_divmod(numer: AlgebraElement, denom: AlgebraElement) -> Tuple[AlgebraElement, AlgebraElement]:
    """Exact division in a one-variable Laurent ring: numer = q*denom + r.

    Both are shifted to honest polynomials (the denominator acquiring a
    nonzero constant term), divided there, and shifted back; r = 0 certifies
    divisibility in the Laurent ring.
    """
    carrier = numer.carrier
    if not _one_variable_laurent(carrier):
        raise ValueError("laurent_divmod is one-variable")
    if denom.is_zero():
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    f = carrier.field
    if numer.is_zero():
        return carrier.zero(), carrier.zero()
    n_exps = [e[0] for e in numer.terms]
    d_exps = [e[0] for e in denom.terms]
    n_min, d_min = min(n_exps), min(d_exps)
    deg_n = max(n_exps) - n_min
    deg_d = max(d_exps) - d_min
    N = [f.zero] * (deg_n + 1)
    for (e,), c in numer.terms.items():
        N[e - n_min] = c
    D = [f.zero] * (deg_d + 1)
    for (e,), c in denom.terms.items():
        D[e - d_min] = c
    lead_inv = f.inv(D[deg_d])
    Q = [f.zero] * max(deg_n - deg_d + 1, 0)
    for k in range(deg_n - deg_d, -1, -1):
        c = f.mul(N[k + deg_d], lead_inv)
        if f.is_zero(c):
            continue
        Q[k] = c
        for t, dcoeff in enumerate(D):
            N[k + t] = f.normalize(N[k + t] - c * dcoeff)
    shift = n_min - d_min
    quot = carrier.element({(k + shift,): c for k, c in enumerate(Q)})
    rem = carrier.element({(k + n_min,): c for k, c in enumerate(N)})
    return quot, rem


def check_principal_ideal_membership(bracket: TriBracket, generator: AlgebraElement,
                                     cofactor_exponents: Sequence[int],
                                     argument_bound: int) -> CheckReport:
    """All brackets [g*t^j, t^a, t^b] are divisible by g, by exact division."""
    carrier = bracket.carrier
    rep = CheckReport("bracket values stay divisible by the ideal generator")
    for j in cofactor_exponents:
        x = generator * carrier.monomial((j,))
        for a in range(-argument_bound, argument_bound + 1):
            for b in range(-argument_bound, argument_bound + 1):
                val = bracket(x, carrier.monomial((a,)), carrier.monomial((b,)))
                rem = val if val.is_zero() else laurent_divmod(val, generator)[1]
                if rep.fails(not rem.is_zero()):
                    rep.failures.append({"cofactor": j, "args": [a, b],
                                         "value": str(val), "remainder": str(rem)})
    return rep


# ---------------------------------------------------------------------------
# kernel ideal certification for finite group algebras
# ---------------------------------------------------------------------------

KERNEL_SPOT_SAMPLES = 400


def group_kernel_certificate(hom: GroupHom, seed: int = 0):
    """Non-simplicity certificate for the group-algebra wedge bracket: the
    kernel of phi(x) = sum lambda_g alpha(g) is a maximal ideal.

    Works at carrier level so it scales to group algebras whose structure
    constants could not be tabulated (dimension in the hundreds).  The
    phi-value of a basis bracket depends only on the triple of hom values
    (phi([e_g,e_h,e_w]) = P(alpha(g),alpha(h),alpha(w)) with
    P(a,b,c) = (c-b)(b+c-a)+(a-c)(a+c-b)+(b-a)(a+b-c)), so checking P = 0 on
    every triple of attained hom values covers every basis triple exactly;
    `KERNEL_SPOT_SAMPLES` seeded evaluations cross-check that factorization.
    Returns (SimplicityCertificate, CheckReport).
    """
    from .linalg import kernel_of_functional
    from .structure import SimplicityCertificate
    from .carriers import GroupHomFunctional, Functional

    G = hom.carrier
    if G.dim() is None:
        raise ValueError("kernel certification needs a finite group algebra")
    if hom.is_zero():
        raise HypothesisViolation("the hom must be nonzero for a maximal kernel ideal")
    f = G.field
    basis = G.basis_indices()
    values = [hom(g) for g in basis]
    ker = kernel_of_functional(f, values)

    def P(a, b, c):
        return f.normalize((c - b) * (b + c - a) + (a - c) * (a + c - b)
                           + (b - a) * (a + b - c))

    attained = sorted(set(values), key=f.render)
    report = CheckReport(
        "phi vanishes on every bracket (kernel is a maximal ideal)",
        notes={"kernel_dim": ker.dim, "codim": ker.codim,
               "hom_value_classes": len(attained)})
    for a in attained:
        for b in attained:
            for c in attained:
                if report.fails(not f.is_zero(P(a, b, c))):
                    report.failures.append({"hom_values": [f.render(x) for x in (a, b, c)]})

    # seeded spot checks: evaluate actual brackets and compare with the fiber
    # polynomial, and probe [v, e_A, e_B] membership for v in the kernel
    rng = random.Random(seed)
    bracket = GroupWedgeBracket(hom)
    phi = Functional(G, GroupHomFunctional(hom))
    for _ in range(KERNEL_SPOT_SAMPLES):
        g, h, w = (rng.choice(basis) for _ in range(3))
        val = phi(bracket.eval_indices(g, h, w))
        if report.fails(val != P(hom(g), hom(h), hom(w)) or not f.is_zero(val)):
            report.failures.append({"triple": [G.index_str(x) for x in (g, h, w)],
                                    "phi": f.render(val)})
    for _ in range(KERNEL_SPOT_SAMPLES // 4):
        v = G.zero()
        for _ in range(2):
            row = ker.basis[rng.randrange(len(ker.basis))]
            v = v + G.element({basis[i]: c for i, c in enumerate(row)
                               if not f.is_zero(c)})
        x = bracket(v, G.monomial(rng.choice(basis)), G.monomial(rng.choice(basis)))
        if report.fails(not f.is_zero(phi(x))):
            report.failures.append({"kernel_probe": str(x)})

    cert = SimplicityCertificate(
        "non-simple" if report.passed else "evidence-only",
        "kernel-functional", report.checked, ker if report.passed else None, seed=seed,
        notes={"witness": "kernel of the hom functional",
               "derived_algebra_inside_witness": report.passed})
    return cert, report


# ---------------------------------------------------------------------------
# window evidence for the plain-derivative Laurent family over char 0
# ---------------------------------------------------------------------------

def check_parity_family_vanishing(field: Field, bound: int) -> CheckReport:
    """The coefficient of [t^l, t^m, t^{-m+1}] under the plain-derivative
    parity bracket vanishes exactly when l = m or l = -m+1."""
    rep = CheckReport("coefficient vanishing classification")
    for l in range(-bound, bound + 1):
        for m in range(-bound, bound + 1):
            c = parity_coefficient(field, l, m, -m + 1)
            expect_zero = l == m or l == -m + 1
            if rep.fails(field.is_zero(c) != expect_zero):
                rep.failures.append({"l": l, "m": m, "coefficient": field.render(c)})
    return rep


def laurent_reachability(field: Field, bound: int) -> CheckReport:
    """Every window monomial reaches every other by one plain-derivative
    parity bracket whose two other arguments stay in the window widened by
    2 (ideal-closure evidence)."""
    window = range(-bound, bound + 1)
    args = range(-bound - 2, bound + 3)
    rep = CheckReport("window monomials generate each other")
    for j in window:
        for l in window:
            ok = False
            for a in args:
                for b in args:
                    if j + a + b - 1 == l and not field.is_zero(
                        parity_coefficient(field, j, a, b)
                    ):
                        ok = True
                        break
                if ok:
                    break
            if rep.fails(not ok):
                rep.failures.append({"from": j, "to": l})
    return rep
