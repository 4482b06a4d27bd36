"""Evaluable 3-ary alternating brackets on carrier algebras.

The determinant bracket (three rows, each an `Endomorphism` or a
`Functional` of the carrier, expanded as a formal 3x3 determinant; a row
written "id" is the identity endomorphism) is the single source of truth.
Its basis path `DeterminantBracket.eval_indices` is memoized per
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

Each law of the Laurent family has one oracle here: the parity coefficient
is read off `parity_bracket` (and checked against the determinant with rows
(t^m -> (-1)^m t^m, id, t^k d/dt)), membership in the ideal of a binomial
u t^a + v t^b is reduction by its relation t^(a-b) = -v/u, and the graded
pieces of `check_grading` are the eigenspaces of the flip e_g -> e_-g.

The laws of the maps that make up the rows are checked here too, on a window
of monomials, each returning a `CheckReport` as the bracket-level checks do:
Leibniz (`check_derivation`), multiplicativity and f^2 = id
(`check_involution`), omega.delta + delta.omega = 0 (`check_anticommute`),
the functional-row conditions and the Witt relation.  Each law check is its
cases and their two sides, yielded as (case, lhs, rhs) to `CheckReport.scan`,
which counts them and keeps the witnesses; FI has its own scan (`_fi_scan`).
"""

from __future__ import annotations

import itertools
import random
import weakref
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from .carriers import (
    Additive,
    AlgebraElement,
    CarrierAlgebra,
    CarrierMismatchError,
    Character,
    Endomorphism,
    Functional,
    GroupAlgebra,
    GroupHom,
    GroupHomFunctional,
    GroupNegation,
    HypothesisViolation,
    IdentityRule,
    LaurentAlgebra,
    LaurentDerivation,
    _check_variable,
    _one_variable_laurent,
)
from .fields import Field
from .linalg import FunctionalKernel
from .structure import (CheckReport, FiniteNLieAlgebra, SimplicityCertificate, _Memo, _fi_cases,
                        _fi_scan, _perm_sign)

_PERMS3 = [(p, _perm_sign(p)) for p in itertools.permutations(range(3))]

Row = Union[str, Endomorphism, Functional]


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
    """Formal 3x3 determinant whose rows are endomorphisms and functionals
    applied to the three arguments ("id" is built as the identity
    endomorphism); functional rows contribute scalar cofactors.

    `__call__` on general elements is the unmemoized definition and the
    oracle of the basis path.  `eval_indices` is that basis path, memoized
    per instance.  A determinant is alternating in its arguments (the rows
    keep their order, so this holds in any carrier): repeated arguments give
    zero, and each unordered triple is expanded once, in sorted order, and
    signed by the permutation of the arguments.  The expansion applies each
    row to each basis index once, multiplies the first two algebra-valued
    rows once per ordered index pair, takes at most one more carrier product
    for each of the six signed permutation terms, and `Field.combine` sums
    them; each of those three steps is a `_Memo`.
    """

    def __init__(self, carrier: CarrierAlgebra, rows: Sequence[Row]):
        super().__init__(carrier)
        if len(rows) != 3:
            raise ValueError("a determinant bracket needs exactly three rows")
        self.rows = [Endomorphism(carrier, IdentityRule(), "id") if r == "id" else r
                     for r in rows]
        for r in self.rows:
            if not isinstance(r, (Endomorphism, Functional)):
                raise ValueError(f"bad determinant row {r!r}")
            if r.carrier != carrier:
                raise CarrierMismatchError("row operator lives on a different carrier")
        self._algebra_rows = [k for k, r in enumerate(self.rows) if isinstance(r, Endomorphism)]
        self._func_rows = [k for k, r in enumerate(self.rows) if isinstance(r, Functional)]
        if not self._algebra_rows:
            raise ValueError("at least one row must be algebra valued")
        # row k at a basis index; the first two algebra rows' product at an
        # ordered index pair; the terms at a sorted triple and their negation,
        # read through a weak reference, so that no cycle keeps the bracket
        # and its memos alive until the cycle collector runs
        self._images = [_Memo(lambda i, r=r: r(carrier.monomial(i))) for r in self.rows]
        alg = [self._images[k] for k in self._algebra_rows]
        self._pairs = _Memo(lambda ab: (alg[0][ab[0]] * alg[1][ab[1]]).terms)
        me = weakref.proxy(self)
        self._triples = _Memo(lambda key: me._signed(key))

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
            for row, pos in zip(self.rows, perm):
                val = row(elems[pos])
                if isinstance(row, Functional):
                    scal = f.mul(scal, val)
                else:
                    alg = val if alg is None else alg * val
            if not f.is_zero(scal):
                total = total + alg.scale(scal)
        return total

    def eval_indices(self, i, j, k):
        if i == j or j == k or i == k:
            return self.carrier.zero()
        signed = self._triples[tuple(sorted((i, j, k)))]
        # an odd number of inversions is an odd permutation of the sorted key
        return AlgebraElement(self.carrier, dict(signed[(i > j) ^ (i > k) ^ (j > k)]))

    def _signed(self, key) -> Tuple[Dict, Dict]:
        terms = self._expand(key)
        neg = self.carrier.field.neg
        return terms, {x: neg(c) for x, c in terms.items()}

    def _expand(self, args) -> Dict:
        """The terms of the determinant at the ordered index triple `args`."""
        f = self.carrier.field
        mul = self.carrier.mul_indices
        products = []
        for perm, sign in _PERMS3:
            scal = f.one if sign == 1 else f.embed(-1)
            for r in self._func_rows:
                scal = f.mul(scal, self._images[r][args[perm[r]]])
            if f.is_zero(scal):
                continue
            idxs = [args[perm[r]] for r in self._algebra_rows]
            terms = (self._images[self._algebra_rows[0]][idxs[0]].terms if len(idxs) == 1
                     else self._pairs[idxs[0], idxs[1]])
            if len(idxs) < 3:
                products += [(x, scal * c) for x, c in terms.items()]
            else:  # the last factor is multiplied straight into the sum
                last = self._images[self._algebra_rows[2]][idxs[2]].terms
                products += [(z, scal * cx * cy * cz) for x, cx in terms.items()
                             for y, cy in last.items() for z, cz in mul(x, y)]
        return f.combine(products)


def functional_det(f1: Functional, f2: Functional, f3: Functional,
                   a: AlgebraElement, b: AlgebraElement, c: AlgebraElement):
    """Scalar 3x3 determinant of three functionals applied to three elements."""
    r1, r2, r3 = ([f(x) for x in (a, b, c)] for f in (f1, f2, f3))
    return a.field.normalize(sum(sign * r1[i] * r2[j] * r3[k] for (i, j, k), sign in _PERMS3))


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
        self.a = Additive(a)
        self.shift = shift
        self.hom = hom

    def eval_indices(self, i, j, k):
        C, a = self.carrier, self.a
        f, add, chi = C.field, C.add_indices, self.chi
        ai, aj, ak = a(f, i), a(f, j), a(f, k)
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


def parity_bracket(carrier: GroupAlgebra, shift) -> ClosedFormBracket:
    """[t^l,t^m,t^n] = {(-1)^l(n-m)+(-1)^m(l-n)+(-1)^n(m-l)} t^{l+m+n+s}:
    `monomial-parity`, with no characteristic check (over F_2 it is zero).
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
# map-law checks of carrier endomorphisms and functionals
# ---------------------------------------------------------------------------

def _window_images(f: Endomorphism, window: Sequence):
    """The window monomials and their images under f, by index: each image is
    computed once, not once per pair."""
    x = {a: f.carrier.monomial(a) for a in window}
    return x, {a: f(xa) for a, xa in x.items()}


def _labels(carrier: CarrierAlgebra, indices) -> list:
    """The index strings of a case's basis indices, for its witness."""
    return [carrier.index_str(i) for i in indices]


def check_derivation(f: Endomorphism, window: Sequence) -> CheckReport:
    """Leibniz law D(xy) = D(x)y + xD(y) on all pairs from the window."""
    carrier = f.carrier
    x, fx = _window_images(f, window)
    return CheckReport("D(xy) = D(x)y + xD(y)").scan(
        (((a, b), f(x[a] * x[b]), fx[a] * x[b] + x[a] * fx[b])
         for a, b in itertools.combinations_with_replacement(window, 2)),
        lambda ab, lhs, rhs: {"pair": _labels(carrier, ab), "lhs": str(lhs), "rhs": str(rhs)})


def check_involution(f: Endomorphism, window: Sequence) -> CheckReport:
    """Multiplicativity on pairs and f(f(x)) = x on singletons."""
    carrier = f.carrier
    x, fx = _window_images(f, window)
    return CheckReport("f(xy) = f(x)f(y) and f^2 = id").scan(
        ((a, f(fx[a]), x[a]) for a in window),
        lambda a, ffx, _: {"index": carrier.index_str(a), "law": "f(f(x)) = x",
                           "value": str(ffx)},
    ).scan(
        (((a, b), f(x[a] * x[b]), fx[a] * fx[b])
         for a, b in itertools.combinations_with_replacement(window, 2)),
        lambda ab, *_: {"pair": _labels(carrier, ab), "law": "f(xy) = f(x)f(y)"})


def check_anticommute(omega: Endomorphism, delta: Endomorphism, window: Sequence) -> CheckReport:
    """(omega.delta + delta.omega)(x) = 0 on all window basis indices."""
    carrier = omega.carrier
    if carrier != delta.carrier:
        raise CarrierMismatchError("maps live on different carriers")
    x, zero = {a: carrier.monomial(a) for a in window}, carrier.zero()
    return CheckReport("omega.delta + delta.omega = 0").scan(
        ((a, omega(delta(x[a])) + delta(omega(x[a])), zero) for a in window),
        lambda a, val, _: {"index": carrier.index_str(a), "value": str(val)})


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
    f = carrier.field
    zero = f.zero
    pairs = list(itertools.combinations_with_replacement(window, 2))
    x = {a: carrier.monomial(a) for a in window}
    details = {}

    def value(ab, val, _):
        return {"pair": _labels(carrier, ab), "value": f.render(val)}

    if alpha is not None:
        details["alpha_kills_products"] = CheckReport("alpha(xy) = 0").scan(
            (((a, b), alpha(x[a] * x[b]), zero) for a, b in pairs), value)

    if beta is not None and delta is not None:
        details["beta_kills_derivation_commutators"] = CheckReport(
            "beta(x D(y) - y D(x)) = 0").scan(
            (((a, b), beta(x[a] * delta(x[b]) - x[b] * delta(x[a])), zero)
             for a, b in pairs), value)

    if gamma is not None and delta is not None and omega is not None:
        details["gamma_twist_balance"] = CheckReport(
            "gamma(x D(y) - y D(x)) = gamma(w(x) D(y) - w(y) D(x))").scan(
            (((a, b), gamma(x[a] * delta(x[b]) - x[b] * delta(x[a])),
              gamma(omega(x[a]) * delta(x[b]) - omega(x[b]) * delta(x[a])))
             for a, b in pairs),
            lambda ab, lhs, rhs: {"pair": _labels(carrier, ab), "lhs": f.render(lhs),
                                  "rhs": f.render(rhs)})

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
    r = range(-bound, bound + 1)
    D = {m: Endomorphism(carrier, LaurentDerivation(m + 1)) for m in r}
    x = {j: carrier.monomial((j,)) for j in r}
    return CheckReport("[t^m d, t^n d] = (n-m) t^{m+n} d").scan(
        (((m, n, j), D[m](D[n](x[j])) - D[n](D[m](x[j])),
          carrier.monomial((m + n + j,), f.embed((n - m) * j)))
         for m, n, j in itertools.product(r, repeat=3)),
        lambda mnj, lhs, rhs: {"m": mnj[0], "n": mnj[1], "input": carrier.index_str((mnj[2],)),
                               "lhs": str(lhs), "rhs": str(rhs)})


# ---------------------------------------------------------------------------
# bracket-level checks
# ---------------------------------------------------------------------------

def check_alternating(bracket: TriBracket, window: Sequence, seed: int = 0,
                      samples: int = 40) -> CheckReport:
    """Repeated arguments vanish; permutations flip signs (sampled).  Every
    value is `bracket(*monomials)`, so on a `DeterminantBracket` this checks
    the unmemoized definition, not the sign rule of its basis path."""
    carrier = bracket.carrier
    f = carrier.field
    rng = random.Random(seed)
    zero = carrier.zero()

    def value(idxs):
        return bracket(*map(carrier.monomial, idxs))

    def permuted():
        for _ in range(samples):
            abc = [rng.choice(window) for _ in range(3)]
            base = value(abc)
            for perm, sign in _PERMS3:
                args = [abc[t] for t in perm]
                yield args, value(args), base if sign == 1 else base.scale(f.embed(-1))

    return CheckReport("alternating multiplication").scan(
        (((i, i, j), value((i, i, j)), zero)
         for i, j in itertools.product(window[: min(len(window), 8)], repeat=2)),
        lambda iij, val, _: {"triple": _labels(carrier, iij), "value": str(val)},
    ).scan(permuted(), lambda args, got, want: {"triple": _labels(carrier, args),
                                               "got": str(got), "want": str(want)})


def check_agreement(closed: TriBracket, oracle: TriBracket, window: Sequence) -> CheckReport:
    """Exact equality of two brackets on every ordered window triple."""
    carrier = closed.carrier
    return CheckReport("closed form agrees with determinant oracle").scan(
        ((t, closed.eval_indices(*t), oracle.eval_indices(*t))
         for t in itertools.product(window, repeat=3)),
        lambda t, lhs, rhs: {"triple": _labels(carrier, t), "closed": str(lhs),
                             "determinant": str(rhs)})


def check_involution_antisymmetry(bracket: TriBracket, omega: Endomorphism,
                                  window: Sequence) -> CheckReport:
    """w([x,y,z]) = -[w(x), w(y), w(z)] on all window triples."""
    carrier = bracket.carrier
    minus_one = carrier.field.embed(-1)
    x = {i: carrier.monomial(i) for i in window}
    return CheckReport("involution anti-equivariance").scan(
        ((t, omega(bracket(*(x[i] for i in t))),
          bracket(*(omega(x[i]) for i in t)).scale(minus_one))
         for t in itertools.combinations(window, 3)),
        lambda t, lhs, rhs: {"triple": _labels(carrier, t), "lhs": str(lhs), "rhs": str(rhs)})


# ---------------------------------------------------------------------------
# fundamental identity on a monomial window (for infinite carriers)
# ---------------------------------------------------------------------------

def check_fi_window(bracket: TriBracket, window: Sequence, mode: str = "exhaustive",
                    samples: int = 500, seed: int = 0) -> CheckReport:
    """Fundamental-identity residual on window basis 5-tuples, evaluated
    exactly in the carrier (results may leave the window; that is fine).

    One case enumerator and one scan serve this and the tabulated
    `structure.verify_fundamental_identity`; `notes["covered"]` counts the
    full |window|^5 tuple space that exhaustive mode spans.  The scan reads
    its ad rows from a memo of `eval_indices`, which it calls once per
    ordered basis triple per check, without sign completion, so a
    non-alternating bracket is evaluated as it is (a `DeterminantBracket`
    expands each unordered triple once itself).  It numbers the carrier
    indices the brackets reach, so each run of the scan keeps one flat
    accumulator, as it does on a table.
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
        rep.notes["excluded_indices"] = _labels(carrier, excluded)
        u = carrier.unit_index()
        if u is not None:
            img = sigma(carrier.monomial(u))
            rep.notes["unit_image"] = str(img)
            rep.notes["unit_fixed"] = img == carrier.monomial(u)

    x = {i: carrier.monomial(i) for i in win}
    sx = {i: sigma(x[i]) for i in win}
    rep.scan(((t, sigma(source(*(x[i] for i in t))), target(*(sx[i] for i in t)))
              for t in itertools.combinations(win, 3)),
             lambda t, lhs, rhs: {"triple": _labels(carrier, t), "lhs": str(lhs),
                                  "rhs": str(rhs)})

    for name, m_src, m_tgt in intertwine:
        rep.details[name] = CheckReport(f"sigma.{name}_src = {name}_tgt.sigma").scan(
            ((i, sigma(m_src(x[i])), m_tgt(sx[i])) for i in win),
            lambda i, lhs, rhs: {"index": carrier.index_str(i), "lhs": str(lhs),
                                 "rhs": str(rhs)})

    if require_invertible:
        seen = set()

        def fresh(img):
            """One term, at an index that no earlier image took."""
            ok = len(img.terms) == 1 and seen.isdisjoint(img.terms)
            if len(img.terms) == 1:
                seen.update(img.terms)
            return ok

        rep.details["invertible_on_window"] = CheckReport(
            "sigma maps window monomials to distinct nonzero monomials").scan(
            ((i, fresh(sx[i]), True) for i in win),
            lambda i, *_: {"index": carrier.index_str(i), "image": str(sx[i])})
    return rep


# ---------------------------------------------------------------------------
# plus/minus grading under an involution
# ---------------------------------------------------------------------------

def check_grading(bracket: TriBracket, delta: Optional[Endomorphism],
                  plus_elements: Sequence[AlgebraElement],
                  minus_elements: Sequence[AlgebraElement]) -> CheckReport:
    """Both graded pieces are abelian and the derivation swaps them.

    The pieces are the +1 and -1 eigenspaces of the flip e_g -> e_-g, so
    delta(x) lies in the other piece exactly when flip(delta x) = -+delta x,
    wherever in the carrier it lands.  Each listed element must lie in its
    own piece (flip(x) = +-x; else ValueError).  Asserted: triple brackets
    inside each piece vanish and delta maps each piece into the other; mixed
    triples are only observed and reported, never asserted zero.
    """
    flip = Endomorphism(bracket.carrier, GroupNegation())
    pieces = (("plus", plus_elements, 1), ("minus", minus_elements, -1))
    for name, part, sign in pieces:
        for x in part:
            if flip(x) != (x if sign == 1 else -x):
                raise ValueError(f"{x} does not lie in the {name} piece of the flip")

    zero = bracket.carrier.zero()
    rep = CheckReport("graded pieces are abelian subalgebras").scan(
        ((name, bracket(*xs), zero)
         for name, part, _ in pieces for xs in itertools.combinations(part, 3)),
        lambda name, val, _: {"part": name, "value": str(val)})

    if delta is not None:
        def swapped():
            for name, part, sign in pieces:
                for x in part:
                    image = delta(x)
                    yield (name, x, image), flip(image), -image if sign == 1 else image

        rep.details["delta_swaps_pieces"] = CheckReport(
            "delta(plus) in minus and delta(minus) in plus").scan(
            swapped(), lambda c, *_: {"from": c[0], "element": str(c[1]), "image": str(c[2])})

    nonzero = [not bracket(*xs).is_zero()
               for xs in itertools.product(plus_elements, plus_elements, minus_elements)]
    rep.notes = {"mixed_triples_observed": len(nonzero), "mixed_triples_nonzero": sum(nonzero)}
    return rep


# ---------------------------------------------------------------------------
# ideal membership by a binomial relation
# ---------------------------------------------------------------------------

def _binomial_reduction(x: AlgebraElement, generator: AlgebraElement) -> AlgebraElement:
    """x modulo the binomial u t^a + v t^b (a > b) of F[t, t^-1], by its
    relation t^(a-b) = r = -v/u: t^e = r^q t^(b+s) for e = b + q(a-b) + s with
    0 <= s < a-b.  The monomials t^b, ..., t^(a-1) are a basis of the
    quotient, so x lies in the ideal (u t^a + v t^b) exactly when this is
    zero; for t^p -+ t^-p the relation is the quotient's t^(2p) = +-1."""
    f = x.field
    if not _one_variable_laurent(x.carrier) or len(generator.terms) != 2:
        raise ValueError("the ideal generator must be a binomial of F[t, t^-1]")
    ((b,), v), ((a,), u) = sorted(generator.terms.items())
    r = f.neg(f.mul(v, f.inv(u)))
    return AlgebraElement(x.carrier, f.combine(
        ((b + s,), c * f.pow(r, q)) for (e,), c in x.terms.items()
        for q, s in [divmod(e - b, a - b)]))


def check_principal_ideal_membership(bracket: TriBracket, generator: AlgebraElement,
                                     cofactor_exponents: Sequence[int],
                                     argument_bound: int) -> CheckReport:
    """All brackets [g*t^j, t^a, t^b] lie in the ideal of the binomial g:
    each reduces to zero by g's relation (`_binomial_reduction`)."""
    carrier = bracket.carrier
    args = range(-argument_bound, argument_bound + 1)
    zero = carrier.zero()

    def remainders():
        for j in cofactor_exponents:
            x = generator * carrier.monomial((j,))
            for a, b in itertools.product(args, repeat=2):
                val = bracket(x, carrier.monomial((a,)), carrier.monomial((b,)))
                yield (j, a, b, val), _binomial_reduction(val, generator), zero

    return CheckReport("bracket values stay divisible by the ideal generator").scan(
        remainders(), lambda c, rem, _: {"cofactor": c[0], "args": [c[1], c[2]],
                                         "value": str(c[3]), "remainder": str(rem)})


# ---------------------------------------------------------------------------
# kernel ideal certification for finite group algebras
# ---------------------------------------------------------------------------

KERNEL_SPOT_SAMPLES = 400


def group_kernel_certificate(hom: GroupHom, seed: int = 0):
    """Non-simplicity certificate for the group-algebra wedge bracket: the
    kernel of phi(x) = sum lambda_g alpha(g) is a maximal ideal.

    Works at carrier level with the kernel held as its functional (O(d)
    memory), so it scales past any tabulation (Z_5^5, d = 3125).  The
    phi-value of a basis bracket depends only on the triple of hom values
    (phi([e_g,e_h,e_w]) = P(alpha(g),alpha(h),alpha(w)) with
    P(a,b,c) = (c-b)(b+c-a)+(a-c)(a+c-b)+(b-a)(a+b-c)), so checking P = 0 on
    every triple of attained hom values covers every basis triple exactly;
    `KERNEL_SPOT_SAMPLES` seeded evaluations cross-check that factorization.
    Returns (SimplicityCertificate, CheckReport).
    """
    G = hom.carrier
    if G.dim() is None:
        raise ValueError("kernel certification needs a finite group algebra")
    if hom.is_zero():
        raise HypothesisViolation("the hom must be nonzero for a maximal kernel ideal")
    f = G.field
    basis = G.basis_indices()
    values = [hom(g) for g in basis]
    ker = FunctionalKernel(f, values)

    def P(a, b, c):
        return f.normalize((c - b) * (b + c - a) + (a - c) * (a + c - b)
                           + (b - a) * (a + b - c))

    attained = sorted(set(values), key=f.render)
    report = CheckReport(
        "phi vanishes on every bracket (kernel is a maximal ideal)",
        notes={"kernel_dim": ker.dim, "codim": ker.codim,
               "hom_value_classes": len(attained)})
    zero = f.zero
    report.scan(((abc, P(*abc), zero) for abc in itertools.product(attained, repeat=3)),
                lambda abc, *_: {"hom_values": [f.render(x) for x in abc]})

    # seeded spot checks: evaluate actual brackets and compare with the fiber
    # polynomial (phi = P = 0), and probe [v, e_A, e_B] membership for v in
    # the kernel
    rng = random.Random(seed)
    bracket = GroupWedgeBracket(hom)
    phi = Functional(G, GroupHomFunctional(hom))

    def spots():
        for _ in range(KERNEL_SPOT_SAMPLES):
            ghw = [rng.choice(basis) for _ in range(3)]
            val = phi(bracket.eval_indices(*ghw))
            yield ghw, (val, val), (P(*map(hom, ghw)), zero)

    def probes():
        for _ in range(KERNEL_SPOT_SAMPLES // 4):
            v = G.zero()
            for _ in range(2):
                k = ker.pivots[rng.randrange(len(ker.pivots))]
                v = v + G.element({basis[i]: c for i, c in ker.row_terms(k).items()})
            x = bracket(v, G.monomial(rng.choice(basis)), G.monomial(rng.choice(basis)))
            yield x, phi(x), zero

    report.scan(spots(), lambda ghw, phis, _: {"triple": _labels(G, ghw),
                                               "phi": f.render(phis[0])})
    report.scan(probes(), lambda x, *_: {"kernel_probe": str(x)})

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
    parity bracket (`parity_bracket` with shift -1) vanishes exactly when
    l = m or l = -m+1."""
    bracket = parity_bracket(LaurentAlgebra(field), (-1,))

    def coefficients():
        for l, m in itertools.product(range(-bound, bound + 1), repeat=2):
            # the bracket of three monomials has the one term t^l
            c = bracket.eval_indices((l,), (m,), (-m + 1,)).terms.get((l,), field.zero)
            yield (l, m, c), field.is_zero(c), l == m or l == -m + 1

    return CheckReport("coefficient vanishing classification").scan(
        coefficients(), lambda c, *_: {"l": c[0], "m": c[1], "coefficient": field.render(c[2])})


def laurent_reachability(field: Field, bound: int) -> CheckReport:
    """Every window monomial reaches every other by one plain-derivative
    parity bracket (`parity_bracket` with shift -1) whose two other arguments
    stay in the window widened by 2 (ideal-closure evidence)."""
    bracket = parity_bracket(LaurentAlgebra(field), (-1,))
    window = range(-bound, bound + 1)
    args = range(-bound - 2, bound + 3)
    # [t^j, t^a, t^b] lands on t^l for b = l + 1 - j - a
    return CheckReport("window monomials generate each other").scan(
        (((j, l), any(l + 1 - j - a in args
                      and not bracket.eval_indices((j,), (a,), (l + 1 - j - a,)).is_zero()
                      for a in args), True)
         for j, l in itertools.product(window, repeat=2)),
        lambda jl, *_: {"from": jl[0], "to": jl[1]})
