"""3-Lie algebras lifted from ordinary Lie algebras.

Three constructions: the cyclic lift by a functional vanishing on the derived
algebra ([x,y,z]_f = f(x)[y,z] + f(y)[z,x] + f(z)[x,y], with the gl(m) trace
lift as the standard instance), the two-dimensional metric extension of a
metric Lie algebra, and the four-dimensional algebra of Dirac gamma matrices
with [x,y,z] = [[x,y] g5, z] computed inside the full 4x4 matrix algebra over
Q(i) and certified to land back in the span.

A Lie algebra here is a `FiniteNLieAlgebra` of arity 2 (`LieAlgebra`), read
with `bracket_indices((i, j))` and checked for the Jacobi identity by the
same FI scan as every other table.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

from .carriers import HypothesisViolation
from .fields import Field, GaussianRational, QI
from .linalg import Subspace
from .structure import FiniteNLieAlgebra, _fi_scan_table


class LieAlgebra(FiniteNLieAlgebra):
    """Ordinary Lie algebra: the skew structure-constant table of arity 2,
    {(i<j): {k: coeff}}, read as `bracket_indices((i, j))` like any
    `FiniteNLieAlgebra`.  The Jacobi identity, which is the fundamental
    identity at arity 2, is checked on construction."""

    def __init__(self, field: Field, dim: int, constants: Dict, labels: Optional[List[str]] = None,
                 name: str = ""):
        super().__init__(field, dim, 2, constants, labels, name)
        _, bad = _fi_scan_table(self, None)
        if bad:
            xs, ys, _ = bad[0]
            raise ValueError(f"Jacobi identity fails at basis x={xs}, y={ys}")


def general_linear(field: Field, m: int) -> LieAlgebra:
    """gl(m): basis E_ab (row-major), [E_ab, E_cd] = d_bc E_ad - d_da E_cb."""
    dim = m * m

    def idx(a, b):
        return a * m + b

    constants = {}
    for p in range(dim):
        for q in range(p + 1, dim):
            a, b = divmod(p, m)
            c, d = divmod(q, m)
            terms = []
            if b == c:
                terms.append((idx(a, d), 1))
            if d == a:
                terms.append((idx(c, b), -1))
            vec = field.combine(terms)
            if vec:
                constants[(p, q)] = vec
    labels = [f"E{a + 1}{b + 1}" for a in range(m) for b in range(m)]
    return LieAlgebra(field, dim, constants, labels, name=f"gl({m})")


def sl2(field: Field) -> LieAlgebra:
    """sl(2): basis (e, f, h) with [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    one = field.one
    two = field.embed(2)
    constants = {
        (0, 1): {2: one},                       # [e,f] = h
        (0, 2): {0: field.neg(two)},            # [e,h] = -2e
        (1, 2): {1: two},                       # [f,h] = 2f
    }
    return LieAlgebra(field, 3, constants, ["e", "f", "h"], name="sl(2)")


def trace_functional(field: Field, m: int) -> List:
    """Values of the trace on the gl(m) matrix-unit basis."""
    return [field.one if a == b else field.zero
            for a in range(m) for b in range(m)]


def killing_form(lie: LieAlgebra) -> List[List]:
    """B(x_i, x_j) = trace(ad x_i . ad x_j).  The ad index gives the right
    multiplications R_j = -ad x_j; the signs cancel in trace(R_i R_j)."""
    f, d = lie.field, lie.dim
    R = [lie.ad_index.get((j,), {}) for j in range(d)]
    B = [[f.zero] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            B[i][j] = B[j][i] = f.normalize(sum(
                c * R[j][b][a] for a, vec in R[i].items() for b, c in vec.items()
                if a in R[j].get(b, ())))
    return B


# ---------------------------------------------------------------------------
# cyclic lift by a functional killing the derived algebra
# ---------------------------------------------------------------------------

def lie_lift(lie: LieAlgebra, f_values: Sequence, name: str = "") -> FiniteNLieAlgebra:
    """[x,y,z]_f = f(x)[y,z] + f(y)[z,x] + f(z)[x,y]; requires f([x,y]) = 0."""
    f = lie.field
    vals = [f.normalize(v) for v in f_values]
    if len(vals) != lie.dim:
        raise ValueError("functional values must match the dimension")
    for i, j in itertools.combinations(range(lie.dim), 2):
        total = f.normalize(sum(c * vals[k] for k, c in lie.bracket_indices((i, j)).items()))
        if not f.is_zero(total):
            raise HypothesisViolation(
                f"the functional does not vanish on the derived algebra: "
                f"f([{lie.labels[i]},{lie.labels[j]}]) = {f.render(total)}"
            )
    constants = {}
    for i, j, k in itertools.combinations(range(lie.dim), 3):
        vec = f.combine((l, vals[a] * cl) for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                        for l, cl in lie.bracket_indices((b, c)).items())
        if vec:
            constants[(i, j, k)] = vec
    return FiniteNLieAlgebra(f, lie.dim, 3, constants, lie.labels,
                             name=name or f"lift({lie.name})")


def gl_trace_lift(field: Field, m: int) -> FiniteNLieAlgebra:
    """(tr A)[B,C] + (tr B)[C,A] + (tr C)[A,B] on gl(m)."""
    lie = general_linear(field, m)
    return lie_lift(lie, trace_functional(field, m), name=f"gl({m})-trace-lift")


# ---------------------------------------------------------------------------
# metric extension
# ---------------------------------------------------------------------------

def metric_extension(lie: LieAlgebra, B: Sequence[Sequence], name: str = "") -> FiniteNLieAlgebra:
    """Two-dimensional extension of a metric Lie algebra (g, B).

    Basis: the Lie basis x_1..x_m, then x0, then xminus.  Brackets:
    [x0, x_i, x_j] = [x_i, x_j]; [xminus, -, -] = 0;
    [x_i, x_j, x_k] = B([x_i,x_j], x_k) xminus.
    B must be symmetric, nondegenerate and invariant.
    """
    f = lie.field
    m = lie.dim
    B = [[f.normalize(x) for x in row] for row in B]
    for i in range(m):
        for j in range(m):
            if B[i][j] != B[j][i]:
                raise HypothesisViolation("the bilinear form is not symmetric")
    if Subspace(f, m, B).dim != m:
        raise HypothesisViolation("the bilinear form is degenerate")

    def b_bracket(i, j, k):
        return f.normalize(sum(c * B[s][k] for s, c in lie.bracket_indices((i, j)).items()))

    for i, j, k in itertools.product(range(m), repeat=3):
        # invariance: B([x_i,x_j], x_k) = -B(x_j, [x_i,x_k])
        lhs = b_bracket(i, j, k)
        rhs = f.neg(b_bracket(i, k, j))
        if lhs != rhs:
            raise HypothesisViolation(
                f"the bilinear form is not invariant at basis triple {(i, j, k)}"
            )

    x0 = m
    constants = {}
    for i, j in itertools.combinations(range(m), 2):
        vec = lie.bracket_indices((i, j))
        if vec:
            constants[(i, j, x0)] = vec
    for i, j, k in itertools.combinations(range(m), 3):
        c = b_bracket(i, j, k)
        if not f.is_zero(c):
            constants[(i, j, k)] = {m + 1: c}
    labels = lie.labels + ["x0", "xminus"]
    return FiniteNLieAlgebra(f, m + 2, 3, constants, labels,
                             name=name or f"metric-ext({lie.name})")


# ---------------------------------------------------------------------------
# Dirac gamma matrices over Q(i)
# ---------------------------------------------------------------------------

def _g(re=0, im=0):
    return GaussianRational(re, im)


def _mat_mul(A, B):
    n = len(A)
    return [[sum((A[r][t] * B[t][c] for t in range(n)), _g(0)) for c in range(n)]
            for r in range(n)]


def _mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _commutator(A, B):
    return _mat_sub(_mat_mul(A, B), _mat_mul(B, A))


def dirac_gamma_matrices() -> List[List[List[GaussianRational]]]:
    """The four gamma matrices in the Dirac basis, entries in {0, +-1, +-i}."""
    z, o, i = _g(0), _g(1), _g(0, 1)
    s1 = [[z, o], [o, z]]
    s2 = [[z, -i], [i, z]]
    s3 = [[o, z], [z, -o]]

    def off_diag(s):
        return [
            [z, z, s[0][0], s[0][1]],
            [z, z, s[1][0], s[1][1]],
            [-s[0][0], -s[0][1], z, z],
            [-s[1][0], -s[1][1], z, z],
        ]

    g1, g2, g3 = off_diag(s1), off_diag(s2), off_diag(s3)
    g4 = [[o, z, z, z], [z, o, z, z], [z, z, -o, z], [z, z, z, -o]]
    return [g1, g2, g3, g4]


def _solve_in_span(span_vecs: List[List], target: List) -> Optional[List]:
    """Coefficients c with sum c_i span_i = target over Q(i), or None."""
    f = QI
    ncols = len(span_vecs)
    rows = [[v[q] for v in span_vecs] + [t] for q, t in enumerate(target)]
    r = Subspace(f, ncols + 1, rows)
    if ncols in r.pivots:
        return None  # inconsistent: target escapes the span
    coeffs = [f.zero] * ncols
    for row, piv in zip(r.basis, r.pivots):
        coeffs[piv] = row[ncols]
    return coeffs


def gamma_algebra() -> FiniteNLieAlgebra:
    """4-dimensional 3-Lie algebra on span{g1..g4}: [x,y,z] = [[x,y] g5, z].

    Every evaluated bracket is verified to land back in the span before its
    structure constants are recorded; escape would be an internal error.
    """
    gammas = dirac_gamma_matrices()
    g5 = gammas[0]
    for g in gammas[1:]:
        g5 = _mat_mul(g5, g)
    flat = [[x for row in g for x in row] for g in gammas]
    constants = {}
    for a, b, c in itertools.combinations(range(4), 3):
        inner = _mat_mul(_commutator(gammas[a], gammas[b]), g5)
        val = _commutator(inner, gammas[c])
        coeffs = _solve_in_span(flat, [x for row in val for x in row])
        if coeffs is None:
            raise RuntimeError(
                "gamma bracket escaped the span; the fixed matrix convention is broken"
            )
        vec = {l: x for l, x in enumerate(coeffs) if not QI.is_zero(x)}
        if vec:
            constants[(a, b, c)] = vec
    alg = FiniteNLieAlgebra(QI, 4, 3, constants, ["g1", "g2", "g3", "g4"],
                            name="dirac-gamma")
    alg.meta = {"convention": "Dirac basis; g5 = g1*g2*g3*g4"}
    return alg
