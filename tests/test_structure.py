import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from trilie.fields import PrimeField, QQ
from trilie.carriers import (
    Endomorphism,
    GroupAlgebra,
    GroupHom,
    Functional,
    LaurentAlgebra,
    LaurentDerivation,
    MonomialScale,
    MonomialShift,
    QuotientLaurentAlgebra,
    TableMap,
    truncated_polynomial_algebra,
)
from trilie.brackets import (
    DeterminantBracket,
    GroupWedgeBracket,
    LaurentFlipBracket,
    LaurentParityBracket,
    QuotientParityBracket,
    check_fi_window,
    check_grading,
    check_homomorphism,
    tabulate,
)
from trilie.lifts import gl_trace_lift
from trilie.linalg import SpanBuilder, Subspace, kernel_of_functional
from trilie.structure import (
    BudgetExceeded,
    FiniteNLieAlgebra,
    _ad_basis,
    _ad_images,
    _perm_sign,
    algebra_from_dict,
    certify_simplicity,
    derived_algebra,
    derived_series,
    derived_subspace,
    ideal_closure,
    is_ideal,
    is_maximal_codim1,
    lower_central_series,
    verify_fundamental_identity,
    verify_skew,
)

from test_rank_kernel import a4_plus_center


def cyclic_group_algebra(p):
    F = PrimeField(p)
    G = GroupAlgebra(F, torsion=[p])
    alpha = GroupHom(G, torsion_values=[1])
    L = tabulate(GroupWedgeBracket(alpha), G.basis_indices(), name=f"z{p}")
    phi_values = [alpha(g) for g in G.basis_indices()]
    return F, G, alpha, L, phi_values


def quotient_algebra(p):
    F = PrimeField(p)
    Q = QuotientLaurentAlgebra(F, p)
    return tabulate(QuotientParityBracket(Q), Q.basis_indices(), name=f"quot{p}")


# ---------------------------------------------------------------------------
# skew and FI
# ---------------------------------------------------------------------------

def test_verify_skew_on_tabulated_algebras():
    _, _, _, L, _ = cyclic_group_algebra(3)
    assert verify_skew(L).passed
    assert verify_skew(quotient_algebra(3)).passed


def test_verify_skew_reads_the_stored_constants_not_the_index():
    # every bracket doubled, consistently over each rest's shared rows: the
    # index is still skew, but no longer the table it was built from
    L = quotient_algebra(3)
    f = L.field
    doubled = FiniteNLieAlgebra(f, L.dim, 3, {k: {l: f.add(c, c) for l, c in v.items()}
                                              for k, v in L.constants.items()})
    L.ad_index = doubled.ad_index
    rep = verify_skew(L)
    assert rep.checked == 156 and not rep.passed
    assert set(rep.failures[0]) == {"tuple", "got", "want"}


def test_fi_cyclic_group_exhaustive_counts():
    _, _, _, L, _ = cyclic_group_algebra(3)
    rep = verify_fundamental_identity(L)
    assert rep.passed
    assert rep.notes["covered"] == 3 ** 5 == 243


def test_fi_detects_corrupted_constant():
    # dimension 6 quotient: any single flipped coefficient must leave a residual
    # (at dimension 3 every alternating triple bracket satisfies the identity,
    # so a mutation there would be invisible by design, not by accident)
    L = quotient_algebra(3)
    key = next(iter(L.constants))
    out = next(iter(L.constants[key]))
    bad = L.mutate_constant(key, out, L.field.one)
    rep = verify_fundamental_identity(bad)
    assert not rep.passed
    assert rep.first_witness() is not None and "residual" in rep.first_witness()


def test_fi_sampled_mode_is_deterministic():
    L = quotient_algebra(3)
    r1 = verify_fundamental_identity(L, mode="sampled", samples=200, seed=11)
    r2 = verify_fundamental_identity(L, mode="sampled", samples=200, seed=11)
    assert r1.passed and r2.passed and r1.checked == r2.checked == 200


def test_fi_abelian_trivial():
    # no ad map is nonzero, so the basis of ad maps is empty and no case is
    # scanned, but all C(3, 3) C(3, 2) cases are decided
    L = FiniteNLieAlgebra(QQ, 3, 3, {})
    assert _ad_basis(L) == []
    rep = verify_fundamental_identity(L)
    assert rep.passed and rep.checked == 3


def test_fi_window_for_closed_forms():
    A = LaurentAlgebra(QQ, 1)
    br = LaurentParityBracket(A, shift=0)
    rep = check_fi_window(br, A.window(2))
    assert rep.passed and rep.notes["covered"] == 5 ** 5


# ---------------------------------------------------------------------------
# ideal machinery
# ---------------------------------------------------------------------------

def test_ideal_closure_fixed_points():
    L = quotient_algebra(3)
    zero = Subspace.zero(L.field, L.dim)
    assert ideal_closure(L, zero) == zero
    full = Subspace.full(L.field, L.dim)
    assert ideal_closure(L, full) == full


def test_ideal_closure_of_top_line_is_everything():
    # seeding with t^p in the p=3 quotient reaches the whole 6-dim algebra
    L = quotient_algebra(3)
    seed = Subspace(L.field, L.dim, [L.basis_row(L.dim - 1)])
    assert ideal_closure(L, seed).dim == 6


def test_ideal_closure_monotone_idempotent_and_ideal():
    L = quotient_algebra(3)
    rng = random.Random(0)
    for _ in range(10):
        vec = [L.field.random_element(rng) for _ in range(L.dim)]
        seed = Subspace(L.field, L.dim, [vec])
        clo = ideal_closure(L, seed)
        assert clo.contains_subspace(seed)
        assert ideal_closure(L, clo) == clo
        assert is_ideal(L, clo)


def test_kernel_ideal_cyclic_p3():
    F, G, alpha, L, phi_values = cyclic_group_algebra(3)
    ker = kernel_of_functional(F, phi_values)
    assert ker.codim == 1
    assert is_ideal(L, ker)
    assert is_maximal_codim1(L, ker)
    assert ker.contains_subspace(derived_algebra(L))


def test_full_space_not_maximal_proper():
    L = quotient_algebra(3)
    full = Subspace.full(L.field, L.dim)
    assert is_ideal(L, full)
    assert not is_maximal_codim1(L, full)


def test_random_line_in_simple_algebra_is_not_an_ideal():
    L = quotient_algebra(3)
    line = Subspace(L.field, L.dim, [L.basis_row(2)])
    assert not is_ideal(L, line)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def test_gl_trace_lift_two_step_solvable():
    for m in (2, 3):
        L = gl_trace_lift(QQ, m)
        rep = derived_series(L)
        assert rep.vanished
        # terms: full, L^(1), L^(2) = 0
        assert len(rep.terms) == 3 and rep.dims[-1] == 0
        assert rep.dims[1] > 0


def test_abelian_derived_vanishes_immediately():
    L = FiniteNLieAlgebra(QQ, 4, 3, {})
    rep = derived_series(L)
    assert rep.vanished and rep.dims == [4, 0]


def test_simple_quotient_derived_is_constant_full():
    L = quotient_algebra(3)
    rep = derived_series(L)
    assert rep.stabilized and not rep.vanished
    assert rep.dims[0] == rep.dims[1] == 6


def test_derived_subspace_stops_reading_products_at_full_rank(monkeypatch):
    # the p = 11 quotient is perfect: its products span all 22 dimensions
    # long before the last of the C(22, 3) = 1,540
    L = quotient_algebra(11)
    calls, bracket = [], L.bracket_sparse
    monkeypatch.setattr(L, "bracket_sparse", lambda vecs: calls.append(vecs) or bracket(vecs))
    assert derived_subspace(L, Subspace.full(L.field, 22)).dim == 22
    assert 0 < len(calls) < 1540


def test_derived_subspace_of_a_proper_derived_algebra_is_the_span_of_all_products():
    L = a4_plus_center(7)
    span = SpanBuilder(L.field, L.dim)
    for key in itertools.combinations(range(L.dim), 3):
        span.add([L.bracket_indices(key).get(l, 0) for l in range(L.dim)])
    assert span.dim == 4
    assert derived_subspace(L, Subspace.full(L.field, L.dim)) == span.to_subspace()


def test_nilpotent_carrier_gives_nilpotent_algebra():
    # non-unital truncated polynomial carrier x F[x]/(x^4), parity involution,
    # derivation x^2 d/dx; the determinant bracket is nilpotent
    A = truncated_polynomial_algebra(QQ, 4, unital=False)  # basis x, x^2, x^3
    omega = Endomorphism(A, TableMap([
        [QQ.embed(-1), QQ.zero, QQ.zero],
        [QQ.zero, QQ.one, QQ.zero],
        [QQ.zero, QQ.zero, QQ.embed(-1)],
    ]))
    delta = Endomorphism(A, TableMap([
        [QQ.zero, QQ.zero, QQ.zero],
        [QQ.one, QQ.zero, QQ.zero],
        [QQ.zero, QQ.embed(2), QQ.zero],
    ]))
    from trilie.brackets import check_anticommute, check_involution, check_derivation

    assert check_involution(omega, A.basis_indices()).passed
    assert check_derivation(delta, A.basis_indices()).passed
    assert check_anticommute(omega, delta, A.basis_indices()).passed
    L = tabulate(DeterminantBracket(A, [omega, "id", delta]), A.basis_indices())
    rep = lower_central_series(L)
    assert rep.vanished


def filiform(d):
    """[e0, e1, ei] = e_{i+1}: L^k = span(e_{k+2}, ..., e_{d-1}) for k >= 1."""
    return FiniteNLieAlgebra(QQ, d, 3, {(0, 1, i): {i + 1: QQ.one} for i in range(2, d - 1)})


def test_lower_central_series_runs_until_it_vanishes():
    assert verify_fundamental_identity(filiform(8)).passed
    # more terms than any fixed cap of 50 steps
    rep = lower_central_series(filiform(55))
    assert rep.vanished and len(rep.terms) == 54
    assert rep.dims == [55] + list(range(52, -1, -1))
    assert derived_series(filiform(55)).dims == [55, 52, 0]


# ---------------------------------------------------------------------------
# the ad index against the per-tuple oracles
# ---------------------------------------------------------------------------

@hst.composite
def sparse_tables(draw):
    """(L, dense rows): a random sparse alternating table of arity 2 to 4 and
    dimension up to 6 over F_7 or Q, and up to three rows to bracket."""
    f = draw(hst.sampled_from([PrimeField(7), QQ]))
    n = draw(hst.integers(2, 4))
    d = draw(hst.integers(n, 6))
    scalar = (hst.integers(0, 6) if f is not QQ
              else hst.builds(Fraction, hst.integers(-3, 3), hst.integers(1, 3)).map(f.normalize))
    vec = hst.dictionaries(hst.integers(0, d - 1), scalar, max_size=3)
    keys = hst.sampled_from(list(itertools.combinations(range(d), n)))
    L = FiniteNLieAlgebra(f, d, n, draw(hst.dictionaries(keys, vec, max_size=8)))
    rows = draw(hst.lists(hst.lists(scalar, min_size=d, max_size=d), max_size=3))
    return L, rows


def signed_constant(L, tup):
    """[e_t1, ..., e_tn] straight from the stored constants and the sign of
    the sorting permutation."""
    if len(set(tup)) != len(tup):
        return {}
    order = sorted(range(len(tup)), key=lambda t: tup[t])
    vec = L.constants.get(tuple(tup[t] for t in order), {})
    inv = [order.index(t) for t in range(len(tup))]
    return vec if _perm_sign(inv) == 1 else {l: L.field.neg(c) for l, c in vec.items()}


def product_walk(L, rows):
    """[r, e_j1, ..., e_jm] through `bracket_sparse` on unit vectors, for
    each row and each increasing (n-1)-tuple of the basis in order."""
    f = L.field
    for r in rows:
        sparse = {i: c for i, c in enumerate(r) if not f.is_zero(c)}
        for rest in itertools.combinations(range(L.dim), L.arity - 1):
            out = L.bracket_sparse([sparse] + [{j: f.one} for j in rest])
            if out:
                yield [out.get(l, f.zero) for l in range(L.dim)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sparse_tables())
def test_ad_index_matches_bracket_indices_and_the_product_walk(case):
    L, rows = case
    index = L.ad_index
    # the increasing rests in order, each before its other orderings
    tails, m = list(index), math.factorial(L.arity - 1)
    rests = tails[::m]
    assert rests == sorted(rests) and all(list(rest) == sorted(rest) for rest in rests)
    assert [tuple(sorted(tail)) for tail in tails] == [rest for rest in rests for _ in range(m)]
    # every tail, repeated indices included, against the stored constants
    for tail in itertools.product(range(L.dim), repeat=L.arity - 1):
        ad = index.get(tail, {})
        assert list(ad) == sorted(ad)
        for a in range(L.dim):
            want = signed_constant(L, (a,) + tail)
            # a tail missing from the index brackets every e_a to zero
            assert ad.get(a, {}) == L.bracket_indices((a,) + tail) == want
    assert list(_ad_images(L, rows)) == list(product_walk(L, rows))


# ---------------------------------------------------------------------------
# simplicity certification
# ---------------------------------------------------------------------------

def test_certify_quotient_p3_simple():
    L = quotient_algebra(3)
    cert = certify_simplicity(L)
    assert cert.verdict == "simple"
    assert cert.method == "exhaustive-1dim"
    assert cert.lines_checked == (3 ** 6 - 1) // 2 == 364


def test_certify_cyclic_p3_non_simple_with_kernel_witness():
    F, G, alpha, L, phi_values = cyclic_group_algebra(3)
    cert = certify_simplicity(L)
    assert cert.verdict == "non-simple"
    assert cert.witness == kernel_of_functional(F, phi_values)
    assert is_ideal(L, cert.witness)


def test_certify_cyclic_p5_non_simple_with_kernel_witness():
    F, G, alpha, L, phi_values = cyclic_group_algebra(5)
    cert = certify_simplicity(L)
    assert cert.verdict == "non-simple"
    assert cert.witness == kernel_of_functional(F, phi_values)


def test_certify_abelian_short_circuit():
    L = FiniteNLieAlgebra(PrimeField(3), 4, 3, {})
    cert = certify_simplicity(L)
    assert cert.verdict == "non-simple"
    assert cert.witness is not None and cert.witness.dim == 1
    assert cert.notes["reason"] == "derived algebra is zero"


def test_certify_char_zero_is_evidence_only():
    from trilie.lifts import gamma_algebra

    cert = certify_simplicity(gamma_algebra())
    assert cert.verdict == "evidence-only"
    assert cert.method == "randomized"
    assert cert.seed == 0


def test_certify_budget_refusal():
    L = quotient_algebra(7)   # dim 14 over F_7
    with pytest.raises(BudgetExceeded) as exc:
        certify_simplicity(L)
    assert exc.value.required == (7 ** 14 - 1) // 6
    assert exc.value.budget == 5_000_000


def test_fast_line_scan_agrees_with_fixed_point_closure():
    # the certificate's per-line decision must match literal ideal_closure
    L = quotient_algebra(3)
    rng = random.Random(5)
    for _ in range(15):
        vec = [rng.randrange(3) for _ in range(L.dim)]
        if all(c == 0 for c in vec):
            continue
        clo = ideal_closure(L, Subspace(L.field, L.dim, [vec]))
        assert clo.dim == L.dim  # simple: every line closure is full
    F, G, alpha, Lz, phi = cyclic_group_algebra(3)
    clo = ideal_closure(Lz, Subspace(Lz.field, 3, [Lz.basis_row(0)]))
    assert clo == kernel_of_functional(F, phi)


def test_mutation_sensitivity_every_constant_guarded():
    # perturbing any stored structure coefficient of the p=3 quotient breaks
    # the fundamental identity (skew storage is canonical by construction)
    L = quotient_algebra(3)
    mutations = 0
    for key, vec in L.constants.items():
        for l in vec:
            bad = L.mutate_constant(key, l, L.field.one)
            assert not verify_fundamental_identity(bad).passed, (key, l)
            mutations += 1
    assert mutations > 0


def test_functional_conditions_imply_fi():
    # for functional-row brackets, passing compatibility conditions must come
    # with a zero FI residual on the same window; tested as an implication
    # over several configurations, including one whose conditions fail
    from trilie.brackets import check_functional_bracket_conditions
    from trilie.carriers import ConstantOne, TableFunctional, TableMap

    configs = []

    A4 = truncated_polynomial_algebra(QQ, 4)
    beta = Functional(A4, TableFunctional([QQ.one, QQ.one, QQ.zero, QQ.zero]))
    dxx = Endomorphism(A4, TableMap([
        [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0]]))
    configs.append((A4, dict(beta=beta, delta=dxx),
                    DeterminantBracket(A4, [beta, "id", dxx]), A4.basis_indices()))

    AL = LaurentAlgebra(QQ, 1)
    bad_beta = Functional(AL, ConstantOne())
    d0 = Endomorphism(AL, LaurentDerivation(0))
    configs.append((AL, dict(beta=bad_beta, delta=d0),
                    DeterminantBracket(AL, [bad_beta, "id", d0]), AL.window(2)))

    implications_checked = 0
    for carrier, maps, bracket, window in configs:
        rep = check_functional_bracket_conditions(
            maps.get("alpha"), maps.get("beta"), maps.get("gamma"),
            maps.get("delta"), maps.get("omega"), window)
        if rep.passed:
            fi = check_fi_window(bracket, window)
            assert fi.passed, "conditions passed but the identity failed"
            implications_checked += 1
    assert implications_checked >= 1  # the implication was not vacuous


# ---------------------------------------------------------------------------
# gradings and homomorphisms
# ---------------------------------------------------------------------------

def test_grading_for_unit_flip_bracket():
    A = LaurentAlgebra(QQ, 1)
    br = LaurentFlipBracket(A, [Fraction(1)])
    delta = Endomorphism(A, LaurentDerivation(1))
    w = 4
    plus = [A.monomial((i,)) + A.monomial((-i,)) for i in range(1, w + 1)]
    plus.insert(0, A.one())
    minus = [A.monomial((i,)) - A.monomial((-i,)) for i in range(1, w + 1)]
    rep = check_grading(br, delta, plus, minus)
    assert rep.passed
    assert rep.details["delta_swaps_pieces"].passed
    assert rep.notes["mixed_triples_observed"] > 0


@pytest.mark.parametrize("plus, minus", [
    pytest.param([{1: 1}], [], id="t-as-plus"),                   # flip(t) = t^-1
    pytest.param([], [{0: 1}], id="1-as-minus"),                  # flip(1) = 1
    pytest.param([{1: 1, -1: -1}], [], id="t-minus-1/t-as-plus"),  # in the minus piece
])
def test_grading_rejects_an_element_outside_its_piece(plus, minus):
    A = LaurentAlgebra(QQ, 1)
    br = LaurentFlipBracket(A, [Fraction(1)])

    def elements(terms):
        return [A.element({(e,): Fraction(c) for e, c in t.items()}) for t in terms]

    with pytest.raises(ValueError, match="piece of the flip"):
        check_grading(br, None, elements(plus), elements(minus))


def test_homomorphism_identity_map():
    A = LaurentAlgebra(QQ, 1)
    br = LaurentFlipBracket(A, [Fraction(1)])
    sigma = Endomorphism(A, MonomialShift(0))
    rep = check_homomorphism(sigma, br, br, A.window(3))
    assert rep.passed


def test_homomorphism_scaling_intertwines_flip_brackets():
    # sigma(t^m) = 2^m t^m carries the lambda = 4 flip bracket to lambda = 1
    A = LaurentAlgebra(QQ, 1)
    src = LaurentFlipBracket(A, [Fraction(4)])
    tgt = LaurentFlipBracket(A, [Fraction(1)])
    sigma = Endomorphism(A, MonomialScale(Fraction(2)))
    from trilie.carriers import LaurentFlip

    rep = check_homomorphism(
        sigma, src, tgt, A.window(5),
        intertwine=[
            ("omega", Endomorphism(A, LaurentFlip((Fraction(4),))),
             Endomorphism(A, LaurentFlip((Fraction(1),)))),
            ("delta", Endomorphism(A, LaurentDerivation(1)),
             Endomorphism(A, LaurentDerivation(1))),
        ],
        require_invertible=True,
    )
    assert rep.passed
    assert rep.details["omega"].passed and rep.details["delta"].passed


def test_homomorphism_even_shift():
    # sigma(t^m) = t^{m-2} carries the plain-derivative bracket to shift 4
    A = LaurentAlgebra(QQ, 1)
    src = LaurentParityBracket(A, shift=0)
    tgt = LaurentParityBracket(A, shift=4)
    sigma = Endomorphism(A, MonomialShift(-2))
    rep = check_homomorphism(sigma, src, tgt, A.window(5), require_invertible=True)
    assert rep.passed


def test_homomorphism_odd_shift_with_unit_anomaly():
    from trilie.fields import QI

    A = LaurentAlgebra(QI, 1)
    src = LaurentParityBracket(A, shift=0)
    tgt = LaurentParityBracket(A, shift=2)
    sigma = Endomorphism(A, MonomialShift(-1, QI.i))
    rep = check_homomorphism(sigma, src, tgt, A.window(5),
                             exclude_indices=[(0,)], require_invertible=True)
    assert rep.passed
    assert rep.notes["excluded_indices"] == ["1"]
    assert rep.notes["unit_fixed"] is False  # i*t^-1 != 1: the reported anomaly


def test_homomorphism_detects_wrong_map():
    A = LaurentAlgebra(QQ, 1)
    src = LaurentParityBracket(A, shift=0)
    tgt = LaurentParityBracket(A, shift=4)
    sigma = Endomorphism(A, MonomialShift(-1))  # wrong shift for this pair
    rep = check_homomorphism(sigma, src, tgt, A.window(4))
    assert not rep.passed


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_constants_are_normalized_before_zeros_are_dropped():
    # a library caller's unreduced values: 5 and 10 are zero in F_5, -1 is 4
    F = PrimeField(5)
    L = FiniteNLieAlgebra(F, 4, 3, {(0, 1, 2): {0: 5, 1: -1}, (0, 1, 3): {2: 10}})
    assert L.constants == {(0, 1, 2): {1: 4}}
    assert L.ad_index == {(0, 1): {2: {1: 4}}, (1, 0): {2: {1: 1}},
                          (0, 2): {1: {1: 1}}, (2, 0): {1: {1: 4}},
                          (1, 2): {0: {1: 4}}, (2, 1): {0: {1: 1}}}
    assert L.export_dict()["constants"] == [{"args": [0, 1, 2], "value": [[1, "4"]]}]
    q = FiniteNLieAlgebra(QQ, 3, 3, {(0, 1, 2): {0: Fraction(4, 2), 1: Fraction(0)}})
    assert q.constants == {(0, 1, 2): {0: 2}} and type(q.constants[0, 1, 2][0]) is int


def test_export_round_trip():
    L = quotient_algebra(3)
    doc = L.export_dict()
    back = algebra_from_dict(doc)
    assert back.constants == L.constants
    assert back.labels == L.labels
    assert back.field == L.field


def test_export_is_sorted():
    L = quotient_algebra(5)
    doc = L.export_dict()
    keys = [tuple(e["args"]) for e in doc["constants"]]
    assert keys == sorted(keys)
