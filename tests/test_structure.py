import itertools
import random
from fractions import Fraction

import pytest

from trilie.fields import PrimeField, QQ
from trilie.carriers import (
    Endomorphism,
    GroupAlgebra,
    GroupHom,
    GroupHomFunctional,
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
from trilie.linalg import Subspace, kernel_of_functional
from trilie.structure import (
    BudgetExceeded,
    FiniteNLieAlgebra,
    algebra_from_dict,
    certify_simplicity,
    derived_algebra,
    derived_series,
    ideal_closure,
    is_ideal,
    is_maximal_codim1,
    lower_central_series,
    verify_fundamental_identity,
    verify_skew,
)


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
    L = FiniteNLieAlgebra(QQ, 3, 3, {})
    assert verify_fundamental_identity(L).passed


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
    from trilie.carriers import check_anticommute, check_involution, check_derivation

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
    from trilie.carriers import (
        ConstantOne,
        TableFunctional,
        TableMap,
        check_functional_bracket_conditions,
    )

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
    rep = check_grading(br, delta, plus, minus, A.window(w))
    assert rep.passed
    assert rep.details["delta_swaps_pieces"].passed
    assert rep.notes["mixed_triples_observed"] > 0


def test_grading_rejects_non_direct_sum():
    A = LaurentAlgebra(QQ, 1)
    br = LaurentFlipBracket(A, [Fraction(1)])
    plus = [A.one(), A.one()]
    with pytest.raises(ValueError):
        check_grading(br, None, plus, [], [(0,)])


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
