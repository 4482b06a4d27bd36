"""Acceptance gate: every criterion the package must meet, at its stated
tolerance (all arithmetic is exact, so every equality below is exact) and
within its stated wall-time limit.  One printed pass/fail line per criterion;
run with -s to see them.
"""

import itertools
import time
from fractions import Fraction

from trilie.fields import PrimeField, QI, QQ
from trilie.carriers import (
    AlternatingSign,
    ConstantOne,
    Endomorphism,
    ExponentValue,
    Functional,
    GroupAlgebra,
    GroupHom,
    GroupHomDerivation,
    GroupNegation,
    LaurentAlgebra,
    LaurentDerivation,
    LaurentFlip,
    MonomialScale,
    MonomialShift,
    QuotientLaurentAlgebra,
)
from trilie.brackets import (
    DeterminantBracket,
    GroupWedgeBracket,
    LaurentFlipBracket,
    LaurentParityBracket,
    QuotientParityBracket,
    check_agreement,
    check_anticommute,
    check_fi_window,
    check_grading,
    check_homomorphism,
    check_principal_ideal_membership,
    group_kernel_certificate,
    functional_det,
    tabulate,
)
from trilie.campaigns import overall_verdict, run_document
from trilie.documents import parse_document, render_document
from trilie.bundled import get_bundled
from trilie.lifts import gamma_algebra, gl_trace_lift, killing_form, metric_extension, sl2
from trilie.linalg import kernel_of_functional
from trilie.structure import (
    certify_simplicity,
    derived_algebra,
    derived_series,
    is_ideal,
    is_maximal_codim1,
    verify_fundamental_identity,
)


def criterion(cid: str, ok: bool, detail: str, elapsed: float = None):
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'}: {detail}{stamp}")
    assert ok, f"criterion {cid}: {detail}"


def cyclic_algebra(p):
    F = PrimeField(p)
    G = GroupAlgebra(F, torsion=[p])
    alpha = GroupHom(G, torsion_values=[1])
    L = tabulate(GroupWedgeBracket(alpha), G.basis_indices(), name=f"z{p}")
    values = [alpha(g) for g in G.basis_indices()]
    return F, alpha, L, values


def quotient(p):
    F = PrimeField(p)
    Q = QuotientLaurentAlgebra(F, p)
    return tabulate(QuotientParityBracket(Q), Q.basis_indices(), name=f"quot{p}")


def timed_fi(L, limit, cid, covered_expected):
    t0 = time.monotonic()
    rep = verify_fundamental_identity(L)
    dt = time.monotonic() - t0
    criterion(cid, rep.passed and rep.notes["covered"] == covered_expected and dt < limit,
              f"{L.name or 'algebra'} dim {L.dim}: residual zero on all "
              f"{rep.notes['covered']} basis 5-tuples (limit {limit}s)", dt)


# ---------------------------------------------------------------------------
# 1. fundamental identity, exhaustively, residual exactly zero
# ---------------------------------------------------------------------------

def test_c1a_cyclic_p3():
    _, _, L, _ = cyclic_algebra(3)
    timed_fi(L, 1.0, "1a", 243)


def test_c1b_cyclic_p5():
    _, _, L, _ = cyclic_algebra(5)
    timed_fi(L, 1.0, "1b", 3125)


def test_c1c_quotients():
    timed_fi(quotient(3), 5.0, "1c(p=3)", 7776)
    timed_fi(quotient(5), 60.0, "1c(p=5)", 100000)


def test_c1d_gamma():
    timed_fi(gamma_algebra(), 5.0, "1d", 1024)


def test_c1e_metric_extension():
    lie = sl2(QQ)
    L = metric_extension(lie, killing_form(lie), name="metric-sl2")
    timed_fi(L, 5.0, "1e", 3125)


def test_c1f_gl2_trace_lift():
    timed_fi(gl_trace_lift(QQ, 2), 1.0, "1f", 1024)


def test_c1g_laurent_closed_forms_window():
    A = LaurentAlgebra(QQ, 1)
    window = A.window(4)   # 9 monomials, 9^5 = 59049 tuples covered each
    cases = [
        ("flip scale 2", LaurentFlipBracket(A, [Fraction(2)])),
        ("parity shift 2", LaurentParityBracket(A, shift=2)),
        ("parity shift 0", LaurentParityBracket(A, shift=0)),
    ]
    t0 = time.monotonic()
    for label, bracket in cases:
        rep = check_fi_window(bracket, window)
        assert rep.passed and rep.notes["covered"] == 59049, label
    dt = time.monotonic() - t0
    criterion("1g", dt < 60.0,
              "three Laurent closed forms: residual zero on all 59049 window "
              "5-tuples each (limit 60s)", dt)


# ---------------------------------------------------------------------------
# 2. closed form vs determinant oracle on >= 10^4 triples
# ---------------------------------------------------------------------------

def test_c2_closed_vs_determinant():
    t0 = time.monotonic()
    G = GroupAlgebra(QQ, free_rank=1)
    alpha = GroupHom(G, free_values=[QQ.one])
    group_closed = GroupWedgeBracket(alpha)
    group_det = DeterminantBracket(G, [
        Endomorphism(G, GroupNegation()), "id",
        Endomorphism(G, GroupHomDerivation(alpha))])
    rep_g = check_agreement(group_closed, group_det, G.window(11))

    A = LaurentAlgebra(QQ, 1)
    flip_closed = LaurentFlipBracket(A, [Fraction(2)])
    flip_det = DeterminantBracket(A, [
        Endomorphism(A, LaurentFlip((Fraction(2),))), "id",
        Endomorphism(A, LaurentDerivation(1))])
    rep_f = check_agreement(flip_closed, flip_det, A.window(11))

    parity_closed = LaurentParityBracket(A, shift=2)
    parity_det = DeterminantBracket(A, [
        Endomorphism(A, MonomialScale(QQ.embed(-1))), "id",
        Endomorphism(A, LaurentDerivation(2))])
    rep_p = check_agreement(parity_closed, parity_det, A.window(11))

    dt = time.monotonic() - t0
    ok = all(r.passed and r.checked == 23 ** 3 >= 10 ** 4
             for r in (rep_g, rep_f, rep_p))
    criterion("2", ok,
              f"group/flip/parity closed forms: exact match with the "
              f"determinant on {23 ** 3} ordered window triples each", dt)


# ---------------------------------------------------------------------------
# 3. hom-kernel maximal ideals and non-simplicity certificates
# ---------------------------------------------------------------------------

def test_c3_kernel_ideals():
    t0 = time.monotonic()
    for p in (3, 5):
        F, alpha, L, values = cyclic_algebra(p)
        ker = kernel_of_functional(F, values)
        assert ker.codim == 1
        assert is_ideal(L, ker) and is_maximal_codim1(L, ker)
        assert ker.contains_subspace(derived_algebra(L))
        cert = certify_simplicity(L)
        assert cert.verdict == "non-simple"
        assert cert.witness == ker

    # 2x2 matrices with entries in F_5: G = Z_5^4, half-sum hom; dimension 625
    F5 = PrimeField(5)
    G = GroupAlgebra(F5, torsion=[5, 5, 5, 5])
    half = F5.inv(F5.embed(2))
    alpha = GroupHom(G, torsion_values=[half] * 4)
    cert, report = group_kernel_certificate(alpha)
    ker = kernel_of_functional(F5, [alpha(g) for g in G.basis_indices()])
    assert report.passed             # phi kills every bracket: ideal + contains L^1
    assert cert.verdict == "non-simple"
    assert cert.witness == ker and ker.codim == 1
    dt = time.monotonic() - t0
    criterion("3", True,
              "hom kernels are maximal codimension-1 ideals containing the "
              "derived algebra; certificates return non-simple with the "
              "kernel as witness (p=3, p=5 cyclic; dim-625 matrix group)", dt)


# ---------------------------------------------------------------------------
# 4. exhaustive line-enumeration simplicity for the quotients
# ---------------------------------------------------------------------------

def test_c4_quotient_simplicity():
    L3 = quotient(3)
    t0 = time.monotonic()
    cert3 = certify_simplicity(L3)
    dt3 = time.monotonic() - t0
    ok3 = (cert3.verdict == "simple" and cert3.lines_checked == 364 and dt3 < 1.0)
    criterion("4(p=3)", ok3 and derived_algebra(L3).dim == L3.dim,
              "quotient p=3: simple via 364 lines, derived algebra is "
              "everything (limit 1s)", dt3)

    L5 = quotient(5)
    t0 = time.monotonic()
    cert5 = certify_simplicity(L5)
    dt5 = time.monotonic() - t0
    ok5 = (cert5.verdict == "simple" and cert5.lines_checked == 2441406
           and cert5.notes["lines_per_stack"] == [2283000, 60750, 97656]
           and dt5 < 600.0)
    criterion("4(p=5)", ok5 and derived_algebra(L5).dim == L5.dim,
              "quotient p=5: simple via 2441406 lines (2283000, 60750 and 97656 "
              "per stack), derived algebra is everything (limit 600s)", dt5)


# ---------------------------------------------------------------------------
# 5. anticommutation biconditional
# ---------------------------------------------------------------------------

def test_c5_anticommute_biconditional():
    t0 = time.monotonic()
    A = LaurentAlgebra(QQ, 1)
    window = A.window(8)
    listed = []
    for k in (-1, 0, 1, 2):
        listed.append((Endomorphism(A, MonomialScale(QQ.embed(-1))),
                       Endomorphism(A, LaurentDerivation(2 * k))))
    for lam in (Fraction(1), Fraction(3)):
        listed.append((Endomorphism(A, LaurentFlip((lam,))),
                       Endomorphism(A, LaurentDerivation(1))))
    ok = all(check_anticommute(w, d, window).passed for w, d in listed)
    excluded = check_anticommute(Endomorphism(A, MonomialScale(QQ.one)),
                                 Endomorphism(A, LaurentDerivation(2)), window)
    ok = ok and not excluded.passed and excluded.first_witness() is not None
    dt = time.monotonic() - t0
    criterion("5", ok,
              "all listed involution/derivation pairs anticommute on |m| <= 8; "
              "the excluded identity-sign + t^2 d/dt pair fails with witness "
              f"{excluded.first_witness()}", dt)


# ---------------------------------------------------------------------------
# 6. isomorphism maps
# ---------------------------------------------------------------------------

def test_c6_isomorphisms():
    t0 = time.monotonic()
    A = LaurentAlgebra(QQ, 1)
    window = A.window(5)

    sigma = Endomorphism(A, MonomialScale(Fraction(2)))
    rep_flip = check_homomorphism(
        sigma, LaurentFlipBracket(A, [Fraction(4)]),
        LaurentFlipBracket(A, [Fraction(1)]), window,
        intertwine=[("omega", Endomorphism(A, LaurentFlip((Fraction(4),))),
                     Endomorphism(A, LaurentFlip((Fraction(1),)))),
                    ("delta", Endomorphism(A, LaurentDerivation(1)),
                     Endomorphism(A, LaurentDerivation(1)))],
        require_invertible=True)

    shift = Endomorphism(A, MonomialShift(-2))
    rep_even = check_homomorphism(
        shift, LaurentParityBracket(A, shift=0), LaurentParityBracket(A, shift=4),
        window, require_invertible=True)

    Ai = LaurentAlgebra(QI, 1)
    odd = Endomorphism(Ai, MonomialShift(-1, QI.i))
    rep_odd = check_homomorphism(
        odd, LaurentParityBracket(Ai, shift=0), LaurentParityBracket(Ai, shift=2),
        Ai.window(5), exclude_indices=[(0,)], require_invertible=True)

    ok = (rep_flip.passed and rep_even.passed and rep_odd.passed
          and rep_odd.notes["unit_fixed"] is False)
    dt = time.monotonic() - t0
    criterion("6", ok,
              "scale-by-2^m and shift-by-2 maps intertwine exactly on |m| <= 5; "
              "the odd shift over Q(i) intertwines away from the unit and the "
              f"unit anomaly is reported (sigma(1) = {rep_odd.notes['unit_image']})",
              dt)


# ---------------------------------------------------------------------------
# 7. divisibility-based ideal membership
# ---------------------------------------------------------------------------

def test_c7_principal_ideal_membership():
    t0 = time.monotonic()
    F3 = PrimeField(3)
    A3 = LaurentAlgebra(F3, 1)
    brackets = [LaurentFlipBracket(A3, [1]), LaurentParityBracket(A3, shift=0)]
    ok = True
    total = 0
    for bracket in brackets:
        for sign in (1, -1):
            gen = A3.monomial((3,)) + A3.monomial((-3,), F3.embed(sign))
            rep = check_principal_ideal_membership(bracket, gen, range(-2, 3), 3)
            ok = ok and rep.passed
            total += rep.checked
    dt = time.monotonic() - t0
    criterion("7", ok,
              f"(t^3 +- t^-3) ideals: every bracket value exactly divisible "
              f"by the generator ({total} divisions, both brackets)", dt)


# ---------------------------------------------------------------------------
# 8. grading under the unit flip
# ---------------------------------------------------------------------------

def test_c8_grading():
    t0 = time.monotonic()
    A = LaurentAlgebra(QQ, 1)
    bracket = LaurentFlipBracket(A, [Fraction(1)])
    delta = Endomorphism(A, LaurentDerivation(1))
    plus = [A.one()] + [A.monomial((i,)) + A.monomial((-i,)) for i in range(1, 5)]
    minus = [A.monomial((i,)) - A.monomial((-i,)) for i in range(1, 5)]
    rep = check_grading(bracket, delta, plus, minus)
    ok = rep.passed and rep.details["delta_swaps_pieces"].passed
    dt = time.monotonic() - t0
    criterion("8", ok,
              "symmetric/antisymmetric combinations on |i| <= 4 annihilate "
              "under the unit flip bracket; t d/dt swaps the two pieces", dt)


# ---------------------------------------------------------------------------
# 9. monomial form reproduces the parity closed form
# ---------------------------------------------------------------------------

def test_c9_monomial_form():
    t0 = time.monotonic()
    A = LaurentAlgebra(QQ, 1)
    # the parity coefficient as the determinant of the functional rows
    # ((-1)^e, 1, e)
    rows = [Functional(A, r) for r in (AlternatingSign(), ConstantOne(), ExponentValue())]
    ok = True
    for k in (0, 1, 2):
        parity = LaurentParityBracket(A, shift=2 * k)
        for l, m, n in itertools.product(range(-6, 7), repeat=3):
            c = functional_det(*rows, *(A.monomial((e,)) for e in (l, m, n)))
            a = A.monomial((l + m + n + 2 * k - 1,), c)
            b = parity.eval_indices((l,), (m,), (n,))
            # coefficients agree (and with these shifts the exponents do too)
            if a.terms != b.terms:
                ok = False
    dt = time.monotonic() - t0
    criterion("9", ok,
              "monomial form t^(l+m+n+2k-1) with the functional determinant "
              "coefficient matches the closed form on all 13^3 triples for "
              "k in {0,1,2}", dt)


# ---------------------------------------------------------------------------
# 10. trace lifts are two-step solvable
# ---------------------------------------------------------------------------

def test_c10_trace_lift_solvability():
    t0 = time.monotonic()
    ok = True
    for m in (2, 3):
        rep = derived_series(gl_trace_lift(QQ, m))
        ok = ok and rep.vanished and len(rep.terms) - 1 == 2 and rep.dims[1] > 0
    dt = time.monotonic() - t0
    criterion("10", ok,
              "gl(2) and gl(3) trace lifts: derived series vanishes exactly "
              "at step 2", dt)


# ---------------------------------------------------------------------------
# 11. negative controls fail with witnesses
# ---------------------------------------------------------------------------

def test_c11_negative_controls():
    t0 = time.monotonic()
    ok = True
    for name in ("control-mutated-quotient", "control-pair-mismatch"):
        results = run_document(parse_document(render_document(get_bundled(name))))
        failed = [r for r in results if r.verdict == "fail"]
        ok = ok and overall_verdict(results) == "any-fail"
        ok = ok and all(r.witness is not None for r in failed) and failed
    dt = time.monotonic() - t0
    criterion("11", ok,
              "both bundled negative controls produce failing verdicts with "
              "concrete witnesses", dt)
