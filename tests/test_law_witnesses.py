"""Every law check that counts its cases through `CheckReport.scan`, on an
input that fails it, against a fixture: the exact `checked` count, witnesses
(key order included), notes and sub-checks.  The fixture was captured from the
per-case loops that `scan` replaced, so it pins their counts and witness
formats.  Most entries fail more than `MAX_WITNESSES` cases, so the cap is
tested too; seeded laws run at seeds 0 and 7.  Where no input can fail a law
(the Witt relation, the kernel certificate's loops), the entry patches the
evaluator, as `test_alternating_checks_the_determinant_definition` does.

Regenerate the fixture, from a commit whose checks are the reference, with

    PYTHONPATH=src python tests/test_law_witnesses.py
"""

import json
import pathlib
import sys
from fractions import Fraction

import pytest

from trilie import brackets
from trilie.brackets import (
    ClosedFormBracket,
    LaurentFlipBracket,
    LaurentParityBracket,
    TriBracket,
    check_agreement,
    check_alternating,
    check_anticommute,
    check_derivation,
    check_functional_bracket_conditions,
    check_homomorphism,
    check_involution,
    check_involution_antisymmetry,
    check_parity_family_vanishing,
    check_principal_ideal_membership,
    check_witt_relation,
    group_kernel_certificate,
    laurent_reachability,
)
from trilie.bundled import get_bundled
from trilie.campaigns import CHECKS, Run
from trilie.carriers import (
    ConstantOne,
    Endomorphism,
    Functional,
    GroupAlgebra,
    GroupHom,
    GroupNegation,
    IdMinus,
    IdentityRule,
    LaurentAlgebra,
    LaurentDerivation,
    MonomialScale,
    TableMap,
    truncated_polynomial_algebra,
)
from trilie.documents import parse_document, render_document
from trilie.fields import PrimeField, QQ
from trilie.structure import FiniteNLieAlgebra, verify_skew

from test_structure import quotient_algebra

FIXTURE = pathlib.Path(__file__).parent / "data" / "law_witnesses.json"
SEEDS = (0, 7)


class _SumBracket(TriBracket):
    """[t^i, t^j, t^k] = t^(i+j+k): neither alternating nor skew."""

    def eval_indices(self, i, j, k):
        add = self.carrier.add_indices
        return self.carrier.monomial(add(add(i, j), k))


class _DistinctSumBracket(_SumBracket):
    """Zero on repeated arguments, t^(i+j+k) otherwise: symmetric, not skew."""

    def eval_indices(self, i, j, k):
        if len({i, j, k}) < 3:
            return self.carrier.zero()
        return super().eval_indices(i, j, k)


def _z5_squared_hom():
    return GroupHom(GroupAlgebra(PrimeField(5), torsion=[5, 5]), torsion_values=[1, 2])


# name -> run(monkeypatch, seed) returning the failing CheckReport; the names
# in SEEDED run at every seed of SEEDS, the others once

def derivation(mp, seed):
    A = LaurentAlgebra(QQ, 1)
    return check_derivation(Endomorphism(A, MonomialScale(Fraction(2))), A.window(3))


def involution(mp, seed):
    # diag(1, -1, 2, 1) on F[x]/(x^4): f^2 = id fails at x^2 and
    # multiplicativity at (x, x) and (x, x^2)
    P = truncated_polynomial_algebra(QQ, 4)
    diag = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1)]
    entries = [[diag[i] if i == j else Fraction(0) for j in range(4)] for i in range(4)]
    return check_involution(Endomorphism(P, TableMap(entries)), P.basis_indices())


def involution_capped(mp, seed):
    A = LaurentAlgebra(QQ, 1)
    return check_involution(Endomorphism(A, MonomialScale(Fraction(2))), A.window(3))


def anticommute(mp, seed):
    A = LaurentAlgebra(QQ, 1)
    return check_anticommute(Endomorphism(A, IdentityRule()),
                             Endomorphism(A, LaurentDerivation(1)), A.window(3))


def functional_conditions(mp, seed):
    A = LaurentAlgebra(QQ, 1)
    one = Functional(A, ConstantOne())
    return check_functional_bracket_conditions(
        one, one, one, Endomorphism(A, LaurentDerivation(1)),
        Endomorphism(A, MonomialScale(Fraction(2))), A.window(2))


def witt(mp, seed):
    # the relation holds for every t^(m+1) d/dt; t^(m+2) d/dt breaks it
    mp.setattr(brackets, "LaurentDerivation", lambda power: LaurentDerivation(power + 1))
    return check_witt_relation(LaurentAlgebra(QQ, 1), 2)


def alternating_repeated(mp, seed):
    A = LaurentAlgebra(QQ, 1)
    return check_alternating(_SumBracket(A), A.window(3), seed=seed)


def alternating_sign(mp, seed):
    A = LaurentAlgebra(QQ, 1)
    return check_alternating(_DistinctSumBracket(A), A.window(3), seed=seed)


def agreement(mp, seed):
    A = LaurentAlgebra(QQ, 1)
    return check_agreement(LaurentParityBracket(A, 0), LaurentParityBracket(A, 2), A.window(2))


def involution_antisymmetry(mp, seed):
    A = LaurentAlgebra(QQ, 1)
    return check_involution_antisymmetry(LaurentFlipBracket(A, [Fraction(1)]),
                                         Endomorphism(A, IdentityRule()), A.window(3))


def homomorphism(mp, seed):
    # sigma(t^m) = 2^m t^m neither preserves the unit flip bracket nor
    # commutes with the flip; it is invertible on the window
    A = LaurentAlgebra(QQ, 1)
    flip = LaurentFlipBracket(A, [Fraction(1)])
    neg = Endomorphism(A, GroupNegation())
    return check_homomorphism(Endomorphism(A, MonomialScale(Fraction(2))), flip, flip, A.window(3),
                              intertwine=[("flip", neg, neg)], require_invertible=True,
                              exclude_indices=[A.unit_index()])


def homomorphism_not_invertible(mp, seed):
    A = LaurentAlgebra(QQ, 1)
    flip = LaurentFlipBracket(A, [Fraction(1)])
    return check_homomorphism(Endomorphism(A, IdMinus(IdentityRule())), flip, flip, A.window(3),
                              require_invertible=True)


def grading(mp, seed):
    # the unit-flip document with d/dt in place of t d/dt, as its campaign
    # runs it: d/dt does not swap the flip's eigenspaces
    doc = get_bundled("laurent-flip-unit")
    doc["maps"]["euler"]["power"] = 0
    ctx = parse_document(render_document(doc))
    return CHECKS["grading"].run(ctx, ctx.campaign_args["grading"], Run(seed, None))


def grading_nonabelian(mp, seed):
    A = LaurentAlgebra(QQ, 1)
    plus = [A.one()] + [A.monomial((i,)) + A.monomial((-i,)) for i in range(1, 5)]
    minus = [A.monomial((i,)) - A.monomial((-i,)) for i in range(1, 5)]
    return brackets.check_grading(LaurentParityBracket(A, 0), None, plus, minus)


def ideal_divisibility(mp, seed):
    # dropping the products with repeated exponents leaves the ideal
    A = LaurentAlgebra(PrimeField(3), 1)
    gen = A.monomial((3,)) + A.monomial((-3,))
    return check_principal_ideal_membership(_DistinctSumBracket(A), gen, range(-2, 3), 3)


def kernel_hom_values(mp, seed):
    # P(a, b, c) is identically zero, so no hom fails this loop: the field's
    # normalize returns 1 to P alone
    hom = _z5_squared_hom()
    normalize = hom.carrier.field.normalize
    mp.setattr(hom.carrier.field, "normalize",
               lambda a: 1 if sys._getframe(1).f_code.co_name == "P" else normalize(a))
    return group_kernel_certificate(hom, seed=seed)[1]


def kernel_spot(mp, seed):
    # every basis bracket gains e_(1,0), whose hom value is 1
    value = ClosedFormBracket.eval_indices
    mp.setattr(ClosedFormBracket, "eval_indices",
               lambda self, i, j, k: value(self, i, j, k) + self.carrier.monomial((1, 0)))
    return group_kernel_certificate(_z5_squared_hom(), seed=seed)[1]


def kernel_probe(mp, seed):
    # brackets of elements gain e_(1,0); basis brackets are untouched
    call = TriBracket.__call__
    mp.setattr(ClosedFormBracket, "__call__",
               lambda self, a, b, c: call(self, a, b, c) + self.carrier.monomial((1, 0)))
    return group_kernel_certificate(_z5_squared_hom(), seed=seed)[1]


def parity_vanishing(mp, seed):
    return check_parity_family_vanishing(PrimeField(3), 4)


def reachability(mp, seed):
    # over F_2 the parity bracket is zero: nothing reaches anything
    return laurent_reachability(PrimeField(2), 3)


def skew_sign(mp, seed):
    # every bracket doubled in the index, not in the stored constants
    L = quotient_algebra(3)
    f = L.field
    L.ad_index = FiniteNLieAlgebra(f, L.dim, 3, {k: {l: f.add(c, c) for l, c in v.items()}
                                                 for k, v in L.constants.items()}).ad_index
    return verify_skew(L)


def skew_repeated(mp, seed):
    # repeated indices bracket to e_0 in the evaluator
    L = quotient_algebra(3)
    index = L.bracket_indices
    L.bracket_indices = lambda t: {0: L.field.one} if len(set(t)) < 3 else index(t)
    return verify_skew(L)


CASES = {run.__name__.replace("_", "-"): run for run in (
    derivation, involution, involution_capped, anticommute, functional_conditions, witt,
    alternating_repeated, alternating_sign, agreement, involution_antisymmetry, homomorphism,
    homomorphism_not_invertible, grading, grading_nonabelian, ideal_divisibility,
    kernel_hom_values, kernel_spot, kernel_probe, parity_vanishing, reachability, skew_sign,
    skew_repeated)}
SEEDED = {"alternating-repeated", "alternating-sign", "kernel-hom-values", "kernel-spot",
          "kernel-probe"}
KEYS = [key for name in CASES
        for key in ([f"{name}@{seed}" for seed in SEEDS] if name in SEEDED else [name])]


def summary(rep) -> dict:
    return {"checked": rep.checked, "failures": rep.failures, "notes": rep.notes,
            "details": {k: summary(sub) for k, sub in rep.details.items()}}


def run_key(key: str, mp) -> dict:
    name, _, seed = key.partition("@")
    return summary(CASES[name](mp, int(seed) if seed else 0))


def test_the_table_covers_every_case():
    assert list(json.loads(FIXTURE.read_text())) == KEYS


@pytest.mark.parametrize("key", KEYS)
def test_failing_law_keeps_its_witnesses(key, monkeypatch):
    want = json.loads(FIXTURE.read_text())[key]
    got = run_key(key, monkeypatch)
    assert got == want
    # compared as text too, so the key order of every witness counts
    assert json.dumps(got) == json.dumps(want)
    assert got["failures"] or any(sub["failures"] for sub in got["details"].values())


if __name__ == "__main__":
    data = {}
    for key in KEYS:
        with pytest.MonkeyPatch.context() as mp:
            data[key] = run_key(key, mp)
    FIXTURE.write_text(json.dumps(data, indent=1) + "\n")
