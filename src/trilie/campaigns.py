"""Build algebras from definition documents and run named verification
campaigns over them, producing deterministic machine-readable results."""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Union

from . import brackets as br
from . import carriers as ca
from . import lifts
from . import structure as st
from .documents import ALGEBRA_CHECKS, ConfigError
from .fields import Field, field_from_descriptor
from .linalg import Subspace, kernel_of_functional

# kernel-ideal instances above this dimension skip tabulation-based checks and
# use the carrier-level kernel certificate
KERNEL_TABULATION_LIMIT = 50


@dataclass
class BuildContext:
    doc: dict
    field: Field
    carrier: Optional[ca.CarrierAlgebra] = None
    maps: Dict[str, Union[ca.Endomorphism, ca.Functional]] = dc_field(default_factory=dict)
    hom: Optional[ca.GroupHom] = None
    bracket: Optional[br.TriBracket] = None
    algebra: Optional[st.FiniteNLieAlgebra] = None
    basis: Optional[list] = None
    closure_failure: Optional[br.ClosureFailure] = None


@dataclass
class CampaignResult:
    name: str
    check: str
    verdict: str                    # "pass" | "fail" | "refused"
    counts: Dict[str, int] = dc_field(default_factory=dict)
    witness: Optional[object] = None
    seed: Optional[int] = None
    duration_s: float = 0.0
    notes: Dict[str, object] = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "check": self.check,
            "verdict": self.verdict,
            "counts": dict(sorted(self.counts.items())),
            "witness": self.witness,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "notes": {k: self.notes[k] for k in sorted(self.notes)},
        }


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _build_carrier(field: Field, cfg: dict) -> ca.CarrierAlgebra:
    shape = cfg["shape"]
    if shape == "laurent":
        return ca.LaurentAlgebra(field, int(cfg.get("vars", 1)))
    if shape == "group":
        return ca.GroupAlgebra(field, int(cfg.get("free", 0)),
                               [int(m) for m in cfg.get("torsion", [])])
    if shape == "quotient-laurent":
        return ca.QuotientLaurentAlgebra(field, int(cfg["p"]))
    if shape == "poly-truncated":
        return ca.truncated_polynomial_algebra(field, int(cfg["n"]),
                                               unital=bool(cfg.get("unital", True)))
    raise ConfigError("$.carrier.shape", f"unknown shape {shape!r}")


def _build_hom(carrier, cfg: dict, path: str) -> ca.GroupHom:
    if not isinstance(carrier, ca.GroupAlgebra):
        raise ConfigError(path, "homs need a group-algebra carrier")
    f = carrier.field
    return ca.GroupHom(
        carrier,
        free_values=[f.parse(v) for v in cfg.get("free", [])],
        torsion_values=[f.parse(v) for v in cfg.get("torsion", [])],
    )


def _build_endo_rule(carrier, cfg: dict, path: str) -> ca.EndoRule:
    f = carrier.field
    rule = cfg["rule"]
    if rule == "identity":
        return ca.IdentityRule()
    if rule == "monomial-scale":
        return ca.MonomialScale(f.parse(cfg["base"]))
    if rule == "laurent-derivation":
        return ca.LaurentDerivation(int(cfg.get("power", 1)))
    if rule == "variable-scaling-derivation":
        return ca.VariableScalingDerivation(int(cfg.get("var", 0)))
    if rule == "laurent-flip":
        return ca.LaurentFlip(tuple(f.parse(x) for x in cfg["lambdas"]))
    if rule == "group-negation":
        return ca.GroupNegation()
    if rule == "hom-derivation":
        return ca.GroupHomDerivation(_build_hom(carrier, cfg["hom"], path))
    if rule == "monomial-shift":
        coeff = f.parse(cfg["coeff"]) if "coeff" in cfg else None
        return ca.MonomialShift(int(cfg.get("offset", 0)), coeff)
    if rule == "table-map":
        return ca.TableMap([[f.parse(x) for x in row] for row in cfg["entries"]])
    if rule == "id-minus":
        return ca.IdMinus(_build_endo_rule(carrier, cfg["inner"], path))
    raise ConfigError(path, f"unknown endomorphism rule {rule!r}")


def _build_map(carrier, cfg: dict, path: str) -> Union[ca.Endomorphism, ca.Functional]:
    f = carrier.field
    rule = cfg["rule"]
    if rule in ("alternating-sign", "constant-one", "exponent-value",
                "hom-functional", "table-functional"):
        if rule == "alternating-sign":
            r = ca.AlternatingSign()
        elif rule == "constant-one":
            r = ca.ConstantOne()
        elif rule == "exponent-value":
            r = ca.ExponentValue(int(cfg.get("var", 0)))
        elif rule == "hom-functional":
            r = ca.GroupHomFunctional(_build_hom(carrier, cfg["hom"], path))
        else:
            r = ca.TableFunctional([f.parse(x) for x in cfg["values"]])
        return ca.Functional(carrier, r)
    return ca.Endomorphism(carrier, _build_endo_rule(carrier, cfg, path))


def _build_lie(field: Field, cfg, path: str) -> lifts.LieAlgebra:
    if cfg == "sl2":
        return lifts.sl2(field)
    if isinstance(cfg, dict) and "gl" in cfg:
        return lifts.general_linear(field, int(cfg["gl"]))
    raise ConfigError(path, f"unknown Lie algebra {cfg!r}")


def _build_bracket(ctx: BuildContext, cfg: dict):
    form = cfg["form"]
    field = ctx.field
    path = "$.bracket"
    try:
        if form == "gamma":
            if field.kind != "gaussian-rationals":
                raise ConfigError(path, "the gamma algebra lives over Q(i)")
            ctx.algebra = lifts.gamma_algebra()
            return
        if form == "lie-lift":
            lie = _build_lie(field, cfg["lie"], path)
            func = cfg.get("functional", "trace")
            if func == "trace":
                import math

                m = math.isqrt(lie.dim)
                vals = lifts.trace_functional(field, m)
            else:
                vals = [field.parse(v) for v in func]
            ctx.algebra = lifts.lie_lift(lie, vals, name=ctx.doc["name"])
            return
        if form == "metric-extension":
            lie = _build_lie(field, cfg["lie"], path)
            fm = cfg.get("form_matrix", "killing")
            B = lifts.killing_form(lie) if fm == "killing" else [
                [field.parse(x) for x in row] for row in fm
            ]
            ctx.algebra = lifts.metric_extension(lie, B, name=ctx.doc["name"])
            return

        carrier = ctx.carrier
        if form == "determinant":
            rows = []
            for row in cfg["rows"]:
                if row == "id":
                    rows.append("id")
                elif "endo" in row:
                    rows.append(ctx.maps[row["endo"]])
                elif "functional" in row:
                    rows.append(ctx.maps[row["functional"]])
                else:
                    raise ConfigError(path, f"bad determinant row {row!r}")
            ctx.bracket = br.DeterminantBracket(carrier, rows)
        elif form == "group-wedge":
            ctx.hom = _build_hom(carrier, cfg["hom"], path)
            ctx.bracket = br.GroupWedgeBracket(ctx.hom)
        elif form == "laurent-flip":
            lams = [field.parse(x) for x in cfg["lambdas"]]
            ctx.bracket = br.LaurentFlipBracket(carrier, lams, int(cfg.get("var", 0)))
        elif form == "laurent-parity":
            ctx.bracket = br.LaurentParityBracket(carrier, int(cfg.get("shift", 0)))
        elif form == "quotient-parity":
            ctx.bracket = br.QuotientParityBracket(carrier)
        elif form == "monomial-parity":
            shift = int(cfg.get("shift", -1))
            ctx.bracket = br.MonomialBracket(
                carrier, br.parity_determinant_coefficient(field), (shift,))
        else:
            raise ConfigError(path, f"unknown bracket form {form!r}")
    except (ca.HypothesisViolation, ValueError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(path, str(e)) from None


def build_context(doc: dict) -> BuildContext:
    ctx = BuildContext(doc, field_from_descriptor(doc["field"]))
    if "carrier" in doc:
        try:
            ctx.carrier = _build_carrier(ctx.field, doc["carrier"])
        except (ca.HypothesisViolation, ValueError) as e:
            raise ConfigError("$.carrier", str(e)) from None
    for name, cfg in doc.get("maps", {}).items():
        try:
            ctx.maps[name] = _build_map(ctx.carrier, cfg, f"$.maps.{name}")
        except (ca.HypothesisViolation, ValueError) as e:
            if isinstance(e, ConfigError):
                raise
            raise ConfigError(f"$.maps.{name}", str(e)) from None
    if "bracket" in doc:
        _build_bracket(ctx, doc["bracket"])

    basis_cfg = doc.get("basis")
    if ctx.algebra is not None:
        ctx.basis = list(range(ctx.algebra.dim))
    elif basis_cfg is not None:
        kind = basis_cfg["kind"]
        if kind == "carrier":
            if ctx.carrier.dim() is None:
                raise ConfigError("$.basis", "carrier basis requires a finite carrier")
            ctx.basis = ctx.carrier.basis_indices()
        elif kind == "window":
            ctx.basis = ctx.carrier.window(int(basis_cfg["bound"]))
        else:
            try:
                ctx.basis = [ctx.carrier.parse_index(t) for t in basis_cfg["indices"]]
            except ValueError as e:
                raise ConfigError("$.basis.indices", str(e)) from None
        if basis_cfg.get("tabulate", True) and ctx.bracket is not None:
            out = br.tabulate(ctx.bracket, ctx.basis, name=doc["name"])
            if isinstance(out, br.ClosureFailure):
                ctx.closure_failure = out
            else:
                ctx.algebra = out

    if ctx.algebra is not None and "mutations" in doc.get("bracket", {}):
        f = ctx.field
        for mut in doc["bracket"]["mutations"]:
            ctx.algebra = ctx.algebra.mutate_constant(
                tuple(mut["args"]), int(mut["out"]), f.parse(mut["add"]))

    # campaigns that need structure constants must be buildable
    for k, camp in enumerate(doc["campaigns"]):
        if camp["check"] in ALGEBRA_CHECKS and ctx.algebra is None:
            why = (str(ctx.closure_failure) if ctx.closure_failure
                   else "no finite tabulated basis")
            raise ConfigError(f"$.campaigns[{k}]",
                              f"check {camp['check']!r} needs structure constants: {why}")
    return ctx


# ---------------------------------------------------------------------------
# witness rendering
# ---------------------------------------------------------------------------

def _subspace_summary(s: Optional[Subspace], labels=None, limit: int = 5) -> Optional[dict]:
    if s is None:
        return None
    f = s.field
    rows = []
    for row in s.basis[:limit]:
        terms = []
        for j, c in enumerate(row):
            if not f.is_zero(c):
                name = labels[j] if labels else f"x{j}"
                terms.append(f"{f.render(c)}*{name}")
        rows.append(" + ".join(terms))
    out = {"dim": s.dim, "ambient": s.ambient, "basis_head": rows}
    if s.dim > limit:
        out["basis_truncated"] = True
    return out


def _report_verdict(rep) -> str:
    return "pass" if rep.passed else "fail"


# ---------------------------------------------------------------------------
# campaign dispatch
# ---------------------------------------------------------------------------

def _window(ctx: BuildContext, camp: dict, default_bound: int = 3) -> list:
    if "bound" in camp:
        return ctx.carrier.window(int(camp["bound"]))
    if ctx.basis is not None and ctx.algebra is None:
        return ctx.basis
    return ctx.carrier.window(default_bound)


def run_campaign(ctx: BuildContext, camp: dict, seed: int = 0,
                 budget_override: Optional[int] = None,
                 workers: int = 0) -> CampaignResult:
    name, check = camp["name"], camp["check"]
    t0 = time.monotonic()

    def done(verdict, counts=None, witness=None, camp_seed=None, notes=None):
        return CampaignResult(name, check, verdict, counts or {}, witness,
                              camp_seed, round(time.monotonic() - t0, 6),
                              notes or {})

    if check == "skew":
        rep = st.verify_skew(ctx.algebra)
        return done(_report_verdict(rep), {"checked": rep.checked}, rep.witness)

    if check == "alternating":
        rep = br.check_alternating(ctx.bracket, _window(ctx, camp), seed=seed)
        return done(_report_verdict(rep), {"checked": rep.checked},
                    rep.first_witness(), camp_seed=seed)

    if check == "trilinear":
        rep = br.check_trilinear(ctx.bracket, _window(ctx, camp), seed=seed)
        return done(_report_verdict(rep), {"checked": rep.checked},
                    rep.first_witness(), camp_seed=seed)

    if check == "fundamental-identity":
        mode = camp.get("mode", "exhaustive")
        if ctx.algebra is not None:
            rep = st.verify_fundamental_identity(
                ctx.algebra, mode=mode, samples=int(camp.get("samples", 1000)),
                seed=seed, workers=workers)
            return done(_report_verdict(rep),
                        {"checked": rep.checked, "covered": rep.covered},
                        rep.witness, camp_seed=rep.seed)
        window = ctx.basis if ctx.basis is not None else _window(ctx, camp)
        rep = br.check_fi_window(ctx.bracket, window, mode=mode,
                                 samples=int(camp.get("samples", 500)), seed=seed)
        return done(_report_verdict(rep),
                    {"checked": rep.checked, "covered": rep.notes.get("covered", 0)},
                    rep.first_witness(), camp_seed=seed)

    if check == "simplicity":
        budget = budget_override or camp.get("budget", st.DEFAULT_LINE_BUDGET)
        expect = camp.get("expect", "simple")
        try:
            cert = st.certify_simplicity(ctx.algebra, budget=int(budget), seed=seed)
        except st.BudgetExceeded as e:
            return done("refused", {"required": e.required, "budget": e.budget},
                        notes={"reason": str(e)})
        verdict = "pass" if cert.verdict == expect else "fail"
        return done(verdict, {"lines_checked": cert.lines_checked},
                    _subspace_summary(cert.witness, ctx.algebra.labels),
                    camp_seed=cert.seed,
                    notes={"certificate": cert.verdict, "method": cert.method,
                           "expected": expect, **cert.notes})

    if check == "kernel-ideal":
        return _run_kernel_ideal(ctx, camp, name, check, seed, t0)

    if check in ("derived-series", "lower-central-series"):
        rep = (st.derived_series(ctx.algebra) if check == "derived-series"
               else st.lower_central_series(ctx.algebra))
        expect = camp.get("expect")
        ok = True
        if expect == "vanishes":
            ok = rep.vanished
            if ok and "at_step" in camp:
                ok = len(rep.terms) - 1 == int(camp["at_step"])
        elif expect == "stabilizes-full":
            ok = rep.stabilized and rep.dims[-1] == ctx.algebra.dim
        return done("pass" if ok else "fail", {"steps": len(rep.terms) - 1},
                    notes={"dims": rep.dims, "vanished": rep.vanished,
                           "stabilized": rep.stabilized, "expected": expect})

    if check == "anticommute":
        rep = ca.check_anticommute(ctx.maps[camp["omega"]], ctx.maps[camp["delta"]],
                                   _window(ctx, camp, 8))
        return done(_report_verdict(rep), {"checked": rep.checked}, rep.first_witness())

    if check == "derivation-law":
        rep = ca.check_derivation(ctx.maps[camp["map"]], _window(ctx, camp))
        return done(_report_verdict(rep), {"checked": rep.checked}, rep.first_witness())

    if check == "involution-law":
        rep = ca.check_involution(ctx.maps[camp["map"]], _window(ctx, camp))
        return done(_report_verdict(rep), {"checked": rep.checked}, rep.first_witness())

    if check == "functional-conditions":
        def get(key):
            return ctx.maps[camp[key]] if key in camp else None

        rep = ca.check_functional_bracket_conditions(
            get("alpha"), get("beta"), get("gamma"), get("delta"), get("omega"),
            _window(ctx, camp))
        return done(_report_verdict(rep), {"checked": rep.checked},
                    rep.first_witness(),
                    notes={k: sub.passed for k, sub in rep.details.items()})

    if check == "closed-vs-determinant":
        rows = []
        for row in camp["rows"]:
            rows.append("id" if row == "id" else ctx.maps[row])
        oracle = br.DeterminantBracket(ctx.carrier, rows)
        rep = br.check_agreement(ctx.bracket, oracle, _window(ctx, camp))
        return done(_report_verdict(rep), {"checked": rep.checked}, rep.first_witness())

    if check == "homomorphism":
        sigma = _build_map(ctx.carrier, camp["map"], "$.campaigns.map")
        tgt_ctx = BuildContext(ctx.doc, ctx.field, carrier=ctx.carrier, maps=ctx.maps)
        _build_bracket(tgt_ctx, camp["target"])
        window = _window(ctx, camp, 5)
        intertwine = []
        for entry in camp.get("intertwine", []):
            intertwine.append((
                entry["name"],
                _build_map(ctx.carrier, entry["source"], "$.campaigns.intertwine"),
                _build_map(ctx.carrier, entry["target"], "$.campaigns.intertwine"),
            ))
        exclude = [ctx.carrier.unit_index()] if camp.get("exclude_unit") else []
        rep = br.check_homomorphism(
            sigma, ctx.bracket, tgt_ctx.bracket, window, intertwine=intertwine,
            require_invertible=bool(camp.get("require_invertible", False)),
            exclude_indices=exclude)
        return done(_report_verdict(rep), {"checked": rep.checked},
                    rep.first_witness(), notes=rep.notes)

    if check == "grading":
        bound = int(camp.get("bound", 4))
        A = ctx.carrier
        plus = [A.one()] + [A.monomial((i,)) + A.monomial((-i,)) for i in range(1, bound + 1)]
        minus = [A.monomial((i,)) - A.monomial((-i,)) for i in range(1, bound + 1)]
        delta = ctx.maps[camp["delta"]] if "delta" in camp else None
        rep = br.check_grading(ctx.bracket, delta, plus, minus, A.window(bound))
        return done(_report_verdict(rep), {"checked": rep.checked},
                    rep.first_witness(), notes=rep.notes)

    if check == "ideal-divisibility":
        A = ctx.carrier
        f = ctx.field
        p = f.characteristic
        if p <= 2:
            raise ConfigError("$.campaigns", "ideal divisibility needs ch F = p > 2")
        sign = f.one if camp.get("sign", "+") == "+" else f.neg(f.one)
        gen = A.monomial((p,)) + A.monomial((-p,), sign)
        rep = br.check_principal_ideal_membership(
            ctx.bracket, gen, range(-int(camp.get("cofactor_bound", 2)),
                                    int(camp.get("cofactor_bound", 2)) + 1),
            int(camp.get("argument_bound", 3)))
        return done(_report_verdict(rep), {"checked": rep.checked}, rep.first_witness())

    if check == "parity-vanishing":
        rep = br.check_parity_family_vanishing(ctx.field, int(camp.get("bound", 8)))
        return done(_report_verdict(rep), {"checked": rep.checked}, rep.first_witness())

    if check == "reachability":
        rep = br.laurent_reachability(ctx.field, int(camp.get("bound", 4)))
        return done(_report_verdict(rep), {"checked": rep.checked}, rep.first_witness())

    if check == "monomial-parity-agreement":
        shift = int(camp.get("shift", 0))
        mono = br.MonomialBracket(ctx.carrier,
                                  br.parity_determinant_coefficient(ctx.field),
                                  (shift - 1,))
        parity = br.LaurentParityBracket(ctx.carrier, shift=shift)
        rep = br.check_agreement(mono, parity, _window(ctx, camp, 6))
        return done(_report_verdict(rep), {"checked": rep.checked}, rep.first_witness())

    if check == "involution-antisymmetry":
        rep = br.check_involution_antisymmetry(ctx.bracket, ctx.maps[camp["omega"]],
                                               _window(ctx, camp))
        return done(_report_verdict(rep), {"checked": rep.checked}, rep.first_witness())

    if check == "witt":
        rep = ca.check_witt_relation(ctx.carrier, int(camp.get("bound", 3)))
        return done(_report_verdict(rep), {"checked": rep.checked}, rep.first_witness())

    raise ConfigError("$.campaigns", f"unknown check {check!r}")


def _run_kernel_ideal(ctx: BuildContext, camp: dict, name: str, check: str,
                      seed: int, t0: float) -> CampaignResult:
    """Kernel of the hom functional: ideal, codimension 1, contains the
    derived algebra; certification path depends on the dimension."""
    if ctx.hom is None:
        raise ConfigError("$.campaigns", "kernel-ideal needs a group-wedge bracket")
    G = ctx.carrier
    f = ctx.field
    dim = G.dim()
    notes: Dict[str, object] = {}

    def done(verdict, counts, witness=None):
        return CampaignResult(name, check, verdict, counts, witness, seed,
                              round(time.monotonic() - t0, 6), notes)

    if dim is not None and dim <= KERNEL_TABULATION_LIMIT and ctx.algebra is not None:
        L = ctx.algebra
        values = [ctx.hom(g) for g in G.basis_indices()]
        ker = kernel_of_functional(f, values)
        checks = {
            "codim_one": ker.codim == 1,
            "is_ideal": st.is_ideal(L, ker),
            "is_maximal": st.is_maximal_codim1(L, ker),
            "contains_derived": ker.contains_subspace(st.derived_algebra(L)),
        }
        cert = st.certify_simplicity(L, seed=seed)
        checks["certified_non_simple"] = cert.verdict == "non-simple"
        checks["witness_is_kernel"] = cert.witness == ker
        notes.update(checks)
        notes["method"] = cert.method
        ok = all(checks.values())
        return done("pass" if ok else "fail",
                    {"kernel_dim": ker.dim, "lines_checked": cert.lines_checked},
                    _subspace_summary(ker, L.labels))

    cert, rep = br.group_kernel_certificate(ctx.hom, seed=seed)
    notes["method"] = cert.method
    notes.update({k: v for k, v in rep.notes.items()})
    ok = cert.verdict == "non-simple" and rep.passed
    return done("pass" if ok else "fail", {"checked": rep.checked},
                _subspace_summary(cert.witness))


# ---------------------------------------------------------------------------
# document runner
# ---------------------------------------------------------------------------

def run_document(ctx: BuildContext, seed: int = 0, budget: Optional[int] = None,
                 workers: int = 0) -> List[CampaignResult]:
    """Run every campaign of a built document."""
    return [run_campaign(ctx, camp, seed=seed, budget_override=budget,
                         workers=workers)
            for camp in ctx.doc["campaigns"]]


def overall_verdict(results: Sequence[CampaignResult]) -> str:
    if any(r.verdict == "fail" for r in results):
        return "any-fail"
    if any(r.verdict == "refused" for r in results):
        return "refused"
    return "all-pass"


def report_document(doc: dict, results: Sequence[CampaignResult], seed: int) -> dict:
    counts = {"pass": 0, "fail": 0, "refused": 0}
    for r in results:
        counts[r.verdict] += 1
    return {
        "format": "trilie-report",
        "version": 1,
        "document": doc["name"],
        "seed": seed,
        "campaigns": [r.to_dict() for r in results],
        "summary": counts,
        "verdict": overall_verdict(results),
    }
