"""Build algebras from definition documents and run named verification
campaigns over them, producing deterministic machine-readable results.

Each document name is spelled once, in a table here: `CARRIERS`,
`ENDO_RULES`, `FUNCTIONAL_RULES`, `BRACKETS`, `BASES` and `CHECKS` (field
kinds in `fields.FIELD_KINDS`).  Validation, building and campaign dispatch
all look names up in them.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import brackets as br
from . import carriers as ca
from . import lifts
from . import structure as st
from .documents import ConfigError, known_name
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
    bracket: Optional[br.TriBracket] = None
    algebra: Optional[st.FiniteNLieAlgebra] = None
    basis: Optional[list] = None
    closure_failure: Optional[br.ClosureFailure] = None
    # campaign name -> its parameters as built for the runner
    campaign_args: Dict[str, dict] = dc_field(default_factory=dict)


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


def _built(path: str, build: Callable, *args):
    """`build(*args)`; what builders raise for a bad config (ValueError, a
    violated hypothesis included, KeyError, or TypeError for a field of the
    wrong JSON type) is reported at `path`."""
    try:
        return build(*args)
    except ValueError as e:
        raise ConfigError(path, str(e)) from None
    except KeyError as e:
        raise ConfigError(path, f"missing field or unknown name {e}") from None
    except TypeError as e:
        raise ConfigError(path, f"a field has the wrong type: {e}") from None


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

CARRIERS = {
    "laurent": lambda f, cfg: ca.LaurentAlgebra(f, int(cfg.get("vars", 1))),
    "group": lambda f, cfg: ca.GroupAlgebra(f, int(cfg.get("free", 0)),
                                             [int(m) for m in cfg.get("torsion", [])]),
    "quotient-laurent": lambda f, cfg: ca.QuotientLaurentAlgebra(f, int(cfg["p"])),
    "poly-truncated": lambda f, cfg: ca.truncated_polynomial_algebra(
        f, int(cfg["n"]), unital=bool(cfg.get("unital", True))),
}


def _build_hom(carrier, cfg: dict) -> ca.GroupHom:
    f = carrier.field
    return ca.GroupHom(
        carrier,
        free_values=[f.parse(v) for v in cfg.get("free", [])],
        torsion_values=[f.parse(v) for v in cfg.get("torsion", [])],
    )


def _on_carrier(ctx: "BuildContext", what: str, table: dict, name: str):
    """`table[name]` (a `Rule` or `Form`), if it is defined on the shape of
    the document's carrier."""
    entry = table[name]
    if entry.carriers and ctx.doc["carrier"]["shape"] not in entry.carriers:
        raise ValueError(f"{what} {name!r} needs a {' or '.join(entry.carriers)} carrier, "
                         f"not {ctx.doc['carrier']['shape']}")
    return entry


# build(ctx, cfg) returns the rule of a map, which checks its parameters
# against the carrier when the map is built; `carriers` names the carrier
# shapes the rule is defined on (empty: any shape)
Rule = namedtuple("Rule", "build carriers", defaults=((),))
# the shapes whose basis indices are exponents
_EXPONENTS = ("laurent", "quotient-laurent")


def _rule(ctx: "BuildContext", table: dict, cfg: dict) -> ca.MapRule:
    return _on_carrier(ctx, "map rule", table, cfg["rule"]).build(ctx, cfg)


ENDO_RULES = {
    "identity": Rule(lambda ctx, cfg: ca.IdentityRule()),
    "monomial-scale": Rule(lambda ctx, cfg: ca.MonomialScale(ctx.field.parse(cfg["base"])),
                           _EXPONENTS),
    "laurent-derivation": Rule(lambda ctx, cfg: ca.LaurentDerivation(int(cfg.get("power", 1))),
                               _EXPONENTS),
    "variable-scaling-derivation": Rule(
        lambda ctx, cfg: ca.VariableScalingDerivation(int(cfg.get("var", 0))), ("laurent",)),
    "laurent-flip": Rule(
        lambda ctx, cfg: ca.LaurentFlip(tuple(ctx.field.parse(x) for x in cfg["lambdas"])),
        _EXPONENTS),
    "group-negation": Rule(lambda ctx, cfg: ca.GroupNegation(),
                           ("laurent", "group", "quotient-laurent")),
    "hom-derivation": Rule(
        lambda ctx, cfg: ca.GroupHomDerivation(_build_hom(ctx.carrier, cfg["hom"])), ("group",)),
    "monomial-shift": Rule(lambda ctx, cfg: ca.MonomialShift(
        int(cfg.get("offset", 0)), ctx.field.parse(cfg["coeff"]) if "coeff" in cfg else None),
        ("laurent",)),
    "table-map": Rule(lambda ctx, cfg: ca.TableMap(
        [[ctx.field.parse(x) for x in row] for row in cfg["entries"]]), ("poly-truncated",)),
    "id-minus": Rule(lambda ctx, cfg: ca.IdMinus(_rule(ctx, ENDO_RULES, cfg["inner"]))),
}
FUNCTIONAL_RULES = {
    "alternating-sign": Rule(lambda ctx, cfg: ca.AlternatingSign(), _EXPONENTS),
    "constant-one": Rule(lambda ctx, cfg: ca.ConstantOne()),
    "exponent-value": Rule(lambda ctx, cfg: ca.ExponentValue(int(cfg.get("var", 0))),
                           _EXPONENTS),
    "hom-functional": Rule(
        lambda ctx, cfg: ca.GroupHomFunctional(_build_hom(ctx.carrier, cfg["hom"])), ("group",)),
    "table-functional": Rule(
        lambda ctx, cfg: ca.TableFunctional([ctx.field.parse(x) for x in cfg["values"]]),
        ("poly-truncated",)),
}


def _build_map(ctx: "BuildContext", cfg: dict) -> Union[ca.Endomorphism, ca.Functional]:
    if cfg["rule"] in FUNCTIONAL_RULES:
        return ca.Functional(ctx.carrier, _rule(ctx, FUNCTIONAL_RULES, cfg))
    return ca.Endomorphism(ctx.carrier, _rule(ctx, ENDO_RULES, cfg))


# build(ctx, cfg) returns a bracket on the carrier, or the algebra if
# own_algebra; `carriers` names the carrier shapes the form is defined on
Form = namedtuple("Form", "build carriers own_algebra", defaults=((), False))


def _build_lie(field: Field, cfg) -> lifts.LieAlgebra:
    if cfg == "sl2":
        return lifts.sl2(field)
    if isinstance(cfg, dict) and "gl" in cfg:
        return lifts.general_linear(field, int(cfg["gl"]))
    raise ValueError(f"unknown Lie algebra {cfg!r}")


def _determinant(ctx: "BuildContext", rows) -> br.DeterminantBracket:
    """The determinant bracket with `rows`, each "id", a map name, or
    {"endo": name} or {"functional": name} naming a map of that kind."""
    def row_map(row):
        if row == "id":
            return row
        if known_name(ctx.maps, row):
            return ctx.maps[row]
        if isinstance(row, dict) and len(row) == 1:
            (key, name), = row.items()
            kind = {"endo": ca.Endomorphism, "functional": ca.Functional}.get(key)
            if kind and known_name(ctx.maps, name) and isinstance(ctx.maps[name], kind):
                return ctx.maps[name]
        raise ValueError(f"bad determinant row {row!r}")

    return br.DeterminantBracket(ctx.carrier, [row_map(r) for r in rows])


def _gamma(ctx: "BuildContext", cfg: dict) -> st.FiniteNLieAlgebra:
    if ctx.field.kind != "gaussian-rationals":
        raise ValueError("the gamma algebra lives over Q(i)")
    return lifts.gamma_algebra()


def _lie_lift(ctx: "BuildContext", cfg: dict) -> st.FiniteNLieAlgebra:
    lie = _build_lie(ctx.field, cfg["lie"])
    func = cfg.get("functional", "trace")
    vals = (lifts.trace_functional(ctx.field, math.isqrt(lie.dim)) if func == "trace"
            else [ctx.field.parse(v) for v in func])
    return lifts.lie_lift(lie, vals, name=ctx.doc["name"])


def _metric_extension(ctx: "BuildContext", cfg: dict) -> st.FiniteNLieAlgebra:
    lie = _build_lie(ctx.field, cfg["lie"])
    fm = cfg.get("form_matrix", "killing")
    B = (lifts.killing_form(lie) if fm == "killing"
         else [[ctx.field.parse(x) for x in row] for row in fm])
    return lifts.metric_extension(lie, B, name=ctx.doc["name"])


BRACKETS = {
    "determinant": Form(lambda ctx, cfg: _determinant(ctx, cfg["rows"])),
    "group-wedge": Form(lambda ctx, cfg: br.GroupWedgeBracket(_build_hom(ctx.carrier, cfg["hom"])),
                        ("group",)),
    "laurent-flip": Form(lambda ctx, cfg: br.LaurentFlipBracket(
        ctx.carrier, [ctx.field.parse(x) for x in cfg["lambdas"]], int(cfg.get("var", 0))),
        ("laurent",)),
    "laurent-parity": Form(lambda ctx, cfg: br.LaurentParityBracket(
        ctx.carrier, int(cfg.get("shift", 0))), ("laurent",)),
    "quotient-parity": Form(lambda ctx, cfg: br.QuotientParityBracket(ctx.carrier),
                            ("quotient-laurent",)),
    "monomial-parity": Form(lambda ctx, cfg: br.parity_bracket(
        ctx.carrier, (int(cfg.get("shift", -1)),)), ("laurent",)),
    "gamma": Form(_gamma, own_algebra=True),
    "metric-extension": Form(_metric_extension, own_algebra=True),
    "lie-lift": Form(_lie_lift, own_algebra=True),
}


def _build_bracket(ctx: "BuildContext", cfg: dict):
    return _on_carrier(ctx, "bracket form", BRACKETS, cfg["form"]).build(ctx, cfg)


# ---------------------------------------------------------------------------
# campaign checks: parameter kinds, build requirements and runners; each
# runner run(ctx, args, run) returns a check report or the result fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    """A kind of campaign parameter: `ok(value, maps)` accepts a document's
    value given its named maps; `build(ctx, value)` makes what the runner
    receives."""
    ok: Callable[[object, dict], bool]
    complaint: str
    build: Callable = lambda ctx, value: value

    def require(self, value, maps: dict, path: str):
        if not self.ok(value, maps):
            raise ConfigError(path, f"{self.complaint} {value!r}")


def _one_of(*values) -> Param:
    return Param(lambda v, maps: v in values, f"must be one of {', '.join(values)}, not")


INTEGER = Param(lambda v, maps: isinstance(v, int) and not isinstance(v, bool),
                "must be an integer, not")
POSITIVE = Param(lambda v, maps: INTEGER.ok(v, maps) and v > 0, "must be a positive integer, not")
FLAG = Param(lambda v, maps: isinstance(v, bool), "must be true or false, not")
MAP = Param(lambda v, maps: isinstance(v, str) and v in maps, "unresolved map reference",
            lambda ctx, v: ctx.maps[v])
ROWS = Param(lambda v, maps: isinstance(v, list) and all(r == "id" or MAP.ok(r, maps) for r in v),
             "rows are \"id\" or map names; unresolved map reference in", _determinant)


def _map_config_ok(v, maps, rules=(ENDO_RULES, FUNCTIONAL_RULES)) -> bool:
    """A map config names a rule of `rules`; an id-minus wraps an endomorphism's."""
    return (isinstance(v, dict) and any(known_name(t, v.get("rule")) for t in rules)
            and (v["rule"] != "id-minus" or _map_config_ok(v.get("inner"), maps, (ENDO_RULES,))))


def _map_of(kind: str, rules: dict) -> Param:
    """A reference to a named map built by one of `rules`."""
    return Param(lambda v, maps: MAP.ok(v, maps) and maps[v]["rule"] in rules,
                 f"must name {kind}; unresolved map reference or another kind of map:",
                 MAP.build)


ENDO = _map_of("an endomorphism", ENDO_RULES)
FUNCTIONAL = _map_of("a functional", FUNCTIONAL_RULES)
MAP_CONFIG = Param(_map_config_ok, "unknown or missing map rule in", _build_map)
ENDO_CONFIG = Param(lambda v, maps: _map_config_ok(v, maps, (ENDO_RULES,)),
                    "unknown or missing endomorphism rule in", _build_map)
TARGET_CONFIG = Param(
    lambda v, maps: (isinstance(v, dict) and known_name(BRACKETS, v.get("form"))
                     and not BRACKETS[v["form"]].own_algebra),
    "needs a bracket form on the carrier; unknown bracket form in",
    _build_bracket)
INTERTWINE = Param(
    lambda v, maps: isinstance(v, list) and all(
        isinstance(e, dict) and "name" in e and ENDO_CONFIG.ok(e.get("source"), maps)
        and ENDO_CONFIG.ok(e.get("target"), maps) for e in v),
    "must list {name, source, target} entries with known endomorphism rules, not",
    lambda ctx, v: [(e["name"], _build_map(ctx, e["source"]), _build_map(ctx, e["target"]))
                    for e in v])


# build requirements: need(ctx, camp) returns what the document lacks for the
# campaign `camp`, or None

def _structure_constants(ctx: "BuildContext", camp: dict) -> Optional[str]:
    why = str(ctx.closure_failure) if ctx.closure_failure else "no finite tabulated basis"
    return None if ctx.algebra is not None else f"needs structure constants: {why}"


def _need(holds: Callable[["BuildContext", dict], bool], lack: str):
    return lambda ctx, camp: None if holds(ctx, camp) else lack


_BRACKET = _need(lambda ctx, camp: ctx.bracket is not None or ctx.algebra is not None,
                 "needs a bracket")
_CARRIER_BRACKET = _need(lambda ctx, camp: ctx.bracket is not None, "needs a bracket on a carrier")
_WEDGE_BRACKET = _need(lambda ctx, camp: getattr(ctx.bracket, "hom", None) is not None,
                       "needs the wedge bracket of a group hom")
_NONZERO_HOM = _need(lambda ctx, camp: not ctx.bracket.hom.is_zero(),
                     "needs a nonzero hom: its kernel is then a maximal ideal")
_LAURENT = _need(lambda ctx, camp: ca._one_variable_laurent(ctx.carrier),
                 "needs a one-variable Laurent carrier")
# the table or the basis is scanned where there is one
_BOUND_READ = _need(lambda ctx, camp: "bound" not in camp or ctx.basis is None,
                    "reads no bound: it scans the table or the basis")
_CHAR_NOT_TWO = _need(lambda ctx, camp: ctx.field.characteristic != 2, "needs ch F != 2")
_ODD_PRIME = _need(lambda ctx, camp: ctx.field.characteristic > 2, "needs ch F = p > 2")
# a functional condition is checked when all of its maps are given
_CONDITION = _need(lambda ctx, camp: "alpha" in camp or {"beta", "delta"} <= camp.keys()
                   or {"gamma", "delta", "omega"} <= camp.keys(),
                   "enables no condition: give alpha, beta with delta, "
                   "or gamma with delta and omega")


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


def _from_report(rep, **fields) -> dict:
    """Result fields (verdict, checked, witness, notes) of a check report.  A
    report that counted no case and found no failure is refused: a law
    checked on no case shows nothing."""
    out = {"verdict": "pass" if rep.passed else "fail", "counts": {"checked": rep.checked},
           "witness": rep.first_witness(), "notes": rep.notes, **fields}
    if rep.passed and not rep.checked:
        out["verdict"] = "refused"
        out["notes"] = {**out["notes"],
                        "reason": "no case of the law lies in the window: nothing was checked"}
    return out


# command-line settings shared by every campaign of one verify run
Run = namedtuple("Run", "seed budget")


@dataclass(frozen=True)
class Check:
    """A campaign check: its parameters (`required` ones must be given), its
    build requirements (each `need(ctx, camp)` returns what is lacking, or
    None) and runner."""
    run: Callable[[BuildContext, dict, Run], Union[dict, st.CheckReport]]
    params: Dict[str, Param] = dc_field(default_factory=dict)
    required: Tuple[str, ...] = ()
    needs: Tuple[Callable[[BuildContext, dict], Optional[str]], ...] = ()


def _window(ctx: BuildContext, args: dict, default_bound: int = 3) -> list:
    if "bound" in args:
        return ctx.carrier.window(args["bound"])
    if ctx.basis is not None and ctx.algebra is None:
        return ctx.basis
    return ctx.carrier.window(default_bound)


def _run_fundamental_identity(ctx: BuildContext, a: dict, run: Run) -> dict:
    mode = a.get("mode", "exhaustive")
    if ctx.algebra is not None:
        rep = st.verify_fundamental_identity(
            ctx.algebra, mode=mode, samples=a.get("samples", 1000), seed=run.seed)
        seed = run.seed if mode == "sampled" else None
    else:
        rep = br.check_fi_window(ctx.bracket, _window(ctx, a), mode=mode,
                                 samples=a.get("samples", 500), seed=run.seed)
        seed = run.seed
    return _from_report(rep, counts={"checked": rep.checked, "covered": rep.notes["covered"]},
                        seed=seed, notes={})


def _run_simplicity(ctx: BuildContext, a: dict, run: Run) -> dict:
    expect = a.get("expect", "simple")
    budget = a.get("budget", st.DEFAULT_LINE_BUDGET) if run.budget is None else run.budget
    try:
        cert = st.certify_simplicity(ctx.algebra, budget=budget, seed=run.seed)
    except st.BudgetExceeded as e:
        return {"verdict": "refused", "counts": {"required": e.required, "budget": e.budget},
                "notes": {"reason": str(e)}}
    return {"verdict": "pass" if cert.verdict == expect else "fail",
            "counts": {"lines_checked": cert.lines_checked},
            "witness": _subspace_summary(cert.witness, ctx.algebra.labels),
            "seed": cert.seed,
            "notes": {"certificate": cert.verdict, "method": cert.method,
                      "expected": expect, **cert.notes}}


def _run_kernel_ideal(ctx: BuildContext, a: dict, run: Run) -> dict:
    """Kernel of the hom functional: ideal, codimension 1, contains the
    derived algebra; certified on the table when its lines fit the line
    budget, else on the carrier by `group_kernel_certificate`."""
    G, hom, p = ctx.carrier, ctx.bracket.hom, ctx.field.characteristic
    dim = G.dim()
    budget = st.DEFAULT_LINE_BUDGET if run.budget is None else run.budget
    if (dim is not None and dim <= KERNEL_TABULATION_LIMIT and ctx.algebra is not None
            and (p == 0 or st._line_count(p, dim) <= budget)):
        L = ctx.algebra
        ker = kernel_of_functional(ctx.field, [hom(g) for g in G.basis_indices()])
        cert = st.certify_simplicity(L, budget=budget, seed=run.seed)
        checks = {
            "codim_one": ker.codim == 1,
            "is_ideal": st.is_ideal(L, ker),
            "is_maximal": st.is_maximal_codim1(L, ker),
            "contains_derived": ker.contains_subspace(st.derived_algebra(L)),
            "certified_non_simple": cert.verdict == "non-simple",
            "witness_is_kernel": cert.witness == ker,
        }
        return {"verdict": "pass" if all(checks.values()) else "fail",
                "counts": {"kernel_dim": ker.dim, "lines_checked": cert.lines_checked},
                "witness": _subspace_summary(ker, L.labels), "seed": run.seed,
                "notes": {**checks, "method": cert.method}}

    cert, rep = br.group_kernel_certificate(hom, seed=run.seed)
    ok = cert.verdict == "non-simple" and rep.passed
    return {"verdict": "pass" if ok else "fail", "counts": {"checked": rep.checked},
            "witness": _subspace_summary(cert.witness), "seed": run.seed,
            "notes": {"method": cert.method, **rep.notes}}


def _series_result(ctx: BuildContext, a: dict, rep: st.SeriesReport) -> dict:
    steps = len(rep.terms) - 1
    if a["expect"] == "vanishes":
        ok = rep.vanished and steps == a.get("at_step", steps)
    else:
        ok = rep.stabilized and rep.dims[-1] == ctx.algebra.dim
    return {"verdict": "pass" if ok else "fail", "counts": {"steps": steps},
            "notes": {"dims": rep.dims, "vanished": rep.vanished,
                      "stabilized": rep.stabilized, "expected": a["expect"]}}


def _run_functional_conditions(ctx: BuildContext, a: dict, run: Run) -> dict:
    rep = br.check_functional_bracket_conditions(
        *(a.get(k) for k in _FUNCTIONALS), _window(ctx, a))
    return _from_report(rep, notes={k: sub.passed for k, sub in rep.details.items()})


def _run_grading(ctx: BuildContext, a: dict, run: Run) -> st.CheckReport:
    bound = a.get("bound", 4)
    A = ctx.carrier
    plus = [A.one()] + [A.monomial((i,)) + A.monomial((-i,)) for i in range(1, bound + 1)]
    minus = [A.monomial((i,)) - A.monomial((-i,)) for i in range(1, bound + 1)]
    return br.check_grading(ctx.bracket, a.get("delta"), plus, minus)


def _run_parity_agreement(ctx: BuildContext, a: dict, run: Run) -> st.CheckReport:
    """The parity closed form against the determinant with rows
    (t^m -> (-1)^m t^m, id, t^shift d/dt)."""
    A, shift = ctx.carrier, a.get("shift", 0)
    det = br.DeterminantBracket(A, [ca.Endomorphism(A, ca.MonomialScale(ctx.field.embed(-1))),
                                    "id", ca.Endomorphism(A, ca.LaurentDerivation(shift))])
    return br.check_agreement(br.LaurentParityBracket(A, shift), det, _window(ctx, a, 6))


def _run_ideal_divisibility(ctx: BuildContext, a: dict, run: Run) -> st.CheckReport:
    A, f = ctx.carrier, ctx.field
    p = f.characteristic
    sign = f.one if a.get("sign", "+") == "+" else f.neg(f.one)
    gen = A.monomial((p,)) + A.monomial((-p,), sign)
    c = a.get("cofactor_bound", 2)
    return br.check_principal_ideal_membership(ctx.bracket, gen, range(-c, c + 1),
                                               a.get("argument_bound", 3))


_FUNCTIONALS = ("alpha", "beta", "gamma", "delta", "omega")
_SERIES = {"expect": _one_of("vanishes", "stabilizes-full"), "at_step": POSITIVE}

# runners look module functions up when they run, so that wrappers installed
# on the modules (the benchmark's tracer) see every call
CHECKS = {
    "skew": Check(lambda ctx, a, run: st.verify_skew(ctx.algebra),
                  needs=(_structure_constants,)),
    "alternating": Check(
        lambda ctx, a, run: _from_report(
            br.check_alternating(ctx.bracket, _window(ctx, a), seed=run.seed), seed=run.seed),
        {"bound": POSITIVE}, needs=(_CARRIER_BRACKET,)),
    "fundamental-identity": Check(
        _run_fundamental_identity,
        {"bound": POSITIVE, "mode": _one_of("exhaustive", "sampled"), "samples": POSITIVE},
        needs=(_BRACKET, _BOUND_READ)),
    "simplicity": Check(
        _run_simplicity,
        {"budget": POSITIVE, "expect": _one_of("simple", "non-simple", "evidence-only")},
        needs=(_structure_constants,)),
    "kernel-ideal": Check(_run_kernel_ideal, needs=(_WEDGE_BRACKET, _NONZERO_HOM)),
    "derived-series": Check(
        lambda ctx, a, run: _series_result(ctx, a, st.derived_series(ctx.algebra)),
        _SERIES, ("expect",), (_structure_constants,)),
    "lower-central-series": Check(
        lambda ctx, a, run: _series_result(ctx, a, st.lower_central_series(ctx.algebra)),
        _SERIES, ("expect",), (_structure_constants,)),
    "anticommute": Check(
        lambda ctx, a, run: br.check_anticommute(a["omega"], a["delta"], _window(ctx, a, 8)),
        {"omega": ENDO, "delta": ENDO, "bound": POSITIVE}, ("omega", "delta")),
    "derivation-law": Check(
        lambda ctx, a, run: br.check_derivation(a["map"], _window(ctx, a)),
        {"map": ENDO, "bound": POSITIVE}, ("map",)),
    "involution-law": Check(
        lambda ctx, a, run: br.check_involution(a["map"], _window(ctx, a)),
        {"map": ENDO, "bound": POSITIVE}, ("map",)),
    "functional-conditions": Check(
        _run_functional_conditions,
        {"alpha": FUNCTIONAL, "beta": FUNCTIONAL, "gamma": FUNCTIONAL, "delta": ENDO,
         "omega": ENDO, "bound": POSITIVE}, needs=(_CONDITION,)),
    "closed-vs-determinant": Check(
        lambda ctx, a, run: br.check_agreement(ctx.bracket, a["rows"], _window(ctx, a)),
        {"rows": ROWS, "bound": POSITIVE}, ("rows",), (_CARRIER_BRACKET,)),
    "homomorphism": Check(
        lambda ctx, a, run: br.check_homomorphism(
            a["map"], ctx.bracket, a["target"], _window(ctx, a, 5),
            intertwine=a.get("intertwine", []),
            require_invertible=a.get("require_invertible", False),
            exclude_indices=[ctx.carrier.unit_index()] if a.get("exclude_unit") else []),
        {"map": ENDO_CONFIG, "target": TARGET_CONFIG, "intertwine": INTERTWINE,
         "exclude_unit": FLAG, "require_invertible": FLAG, "bound": POSITIVE},
        ("map", "target"), (_CARRIER_BRACKET,)),
    "grading": Check(_run_grading, {"delta": ENDO, "bound": POSITIVE},
                     needs=(_CARRIER_BRACKET, _LAURENT, _CHAR_NOT_TWO)),
    "ideal-divisibility": Check(
        _run_ideal_divisibility,
        {"sign": _one_of("+", "-"), "cofactor_bound": POSITIVE, "argument_bound": POSITIVE},
        needs=(_CARRIER_BRACKET, _LAURENT, _ODD_PRIME)),
    "parity-vanishing": Check(
        lambda ctx, a, run: br.check_parity_family_vanishing(ctx.field, a.get("bound", 8)),
        {"bound": POSITIVE}),
    "reachability": Check(
        lambda ctx, a, run: br.laurent_reachability(ctx.field, a.get("bound", 4)),
        {"bound": POSITIVE}),
    "monomial-parity-agreement": Check(_run_parity_agreement,
                                       {"shift": INTEGER, "bound": POSITIVE},
                                       needs=(_LAURENT, _CHAR_NOT_TWO)),
    "involution-antisymmetry": Check(
        lambda ctx, a, run: br.check_involution_antisymmetry(
            ctx.bracket, a["omega"], _window(ctx, a)),
        {"omega": ENDO, "bound": POSITIVE}, ("omega",), (_CARRIER_BRACKET,)),
    "witt": Check(lambda ctx, a, run: br.check_witt_relation(ctx.carrier, a.get("bound", 3)),
                  {"bound": POSITIVE}, needs=(_LAURENT,)),
}


# ---------------------------------------------------------------------------
# building and running documents
# ---------------------------------------------------------------------------

def _parse_indices(carrier: ca.CarrierAlgebra, texts: List[str]) -> list:
    """The basis indices an explicit basis names, each once."""
    seen = {}
    for t in texts:
        i = carrier.parse_index(t)
        if i in seen:
            raise ValueError(f"{seen[i]!r} and {t!r} name the same basis element "
                             f"{carrier.index_str(i)}")
        seen[i] = t
    return list(seen)


def _carrier_basis(ctx: BuildContext, cfg: dict) -> list:
    if ctx.carrier.dim() is None:
        raise ConfigError("$.basis", "carrier basis requires a finite carrier")
    return ctx.carrier.basis_indices()


# build(ctx, cfg) returns the basis indices of a basis kind
BASES = {
    "carrier": _carrier_basis,
    "window": lambda ctx, cfg: ctx.carrier.window(int(cfg["bound"])),
    "explicit": lambda ctx, cfg: _built("$.basis.indices", _parse_indices, ctx.carrier,
                                        cfg["indices"]),
}


def _mutate(algebra: st.FiniteNLieAlgebra, mut: dict) -> st.FiniteNLieAlgebra:
    # checked here, not by the table: true and 1.0 hash like 1, so they would
    # silently name an entry that already exists
    args, out = mut["args"], mut["out"]
    if not (isinstance(args, list) and all(INTEGER.ok(a, None) for a in args)
            and INTEGER.ok(out, None)):
        raise ValueError(f"args must be a list of integers and out an integer, "
                         f"not {args!r} and {out!r}")
    return algebra.mutate_constant(tuple(args), out, algebra.field.parse(mut["add"]))


def build_context(doc: dict) -> BuildContext:
    ctx = BuildContext(doc, _built("$.field", field_from_descriptor, doc["field"]))
    if "carrier" in doc:
        ctx.carrier = _built("$.carrier", CARRIERS[doc["carrier"]["shape"]],
                             ctx.field, doc["carrier"])
    for name, cfg in doc.get("maps", {}).items():
        ctx.maps[name] = _built(f"$.maps.{name}", _build_map, ctx, cfg)
    if "bracket" in doc:
        built = _built("$.bracket", _build_bracket, ctx, doc["bracket"])
        if BRACKETS[doc["bracket"]["form"]].own_algebra:
            ctx.algebra = built
        else:
            ctx.bracket = built

    basis_cfg = doc.get("basis")
    if ctx.algebra is not None:
        ctx.basis = list(range(ctx.algebra.dim))
    elif basis_cfg is not None:
        ctx.basis = BASES[basis_cfg["kind"]](ctx, basis_cfg)
        if basis_cfg.get("tabulate", True) and ctx.bracket is not None:
            out = br.tabulate(ctx.bracket, ctx.basis, name=doc["name"])
            if isinstance(out, br.ClosureFailure):
                ctx.closure_failure = out
            else:
                ctx.algebra = out

    mutations = doc.get("bracket", {}).get("mutations", [])
    if mutations and ctx.algebra is None:
        raise ConfigError("$.bracket.mutations", f"a mutation {_structure_constants(ctx, {})}")
    for k, mut in enumerate(mutations):
        ctx.algebra = _built(f"$.bracket.mutations[{k}]", _mutate, ctx.algebra, mut)

    # every campaign's requirements hold and its parameters build, before any runs
    for k, camp in enumerate(doc["campaigns"]):
        path = f"$.campaigns[{k}]"
        check = CHECKS[camp["check"]]
        for lack in filter(None, (need(ctx, camp) for need in check.needs)):
            raise ConfigError(path, f"check {camp['check']!r} {lack}")
        ctx.campaign_args[camp["name"]] = {
            key: _built(f"{path}.{key}", check.params[key].build, ctx, value)
            for key, value in camp.items() if key in check.params}
    return ctx


def run_campaign(ctx: BuildContext, camp: dict, seed: int = 0,
                 budget_override: Optional[int] = None) -> CampaignResult:
    if budget_override is not None and budget_override <= 0:
        raise ConfigError("budget", f"must be a positive integer, not {budget_override!r}")
    t0 = time.monotonic()
    out = CHECKS[camp["check"]].run(ctx, ctx.campaign_args[camp["name"]],
                                    Run(seed, budget_override))
    if not isinstance(out, dict):
        out = _from_report(out)
    return CampaignResult(camp["name"], camp["check"],
                          duration_s=round(time.monotonic() - t0, 6), **out)


def run_document(ctx: BuildContext, seed: int = 0,
                 budget: Optional[int] = None) -> List[CampaignResult]:
    """Run every campaign of a built document."""
    return [run_campaign(ctx, camp, seed=seed, budget_override=budget)
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
