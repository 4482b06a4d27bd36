"""Algebra definition documents: a versioned JSON format describing a field,
a carrier, named maps, a bracket, a basis and a list of verification
campaigns.

`parse_document` validates structurally (unknown names, unresolved
references, bad window bounds, FI modes and sample counts) and then builds
every object once, so that mathematical hypothesis violations (zero flip
scale, characteristic 2, a quotient parameter that is not an odd prime)
surface at parse time with the offending document path.  It hands back the
build context (the document is its `.doc`), which the command line then
verifies or exports without building again.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

DOCUMENT_VERSION = 1

KNOWN_CARRIERS = {"laurent", "group", "quotient-laurent", "poly-truncated"}
KNOWN_ENDO_RULES = {
    "identity", "monomial-scale", "laurent-derivation",
    "variable-scaling-derivation", "laurent-flip", "group-negation",
    "hom-derivation", "monomial-shift", "table-map", "id-minus",
}
KNOWN_FUNCTIONAL_RULES = {
    "alternating-sign", "constant-one", "exponent-value", "hom-functional",
    "table-functional",
}
KNOWN_BRACKETS = {
    "determinant", "group-wedge", "laurent-flip", "laurent-parity",
    "quotient-parity", "monomial-parity", "gamma", "metric-extension",
    "lie-lift",
}
ALGEBRA_ONLY_BRACKETS = {"gamma", "metric-extension", "lie-lift"}
KNOWN_CHECKS = {
    "skew", "alternating", "trilinear", "fundamental-identity", "simplicity",
    "kernel-ideal", "derived-series", "lower-central-series", "anticommute",
    "derivation-law", "involution-law", "functional-conditions",
    "closed-vs-determinant", "homomorphism", "grading", "ideal-divisibility",
    "parity-vanishing", "reachability", "monomial-parity-agreement",
    "involution-antisymmetry", "witt",
}
FI_MODES = {"exhaustive", "sampled"}
# checks that need tabulated structure constants
ALGEBRA_CHECKS = {"skew", "simplicity", "derived-series", "lower-central-series"}


class ConfigError(ValueError):
    """Validation diagnostic carrying the offending document path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(path, message)


def _require_keys(obj: dict, path: str, required: List[str]):
    for key in required:
        _require(key in obj, path, f"missing required field {key!r}")


def validate_document(doc: Any) -> Dict:
    """Structural validation; returns the document unchanged."""
    _require(isinstance(doc, dict), "$", "document must be a JSON object")
    _require_keys(doc, "$", ["version", "name", "field", "campaigns"])
    _require(doc["version"] == DOCUMENT_VERSION, "$.version",
             f"unsupported version {doc['version']!r} (expected {DOCUMENT_VERSION})")
    _require(isinstance(doc["name"], str) and doc["name"], "$.name",
             "name must be a nonempty string")

    field = doc["field"]
    _require(isinstance(field, dict) and "kind" in field, "$.field",
             "field needs a 'kind'")
    _require(field["kind"] in {"rationals", "gaussian-rationals", "prime"},
             "$.field.kind", f"unknown field kind {field.get('kind')!r}")
    if field["kind"] == "prime":
        _require(isinstance(field.get("p"), int), "$.field.p",
                 "prime field needs an integer modulus")

    bracket = doc.get("bracket")
    if bracket is not None:
        _require(isinstance(bracket, dict) and "form" in bracket, "$.bracket",
                 "bracket needs a 'form'")
        _require(bracket["form"] in KNOWN_BRACKETS, "$.bracket.form",
                 f"unknown bracket form {bracket['form']!r}")
        if bracket["form"] in ALGEBRA_ONLY_BRACKETS:
            _require("carrier" not in doc, "$.carrier",
                     f"bracket form {bracket['form']!r} builds its own algebra; "
                     "remove the carrier")
        else:
            _require("carrier" in doc, "$.carrier",
                     f"bracket form {bracket['form']!r} needs a carrier")

    carrier = doc.get("carrier")
    if carrier is not None:
        _require(isinstance(carrier, dict) and carrier.get("shape") in KNOWN_CARRIERS,
                 "$.carrier.shape", f"unknown carrier shape {carrier.get('shape')!r}")

    maps = doc.get("maps", {})
    _require(isinstance(maps, dict), "$.maps", "maps must be an object")
    for name, rule in maps.items():
        path = f"$.maps.{name}"
        _require(isinstance(rule, dict) and "rule" in rule, path, "map needs a 'rule'")
        _require(rule["rule"] in KNOWN_ENDO_RULES | KNOWN_FUNCTIONAL_RULES, path,
                 f"unknown rule {rule['rule']!r}")

    basis = doc.get("basis")
    if basis is not None:
        kind = basis.get("kind")
        _require(kind in {"carrier", "window", "explicit"}, "$.basis.kind",
                 f"unknown basis kind {kind!r}")
        if kind == "window":
            _require(isinstance(basis.get("bound"), int) and basis["bound"] >= 0,
                     "$.basis.bound", "window basis needs a finite integer bound")
        if kind == "explicit":
            _require(isinstance(basis.get("indices"), list) and basis["indices"],
                     "$.basis.indices", "explicit basis needs an index list")

    campaigns = doc["campaigns"]
    _require(isinstance(campaigns, list) and campaigns, "$.campaigns",
             "at least one campaign is required")
    seen = set()
    for k, camp in enumerate(campaigns):
        path = f"$.campaigns[{k}]"
        _require(isinstance(camp, dict), path, "campaign must be an object")
        _require_keys(camp, path, ["name", "check"])
        _require(camp["check"] in KNOWN_CHECKS, f"{path}.check",
                 f"unknown check {camp['check']!r}")
        _require(camp["name"] not in seen, f"{path}.name",
                 f"duplicate campaign name {camp['name']!r}")
        seen.add(camp["name"])
        for key in ("bound", "samples", "budget", "cofactor_bound", "argument_bound",
                    "shift", "at_step"):
            if key in camp:
                _require(isinstance(camp[key], int), f"{path}.{key}",
                         f"{key} must be an integer")
        if "samples" in camp:
            _require(camp["samples"] > 0, f"{path}.samples",
                     "samples must be positive")
        if camp["check"] == "fundamental-identity":
            _require(camp.get("mode", "exhaustive") in FI_MODES, f"{path}.mode",
                     f"unknown mode {camp.get('mode')!r} (expected one of "
                     f"{', '.join(sorted(FI_MODES))})")
        for key in ("omega", "delta", "alpha", "beta", "gamma", "map"):
            if key in camp and isinstance(camp[key], str):
                _require(camp[key] in maps, f"{path}.{key}",
                         f"unresolved map reference {camp[key]!r}")
    return doc


def parse_document(text: str):
    """Parse, validate and build a document once; returns its `BuildContext`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"$ (line {e.lineno}, column {e.colno})", e.msg) from None
    validate_document(doc)
    from .campaigns import build_context  # deferred: campaigns imports this module

    return build_context(doc)


def render_document(doc: Dict) -> str:
    """Canonical text form: sorted keys, two-space indent, trailing newline.
    parse(render(doc)).doc == doc."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
