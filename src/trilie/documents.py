"""Algebra definition documents: a versioned JSON format describing a field,
a carrier, named maps, a bracket, a basis and a list of verification
campaigns.

Every field kind comes from `fields.FIELD_KINDS`, and every carrier shape,
map rule, bracket form, basis kind and check name, and each check's
parameters and build requirements, from the tables in `campaigns`
(`CARRIERS`, `ENDO_RULES`, `FUNCTIONAL_RULES`, `BRACKETS`, `BASES`,
`CHECKS`), the single source of names.  `parse_document` validates against
them and then builds every object once, so that violated hypotheses and
unmet campaign requirements surface at parse time with the offending
document path.  It returns the build context (the document is its `.doc`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .fields import FIELD_KINDS

DOCUMENT_VERSION = 1


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


def known_name(table: dict, name) -> bool:
    """Whether a document value is one of the names of a table."""
    return isinstance(name, str) and name in table


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
    _require(known_name(FIELD_KINDS, field["kind"]),
             "$.field.kind", f"unknown field kind {field.get('kind')!r}")
    if field["kind"] == "prime":
        _require(isinstance(field.get("p"), int), "$.field.p",
                 "prime field needs an integer modulus")

    # deferred: campaigns imports this module
    from .campaigns import BASES, BRACKETS, CARRIERS, CHECKS, MAP_CONFIG

    bracket = doc.get("bracket")
    if bracket is not None:
        _require(isinstance(bracket, dict) and "form" in bracket, "$.bracket",
                 "bracket needs a 'form'")
        _require(known_name(BRACKETS, bracket["form"]), "$.bracket.form",
                 f"unknown bracket form {bracket['form']!r}")
        _require(isinstance(bracket.get("mutations", []), list), "$.bracket.mutations",
                 "mutations must be a list")
        if BRACKETS[bracket["form"]].own_algebra:
            _require("carrier" not in doc, "$.carrier",
                     f"bracket form {bracket['form']!r} builds its own algebra; "
                     "remove the carrier")
        else:
            _require("carrier" in doc, "$.carrier",
                     f"bracket form {bracket['form']!r} needs a carrier")

    carrier = doc.get("carrier")
    if carrier is not None:
        _require(isinstance(carrier, dict) and known_name(CARRIERS, carrier.get("shape")),
                 "$.carrier.shape", f"unknown carrier shape {carrier.get('shape')!r}")

    maps = doc.get("maps", {})
    _require(isinstance(maps, dict), "$.maps", "maps must be an object")
    _require(not maps or carrier is not None, "$.maps", "maps need a carrier")
    for name, cfg in maps.items():
        MAP_CONFIG.require(cfg, maps, f"$.maps.{name}")

    basis = doc.get("basis")
    if basis is not None:
        _require(isinstance(basis, dict), "$.basis", "basis must be an object")
        kind = basis.get("kind")
        _require(known_name(BASES, kind), "$.basis.kind",
                 f"unknown basis kind {kind!r}")
        if kind == "window":
            _require(isinstance(basis.get("bound"), int) and basis["bound"] >= 0,
                     "$.basis.bound", "window basis needs a finite integer bound")
        if kind == "explicit":
            indices = basis.get("indices")
            _require(isinstance(indices, list) and indices
                     and all(isinstance(t, str) for t in indices),
                     "$.basis.indices", "explicit basis needs a list of index strings")

    campaigns = doc["campaigns"]
    _require(isinstance(campaigns, list) and campaigns, "$.campaigns",
             "at least one campaign is required")
    seen = set()
    for k, camp in enumerate(campaigns):
        path = f"$.campaigns[{k}]"
        _require(isinstance(camp, dict), path, "campaign must be an object")
        _require_keys(camp, path, ["name", "check"])
        _require(known_name(CHECKS, camp["check"]), f"{path}.check",
                 f"unknown check {camp['check']!r}")
        _require(camp["name"] not in seen, f"{path}.name",
                 f"duplicate campaign name {camp['name']!r}")
        seen.add(camp["name"])
        check = CHECKS[camp["check"]]
        for key in check.required:
            _require(key in camp, f"{path}.{key}", f"missing required field {key!r}")
        for key, value in camp.items():
            if key not in ("name", "check"):
                _require(key in check.params, f"{path}.{key}",
                         f"check {camp['check']!r} takes no parameter {key!r}")
                check.params[key].require(value, maps, f"{path}.{key}")
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
