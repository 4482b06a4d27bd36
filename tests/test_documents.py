import copy
import itertools
import json

import pytest

from trilie.bundled import BUNDLED, bundled_names, get_bundled
from trilie.campaigns import CHECKS, ENDO_RULES, FUNCTIONAL_RULES
from trilie.cli import main
from trilie.documents import (
    ConfigError,
    parse_document,
    render_document,
    validate_document,
)


def minimal_quotient_doc(p=3):
    return {
        "version": 1,
        "name": "t",
        "description": "",
        "field": {"kind": "prime", "p": p},
        "carrier": {"shape": "quotient-laurent", "p": p},
        "maps": {},
        "bracket": {"form": "quotient-parity"},
        "basis": {"kind": "carrier"},
        "campaigns": [{"name": "fi", "check": "fundamental-identity"}],
        "meta": {"construction": "", "expect": "all-pass"},
    }


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", bundled_names())
def test_bundled_round_trip(name):
    doc = get_bundled(name)
    assert parse_document(render_document(doc)).doc == doc


def test_render_is_canonical():
    doc = get_bundled("laurent-quotient-p3")
    assert render_document(doc) == render_document(copy.deepcopy(doc))


def test_bundled_registry_copying():
    doc = get_bundled("cyclic-group-f3")
    doc["name"] = "clobbered"
    assert BUNDLED["cyclic-group-f3"]["name"] == "cyclic-group-f3"


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_zero_flip_scale_rejected_at_parse():
    doc = minimal_quotient_doc()
    doc["carrier"] = {"shape": "laurent"}
    doc["bracket"] = {"form": "laurent-flip", "lambdas": ["0"]}
    doc["basis"] = {"kind": "window", "bound": 2, "tabulate": False}
    with pytest.raises(ConfigError, match="lambda != 0"):
        parse_document(render_document(doc))


def test_quotient_p2_rejected_at_parse():
    doc = minimal_quotient_doc(p=2)
    with pytest.raises(ConfigError, match="p > 2"):
        parse_document(render_document(doc))


def test_char2_flip_rejected_at_parse():
    doc = minimal_quotient_doc()
    doc["field"] = {"kind": "prime", "p": 2}
    doc["carrier"] = {"shape": "laurent"}
    doc["bracket"] = {"form": "laurent-flip", "lambdas": ["1"]}
    doc["basis"] = {"kind": "window", "bound": 2, "tabulate": False}
    with pytest.raises(ConfigError, match="characteristic != 2"):
        parse_document(render_document(doc))


def test_unknown_bracket_form():
    doc = minimal_quotient_doc()
    doc["bracket"] = {"form": "mystery"}
    with pytest.raises(ConfigError, match="unknown bracket form"):
        validate_document(doc)


def test_unknown_check_name():
    doc = minimal_quotient_doc()
    doc["campaigns"] = [{"name": "x", "check": "mystery"}]
    with pytest.raises(ConfigError, match="unknown check"):
        validate_document(doc)


def test_trilinear_is_an_unknown_check(tmp_path, capsys):
    # the kind is gone: every bracket a document builds is trilinear by
    # construction, so the check could not fail
    doc = get_bundled("dirac-gamma")
    doc["campaigns"] = [{"name": "fi", "check": "fundamental-identity"},
                        {"name": "c", "check": "trilinear"}]
    file = tmp_path / "doc.json"
    file.write_text(render_document(doc))
    assert main(["verify", str(file), "--out-dir", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert "$.campaigns[1].check" in err and "unknown check 'trilinear'" in err
    assert not list(tmp_path.glob("*.report.json"))


def test_unresolved_map_reference():
    doc = minimal_quotient_doc()
    doc["campaigns"] = [{"name": "x", "check": "anticommute",
                         "omega": "ghost", "delta": "ghost"}]
    with pytest.raises(ConfigError, match="unresolved map reference"):
        validate_document(doc)


def test_window_bound_must_be_integer():
    doc = minimal_quotient_doc()
    doc["carrier"] = {"shape": "laurent"}
    doc["basis"] = {"kind": "window", "bound": "lots"}
    with pytest.raises(ConfigError, match="finite integer bound"):
        validate_document(doc)


def test_version_is_checked():
    doc = minimal_quotient_doc()
    doc["version"] = 99
    with pytest.raises(ConfigError, match="unsupported version"):
        validate_document(doc)


def test_json_syntax_error_carries_location():
    with pytest.raises(ConfigError, match="line"):
        parse_document("{not json")


def test_duplicate_campaign_names_rejected():
    doc = minimal_quotient_doc()
    doc["campaigns"] = [{"name": "fi", "check": "fundamental-identity"},
                        {"name": "fi", "check": "skew"}]
    with pytest.raises(ConfigError, match="duplicate campaign name"):
        validate_document(doc)


def test_algebra_only_bracket_refuses_carrier():
    doc = minimal_quotient_doc()
    doc["bracket"] = {"form": "gamma"}
    with pytest.raises(ConfigError, match="builds its own algebra"):
        validate_document(doc)


def test_structure_checks_need_tabulation():
    doc = minimal_quotient_doc()
    doc["carrier"] = {"shape": "laurent"}
    doc["bracket"] = {"form": "laurent-parity", "shift": 0}
    doc["basis"] = {"kind": "window", "bound": 2}   # tabulation escapes
    doc["campaigns"] = [{"name": "s", "check": "simplicity"}]
    with pytest.raises(ConfigError, match="needs structure constants"):
        parse_document(render_document(doc))


SIGN = {"sign": {"rule": "monomial-scale", "base": "-1"}}
ONE = {"one": {"rule": "constant-one"}}


def _campaign_case(check, path, maps=None, **params):
    return pytest.param({"name": "c", "check": check, **params}, maps or {}, path,
                        id=f"{check}-{path.rsplit('.', 1)[-1]}")


@pytest.mark.parametrize("campaign, maps, path", [
    _campaign_case("fundamental-identity", "$.campaigns[0].mode", mode="bogus"),
    _campaign_case("fundamental-identity", "$.campaigns[0].samples",
                   mode="sampled", samples=0),
    # each of these validated and then crashed at run time
    _campaign_case("closed-vs-determinant", "$.campaigns[0].rows", SIGN,
                   rows=["sign", "id", "nosuch"]),
    _campaign_case("anticommute", "$.campaigns[0].delta", SIGN, omega="sign"),
    _campaign_case("derivation-law", "$.campaigns[0].map"),
    _campaign_case("involution-antisymmetry", "$.campaigns[0].omega"),
    _campaign_case("alternating", "$.campaigns[0].bound", bound=-1),
    # each of these passed, or failed, without checking what it says
    _campaign_case("grading", "$.campaigns[0].bound", bound=0),
    _campaign_case("witt", "$.campaigns[0].bound", bound=-1),
    _campaign_case("derived-series", "$.campaigns[0].expect"),
    _campaign_case("lower-central-series", "$.campaigns[0].expect", expect="bogus"),
    _campaign_case("simplicity", "$.campaigns[0].expect", expect="bogus"),
    _campaign_case("alternating", "$.campaigns[0].bund", bund=3),
    # inline homomorphism configs go through the rule and form tables
    _campaign_case("homomorphism", "$.campaigns[0].target",
                   map={"rule": "identity"}, target={"form": "mystery"}),
    _campaign_case("homomorphism", "$.campaigns[0].map",
                   map={"rule": "mystery"}, target={"form": "quotient-parity"}),
    _campaign_case("homomorphism", "$.campaigns[0].intertwine",
                   map={"rule": "identity"}, target={"form": "quotient-parity"},
                   intertwine=[{"name": "x", "source": {"rule": "identity"}}]),
    pytest.param({"name": "c", "check": "homomorphism", "target": {"form": "quotient-parity"},
                  "map": {"rule": "id-minus", "inner": "identity"}}, {},
                 "$.campaigns[0].map", id="homomorphism-id-minus-inner-not-an-object"),
    # a map of the wrong kind crashed, or (a functional as delta) passed
    pytest.param({"name": "c", "check": "derivation-law", "map": "one"}, ONE,
                 "$.campaigns[0].map", id="derivation-law-of-a-functional"),
    pytest.param({"name": "c", "check": "functional-conditions", "alpha": "sign"}, SIGN,
                 "$.campaigns[0].alpha", id="functional-conditions-alpha-an-endomorphism"),
    pytest.param({"name": "c", "check": "functional-conditions", "beta": "one", "delta": "one"},
                 ONE, "$.campaigns[0].delta", id="functional-conditions-delta-a-functional"),
    pytest.param({"name": "c", "check": "homomorphism", "target": {"form": "quotient-parity"},
                  "map": {"rule": "constant-one"}}, {},
                 "$.campaigns[0].map", id="homomorphism-of-a-functional"),
])
def test_bad_campaigns_are_rejected(campaign, maps, path, tmp_path, capsys):
    doc = minimal_quotient_doc()
    doc["maps"] = maps
    doc["campaigns"] = [campaign]
    with pytest.raises(ConfigError) as info:
        validate_document(doc)
    assert info.value.path == path
    file = tmp_path / "doc.json"
    file.write_text(render_document(doc))
    assert main(["verify", str(file), "--out-dir", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err


def laurent_doc(field):
    doc = minimal_quotient_doc()
    doc["field"] = field
    doc["carrier"] = {"shape": "laurent"}
    doc["bracket"] = {"form": "laurent-parity", "shift": 0}
    doc["basis"] = {"kind": "window", "bound": 2, "tabulate": False}
    return doc


def _requirement_case(name, check, path="$.campaigns[1]", **params):
    return pytest.param(get_bundled(name), {"check": check, **params}, path,
                        id=f"{check}-on-{name}")


@pytest.mark.parametrize("doc, campaign, path", [
    pytest.param(minimal_quotient_doc(), {"check": "kernel-ideal"}, "$.campaigns[1]",
                 id="kernel-ideal-without-hom"),
    # the rows of the group-wedge form, but no hom to read off the bracket
    pytest.param(get_bundled("cyclic-group-f3") | {"bracket": {
        "form": "determinant", "rows": [{"endo": "neg"}, "id", {"endo": "alphastar"}]}},
                 {"check": "kernel-ideal"}, "$.campaigns[1]",
                 id="kernel-ideal-on-a-determinant-bracket"),
    # validated, then exited 1 within the line budget and 70 past it
    pytest.param(get_bundled("cyclic-group-f3") | {"bracket": {
        "form": "group-wedge", "hom": {"torsion": ["0"]}}},
                 {"check": "kernel-ideal"}, "$.campaigns[1]", id="kernel-ideal-with-a-zero-hom"),
    pytest.param(laurent_doc({"kind": "rationals"}), {"check": "ideal-divisibility"},
                 "$.campaigns[1]", id="ideal-divisibility-over-q"),
    pytest.param(laurent_doc({"kind": "rationals"}),
                 {"check": "homomorphism", "map": {"rule": "identity"},
                  "target": {"form": "laurent-flip", "lambdas": ["0"]}},
                 "$.campaigns[1].target", id="homomorphism-zero-flip-target"),
    # each of these validated and then crashed at run time
    _requirement_case("dirac-gamma", "alternating"),
    _requirement_case("dirac-gamma", "closed-vs-determinant", rows=["id", "id", "id"]),
    _requirement_case("laurent-quotient-p3", "witt"),
    _requirement_case("laurent-quotient-p3", "ideal-divisibility"),
    _requirement_case("cyclic-group-f3", "grading"),
    _requirement_case("poly-beta-bracket", "monomial-parity-agreement"),
    _requirement_case("laurent-flip-unit", "closed-vs-determinant", "$.campaigns[1].rows",
                      rows=["id"]),
    pytest.param(laurent_doc({"kind": "prime", "p": 2}) | {"bracket": {"form": "monomial-parity"}},
                 {"check": "grading"}, "$.campaigns[1]", id="grading-in-characteristic-2"),
    pytest.param(laurent_doc({"kind": "rationals"}) | {"bracket": None},
                 {"check": "reachability"}, "$.campaigns[0]", id="fundamental-identity-no-bracket"),
    # this one passed with checked=0
    _requirement_case("poly-beta-bracket", "functional-conditions", beta="beta"),
])
def test_campaign_requirements_fail_before_any_campaign_runs(doc, campaign, path, tmp_path,
                                                             capsys):
    doc = {k: v for k, v in doc.items() if v is not None}
    doc["campaigns"] = [{"name": "fi", "check": "fundamental-identity"},
                        {"name": "c", **campaign}]
    validate_document(doc)
    with pytest.raises(ConfigError) as info:
        parse_document(render_document(doc))
    assert info.value.path == path
    file = tmp_path / "doc.json"
    file.write_text(render_document(doc))
    assert main(["verify", str(file), "--out-dir", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.report.json"))


def _map_case(carrier, rule, name, path="$.maps.m"):
    """A document whose one campaign checks the map `m` on `carrier`."""
    camp = ({"check": "functional-conditions", "alpha": "m"} if rule["rule"] in FUNCTIONAL_RULES
            else {"check": "involution-law", "map": "m"})
    return pytest.param({"carrier": carrier, "bracket": None, "basis": None, "maps": {"m": rule},
                         "campaigns": [{"name": "c", **camp}]}, path, id=name)


LAURENT, POLY = {"shape": "laurent"}, {"shape": "poly-truncated", "n": 3}


def _explicit_case(indices, name, **patch):
    """The minimal quotient document, with `patch`, on an explicit basis."""
    return pytest.param({"basis": {"kind": "explicit", "indices": indices}, **patch},
                        "$.basis.indices", id=name)


def _mutation_case(mutation, name):
    """The minimal quotient document with one mutation of its table, like
    the bundled `control-mutated-quotient`."""
    return pytest.param({"bracket": {"form": "quotient-parity", "mutations": [mutation]}},
                        "$.bracket.mutations[0]", id=name)


@pytest.mark.parametrize("patch, path", [
    pytest.param({"carrier": {"shape": "quotient-laurent"}}, "$.carrier", id="carrier-without-p"),
    pytest.param({"maps": {"f": {"rule": "id-minus", "inner": {"rule": "mystery"}}}},
                 "$.maps.f", id="id-minus-unknown-inner-rule"),
    pytest.param({"maps": {"f": {"rule": "id-minus", "inner": "identity"}}},
                 "$.maps.f", id="id-minus-inner-not-an-object"),
    pytest.param({"bracket": {"form": "gamma"}, "carrier": None, "basis": None,
                  "maps": {"f": {"rule": "identity"}}}, "$.maps", id="maps-without-carrier"),
    pytest.param({"carrier": {"shape": "laurent"}}, "$.bracket",
                 id="bracket-form-on-a-carrier-of-the-wrong-shape"),
    pytest.param({"carrier": {"shape": "laurent"}, "bracket": {"form": "laurent-flip",
                                                                "lambdas": 3}},
                 "$.bracket", id="builder-field-of-the-wrong-type"),
    pytest.param({"carrier": {"shape": "laurent"},
                  "bracket": {"form": "laurent-parity", "shift": 0},
                  "basis": {"kind": "window", "bound": 2, "tabulate": False},
                  "campaigns": [{"name": "h", "check": "homomorphism", "map": {"rule": "identity"},
                                 "target": {"form": "quotient-parity"}}]},
                 "$.campaigns[0].target", id="target-form-on-a-carrier-of-the-wrong-shape"),
    pytest.param({"carrier": LAURENT, "bracket": {"form": "laurent-flip", "lambdas": ["1"],
                                                  "var": 1}},
                 "$.bracket", id="flip-bracket-variable-out-of-range"),
    # each of these exited 70 with a traceback
    _map_case(LAURENT, {"rule": "laurent-flip", "lambdas": ["0"]}, "zero-flip-scale"),
    _map_case(LAURENT, {"rule": "laurent-flip", "lambdas": ["1", "1"]}, "flip-scale-count"),
    _map_case(LAURENT, {"rule": "monomial-scale", "base": "0"}, "zero-monomial-scale-base"),
    _map_case(POLY, {"rule": "table-map", "entries": [["1", "0"], ["0", "1"]]},
              "table-map-of-the-wrong-size"),
    _map_case(POLY, {"rule": "table-functional", "values": ["1"]},
              "table-functional-of-the-wrong-size"),
    _map_case({"shape": "quotient-laurent", "p": 3}, {"rule": "monomial-shift"},
              "monomial-shift-on-quotient"),
    _map_case(POLY, {"rule": "monomial-shift"}, "monomial-shift-on-poly"),
    _map_case(POLY, {"rule": "laurent-derivation"}, "laurent-derivation-on-poly"),
    _map_case({"shape": "laurent", "vars": 2}, {"rule": "laurent-derivation"},
              "laurent-derivation-on-two-variables"),
    _map_case(LAURENT, {"rule": "variable-scaling-derivation", "var": 3},
              "scaling-derivation-variable-out-of-range"),
    _map_case(LAURENT, {"rule": "exponent-value", "var": 2},
              "exponent-value-variable-out-of-range"),
    _map_case(POLY, {"rule": "group-negation"}, "group-negation-on-poly"),
    # t^m -> 2^m t^m on F_5[Z_10]: f(t^3) f(t^3) = 2^6 t^-4, but f(t^3 t^3) = 2^-4 t^-4
    pytest.param({"field": {"kind": "prime", "p": 5}, "carrier": {"shape": "quotient-laurent",
                                                                  "p": 5},
                  "bracket": None, "basis": None,
                  "maps": {"m": {"rule": "monomial-scale", "base": "2"}},
                  "campaigns": [{"name": "c", "check": "involution-law", "map": "m"}]},
                 "$.maps.m", id="monomial-scale-base-not-a-root-of-unity-on-the-quotient"),
    _map_case(POLY, {"rule": "id-minus", "inner": {"rule": "group-negation"}},
              "id-minus-inner-rule-on-the-wrong-shape"),
    # these exited 70, but the last, which tabulated a 7-dimensional table
    _explicit_case([5], "index-not-a-string"),
    _explicit_case(["t3^1"], "variable-out-of-range", carrier=LAURENT,
                   field={"kind": "rationals"},
                   bracket={"form": "laurent-parity", "shift": 0}),
    _explicit_case(["x"], "malformed-quotient-index"),
    _explicit_case(["e(|1)", "e(|4)"], "group-indices-reducing-to-one-element",
                   carrier={"shape": "group", "torsion": [3]},
                   bracket={"form": "group-wedge", "hom": {"torsion": ["1"]}}),
    _explicit_case(["t^-2", "t^-1", "1", "t^1", "t^2", "t^3", "t^-3"],
                   "quotient-index-reducing-to-another"),
    # each of these exited 70
    _mutation_case({"args": [0, 1, 2], "out": 99, "add": "1"}, "output-index-out-of-range"),
    _mutation_case({"args": [0, 1, 99], "out": 0, "add": "1"}, "argument-out-of-range"),
    _mutation_case({"args": [2, 1, 0], "out": 0, "add": "1"}, "arguments-not-increasing"),
    _mutation_case({"args": [0, 1], "out": 0, "add": "1"}, "arguments-of-the-wrong-arity"),
    _mutation_case({"args": [0, 1, 2], "out": 0, "add": "x"}, "unparsable-increment"),
    _mutation_case({"args": [0, 1, 2], "out": 0}, "missing-increment"),
    # these built without complaint: indices that are not integers, and a
    # mutation of no table, which left the bracket it was to break intact
    _mutation_case({"args": [0, 1, 2], "out": 1.5, "add": "1"}, "fractional-output-index"),
    _mutation_case({"args": [0, 1, 2], "out": True, "add": "1"}, "boolean-output-index"),
    # true and 1.0 hash like 1: on an entry that exists they shifted it
    _mutation_case({"args": [0, 1, 5], "out": True, "add": "1"},
                   "boolean-output-index-of-an-existing-entry"),
    _mutation_case({"args": [0, True, 2], "out": 4, "add": "1"},
                   "boolean-argument-of-an-existing-key"),
    _mutation_case({"args": [0, 1.0, 2], "out": 4, "add": "1"},
                   "fractional-argument-of-an-existing-key"),
    pytest.param({"bracket": {"form": "quotient-parity",
                              "mutations": [{"args": [0, 1, 2], "out": 0, "add": "1"}]},
                  "basis": {"kind": "carrier", "tabulate": False}},
                 "$.bracket.mutations", id="mutations-without-a-table"),
    pytest.param({"bracket": {"form": "quotient-parity",
                              "mutations": {"args": [0, 1, 2], "out": 0, "add": "1"}}},
                 "$.bracket.mutations", id="mutations-not-a-list"),
    # scalars are strings: a JSON number exited 70 wherever a scalar is read
    _mutation_case({"args": [0, 1, 2], "out": 0, "add": 1}, "increment-not-a-string"),
    _map_case(LAURENT, {"rule": "monomial-scale", "base": -1}, "scalar-not-a-string"),
    pytest.param({"basis": 5}, "$.basis", id="basis-not-an-object"),
    # each exited 70: ZeroDivisionError in Fraction, IndexError in the form
    pytest.param({"field": {"kind": "rationals"}, "carrier": LAURENT, "basis": None,
                  "bracket": {"form": "laurent-flip", "lambdas": ["1/0"]}},
                 "$.bracket", id="zero-denominator"),
    pytest.param({"field": {"kind": "rationals"}, "carrier": None, "basis": None,
                  "bracket": {"form": "metric-extension", "lie": "sl2",
                              "form_matrix": [["1"]]}},
                 "$.bracket", id="metric-form-not-m-by-m"),
])
def test_validated_documents_do_not_crash_while_building(patch, path, tmp_path, capsys):
    doc = minimal_quotient_doc()
    doc.update(patch)
    doc = {k: v for k, v in doc.items() if v is not None}
    with pytest.raises(ConfigError) as info:
        parse_document(render_document(doc))
    assert info.value.path == path
    file = tmp_path / "doc.json"
    file.write_text(render_document(doc))
    assert main(["verify", str(file), "--out-dir", str(tmp_path)]) == 64
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    pytest.param({"endo": "beta"}, id="endo-key-naming-a-functional"),  # this exited 0
    pytest.param({"functional": "dxx"}, id="functional-key-naming-an-endomorphism"),
    pytest.param({"endo": "dxx", "functional": "beta"}, id="both-keys"),
    pytest.param({}, id="no-key"),
    pytest.param({"map": "beta"}, id="unknown-key"),
    pytest.param({"functional": "gamma"}, id="unknown-map"),
    pytest.param("gamma", id="unknown-map-name"),
])
def test_a_determinant_row_must_name_a_map_of_its_kind(row, tmp_path, capsys):
    doc = get_bundled("poly-beta-bracket")
    doc["bracket"]["rows"][0] = row
    validate_document(doc)
    with pytest.raises(ConfigError) as info:
        parse_document(render_document(doc))
    assert info.value.path == "$.bracket"
    file = tmp_path / "doc.json"
    file.write_text(render_document(doc))
    assert main(["verify", str(file), "--out-dir", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert "$.bracket" in err and "Traceback" not in err


def test_determinant_rows_resolve_alike_in_the_form_and_the_campaign():
    # one helper resolves both: a row is "id", a map name, or a map name
    # keyed by its kind
    doc = get_bundled("poly-beta-bracket")
    keyed = parse_document(render_document(doc)).bracket
    doc["bracket"]["rows"] = ["beta", "id", "dxx"]
    doc["campaigns"] = [{"name": "c", "check": "closed-vs-determinant",
                         "rows": ["beta", "id", "dxx"]}]
    ctx = parse_document(render_document(doc))
    basis = ctx.carrier.basis_indices()
    for t in itertools.product(basis, repeat=3):
        assert (keyed.eval_indices(*t) == ctx.bracket.eval_indices(*t)
                == ctx.campaign_args["c"]["rows"].eval_indices(*t))


@pytest.mark.parametrize("name, bound", [("laurent-deriv-zero", 3), ("laurent-even-shift-k1", 3),
                                         ("laurent-flip-lambda2", 3), ("laurent-flip-unit", 3),
                                         ("control-pair-mismatch", 2),
                                         ("laurent-quotient-p3", 3)])
def test_a_fundamental_identity_bound_that_is_not_read_is_refused(name, bound):
    # these scan the document's basis or table, whatever the bound says
    doc = get_bundled(name)
    k = next(k for k, c in enumerate(doc["campaigns"]) if c["check"] == "fundamental-identity")
    doc["campaigns"][k]["bound"] = bound
    with pytest.raises(ConfigError, match="reads no bound") as info:
        parse_document(render_document(doc))
    assert info.value.path == f"$.campaigns[{k}]"


def test_a_fundamental_identity_bound_is_read_without_a_basis(tmp_path):
    doc = get_bundled("laurent-flip-unit")
    del doc["basis"]
    doc["campaigns"] = [{"name": "fi", "check": "fundamental-identity", "bound": 1}]
    file = tmp_path / "doc.json"
    file.write_text(render_document(doc))
    assert main(["verify", str(file), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "laurent-flip-unit.report.json").read_text())
    assert report["campaigns"][0]["counts"]["covered"] == 3 ** 5


def test_mutations_of_an_unclosed_basis_say_where_it_escapes():
    doc = minimal_quotient_doc()
    doc.update(field={"kind": "rationals"}, carrier=LAURENT,
               bracket={"form": "laurent-parity", "shift": 0,
                        "mutations": [{"args": [0, 1, 2], "out": 0, "add": "1"}]},
               basis={"kind": "window", "bound": 2})
    with pytest.raises(ConfigError, match="escapes the basis at t\\^-4") as info:
        parse_document(render_document(doc))
    assert info.value.path == "$.bracket.mutations"


PROBES = ["laurent-flip-unit", "laurent-quotient-p3", "cyclic-group-f3", "poly-beta-bracket",
          "dirac-gamma"]


@pytest.mark.parametrize("name", PROBES)
def test_every_check_is_refused_or_runs_to_a_verdict(name, tmp_path, capsys):
    # each check alone, with no parameters, on a probe document: a document
    # that validates must not crash (exit 70) while it builds or runs
    exits = {}
    for check in CHECKS:
        doc = get_bundled(name)
        doc["campaigns"] = [{"name": "c", "check": check}]
        file = tmp_path / "doc.json"
        file.write_text(render_document(doc))
        exits[check] = main(["verify", str(file), "--out-dir", str(tmp_path)])
    assert "Traceback" not in capsys.readouterr().err
    assert {check: code for check, code in exits.items() if code not in (0, 1, 2, 64)} == {}
    assert exits["fundamental-identity"] == 0


CARRIER_SHAPES = {
    "laurent": LAURENT,
    "laurent-2": {"shape": "laurent", "vars": 2},
    "group": {"shape": "group", "free": 1, "torsion": [2]},
    "quotient-laurent": {"shape": "quotient-laurent", "p": 3},
    "poly-truncated": POLY,
}
# one value for each parameter a rule has no default for
RULE_PARAMETERS = {
    "monomial-scale": {"base": "-1"},
    "laurent-flip": {"lambdas": ["2"]},
    "hom-derivation": {"hom": {"free": ["1"], "torsion": ["0"]}},
    "hom-functional": {"hom": {"free": ["1"], "torsion": ["0"]}},
    "table-map": {"entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    "table-functional": {"values": ["1", "0", "0"]},
    "id-minus": {"inner": {"rule": "identity"}},
}


@pytest.mark.parametrize("shape", CARRIER_SHAPES)
@pytest.mark.parametrize("rule", [*ENDO_RULES, *FUNCTIONAL_RULES])
def test_every_map_rule_is_refused_or_runs_on_every_carrier(rule, shape, tmp_path, capsys):
    doc = minimal_quotient_doc()
    del doc["bracket"], doc["basis"]
    doc["field"], doc["carrier"] = {"kind": "rationals"}, CARRIER_SHAPES[shape]
    doc["maps"] = {"m": {"rule": rule, **RULE_PARAMETERS.get(rule, {})}}
    doc["campaigns"] = (
        [{"name": "c", "check": "functional-conditions", "alpha": "m"}] if rule in FUNCTIONAL_RULES
        else [{"name": "c", "check": "involution-law", "map": "m"},
              {"name": "d", "check": "derivation-law", "map": "m"}])
    validate_document(doc)
    file = tmp_path / "doc.json"
    file.write_text(render_document(doc))
    assert main(["verify", str(file), "--out-dir", str(tmp_path)]) in (0, 1, 64)
    assert "Traceback" not in capsys.readouterr().err


def test_explicit_basis_indices_parse():
    doc = minimal_quotient_doc()
    doc["basis"] = {"kind": "explicit",
                    "indices": ["t^-2", "t^-1", "1", "t^1", "t^2", "t^3"]}
    parsed = parse_document(render_document(doc)).doc
    assert parsed["basis"]["indices"][0] == "t^-2"
