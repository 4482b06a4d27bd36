"""What importing trilie costs and exposes, and that no module imports a name
it never uses.

The package exports its names lazily: `import trilie` loads no submodule, a
submodule import loads only what that submodule needs (a carrier needs only
`fields`), and every exported name resolves on first use to its submodule's
own object.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trilie

ROOT = Path(__file__).resolve().parent.parent

# every exported name, by the submodule that defines it
EXPORTS = {
    "fields": ["Field", "GaussianRational", "GaussianRationals", "PrimeField", "QI", "QQ",
               "Rationals", "field_from_descriptor"],
    "linalg": ["Subspace", "kernel_of_functional"],
    "carriers": ["AlgebraElement", "CarrierAlgebra", "Endomorphism", "Functional",
                 "GroupAlgebra", "GroupHom", "HypothesisViolation", "LaurentAlgebra",
                 "QuotientLaurentAlgebra", "TableAlgebra", "classify_involutions",
                 "truncated_polynomial_algebra"],
    "brackets": ["DeterminantBracket", "GroupWedgeBracket", "LaurentFlipBracket",
                 "LaurentParityBracket", "QuotientParityBracket", "TriBracket",
                 "check_anticommute", "check_derivation", "check_fi_window",
                 "check_homomorphism", "check_involution", "group_kernel_certificate",
                 "tabulate"],
    "lifts": ["LieAlgebra", "gamma_algebra", "general_linear", "gl_trace_lift",
              "killing_form", "lie_lift", "metric_extension", "sl2"],
    "structure": ["BudgetExceeded", "CheckReport", "FiniteNLieAlgebra",
                  "SimplicityCertificate", "certify_simplicity", "derived_algebra",
                  "derived_series", "ideal_closure", "is_ideal", "is_maximal_codim1",
                  "lower_central_series", "verify_fundamental_identity", "verify_skew"],
    "bundled": ["bundled_names", "get_bundled"],
    "campaigns": ["run_document"],
    "documents": ["parse_document", "render_document"],
}


# the trilie modules a fresh `import <module>` loads
FOOTPRINTS = {
    "trilie": ["trilie"],
    "trilie.documents": ["trilie", "trilie.documents", "trilie.fields"],
    "trilie.carriers": ["trilie", "trilie.carriers", "trilie.fields"],
}

# modules that none of those imports may load
HEAVY = ("dataclasses", "numpy")


def loaded_after(statement):
    """The trilie modules, and those of `HEAVY`, that a fresh interpreter has
    loaded after running `statement`."""
    env = dict(os.environ)
    src = str(Path(trilie.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (f"{statement}; import json, sys; print(json.dumps([sorted(m for m in sys.modules"
             f" if m.split('.')[0] == 'trilie'), [m for m in {HEAVY!r} if m in sys.modules]]))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


@pytest.mark.parametrize("module", FOOTPRINTS)
def test_import_loads_only_what_it_needs(module):
    assert loaded_after(f"import {module}") == [FOOTPRINTS[module], []]


def test_all_lists_every_export():
    assert trilie.__all__ == [name for names in EXPORTS.values() for name in names]
    assert len(trilie.__all__) == 61


@pytest.mark.parametrize("module", EXPORTS)
def test_each_export_is_its_submodules_object(module):
    sub = importlib.import_module(f"trilie.{module}")
    for name in EXPORTS[module]:
        assert getattr(trilie, name) is getattr(sub, name), name


def test_dir_and_star_import_cover_every_export():
    assert "__all__" in dir(trilie)
    assert set(trilie.__all__) <= set(dir(trilie))
    namespace = {}
    exec("from trilie import *", namespace)
    assert set(trilie.__all__) <= set(namespace)


def test_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError, match="'trilie'"):
        trilie.no_such_name


# ---------------------------------------------------------------------------
# unused imports
# ---------------------------------------------------------------------------

def unused_imports(source):
    """The names a module imports and never reads, as (line, name) pairs.
    A name counts as read anywhere in the module, so the test errs towards
    passing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    assert unused_imports("import os.path\nfrom a import b as c, d\nd()\n") == [
        (1, "os"), (2, "c")]
    assert unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


@pytest.mark.parametrize("directory", ["src/trilie", "tests"])
def test_no_module_imports_a_name_it_never_uses(directory):
    found = {str(path.relative_to(ROOT)): unused
             for path in sorted((ROOT / directory).glob("*.py"))
             if (unused := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}
