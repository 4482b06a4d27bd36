"""Exact construction and mechanical verification of 3-Lie (Filippov) algebras.

Carriers (Laurent rings, group algebras, quotients, multiplication tables)
with their involutions, derivations and functionals; every bracket
constructor as an evaluable object with the determinant form as the oracle;
and a finite-dimensional verification core: fundamental identity, ideal
closure, derived series, and simplicity certification over prime fields by
exhaustive line enumeration.  All arithmetic is exact.

Every name in `__all__` is importable from this package, and each is the
object its submodule defines (`trilie.QQ is trilie.fields.QQ`).  A name's
submodule is imported on the name's first use (PEP 562), so `import trilie`
loads none of them, and `import trilie.documents` loads only the modules
that one needs.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "Field", "GaussianRational", "GaussianRationals", "PrimeField", "QI",
        "QQ", "Rationals", "field_from_descriptor",
    ), "fields"),
    **dict.fromkeys(("Subspace", "kernel_of_functional"), "linalg"),
    **dict.fromkeys((
        "AlgebraElement", "CarrierAlgebra", "Endomorphism", "Functional",
        "GroupAlgebra", "GroupHom", "HypothesisViolation", "LaurentAlgebra",
        "QuotientLaurentAlgebra", "TableAlgebra", "classify_involutions",
        "truncated_polynomial_algebra",
    ), "carriers"),
    **dict.fromkeys((
        "DeterminantBracket", "GroupWedgeBracket", "LaurentFlipBracket",
        "LaurentParityBracket", "QuotientParityBracket", "TriBracket",
        "check_anticommute", "check_derivation", "check_fi_window",
        "check_homomorphism", "check_involution", "group_kernel_certificate",
        "tabulate",
    ), "brackets"),
    **dict.fromkeys((
        "LieAlgebra", "gamma_algebra", "general_linear", "gl_trace_lift",
        "killing_form", "lie_lift", "metric_extension", "sl2",
    ), "lifts"),
    **dict.fromkeys((
        "BudgetExceeded", "CheckReport", "FiniteNLieAlgebra",
        "SimplicityCertificate", "certify_simplicity", "derived_algebra",
        "derived_series", "ideal_closure", "is_ideal", "is_maximal_codim1",
        "lower_central_series", "verify_fundamental_identity", "verify_skew",
    ), "structure"),
    **dict.fromkeys(("bundled_names", "get_bundled"), "bundled"),
    "run_document": "campaigns",
    **dict.fromkeys(("parse_document", "render_document"), "documents"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
