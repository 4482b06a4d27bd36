"""Exact construction and mechanical verification of 3-Lie (Filippov) algebras.

Carriers (Laurent rings, group algebras, quotients, multiplication tables)
with their involutions, derivations and functionals; every bracket
constructor as an evaluable object with the determinant form as the oracle;
and a finite-dimensional verification core: fundamental identity, ideal
closure, derived series, and simplicity certification over prime fields by
exhaustive line enumeration.  All arithmetic is exact.
"""

from .fields import (
    Field,
    GaussianRational,
    GaussianRationals,
    PrimeField,
    QI,
    QQ,
    Rationals,
    field_from_descriptor,
)
from .linalg import Subspace, kernel_of_functional
from .carriers import (
    AlgebraElement,
    CarrierAlgebra,
    Endomorphism,
    Functional,
    GroupAlgebra,
    GroupHom,
    HypothesisViolation,
    LaurentAlgebra,
    QuotientLaurentAlgebra,
    TableAlgebra,
    check_anticommute,
    check_derivation,
    check_involution,
    classify_involutions,
    truncated_polynomial_algebra,
)
from .brackets import (
    DeterminantBracket,
    GroupWedgeBracket,
    LaurentFlipBracket,
    LaurentParityBracket,
    QuotientParityBracket,
    TriBracket,
    check_fi_window,
    check_homomorphism,
    group_kernel_certificate,
    tabulate,
)
from .lifts import (
    LieAlgebra,
    gamma_algebra,
    general_linear,
    gl_trace_lift,
    killing_form,
    lie_lift,
    metric_extension,
    sl2,
)
from .structure import (
    BudgetExceeded,
    CheckReport,
    FiniteNLieAlgebra,
    SimplicityCertificate,
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
from .bundled import bundled_names, get_bundled
from .campaigns import run_document
from .documents import parse_document, render_document

__version__ = "0.1.0"
