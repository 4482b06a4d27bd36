import math

import pytest
import sympy

from trilie.fields import _MR_EXACT_BELOW, _TRIAL_LIMIT


@pytest.fixture(scope="session")
def undecided_safe_prime():
    """The first safe prime n = 2q + 1 with q past the exact Miller-Rabin
    bound for which no Pocklington certificate built from trial factors
    exists, found and factored with sympy: q - 1 has at least two prime
    factors of `_TRIAL_LIMIT` or more, and its smaller factors multiply to at
    most sqrt(q), so q is undecided, and then so is n (n - 1 = 2q)."""
    q = _MR_EXACT_BELOW
    while True:
        q = sympy.nextprime(q)
        if not sympy.isprime(2 * q + 1):
            continue
        factors = sympy.factorint(q - 1)
        small = math.prod(p ** e for p, e in factors.items() if p < _TRIAL_LIMIT)
        if sum(e for p, e in factors.items() if p >= _TRIAL_LIMIT) >= 2 and small ** 2 <= q:
            return 2 * q + 1
