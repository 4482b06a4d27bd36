import random
from fractions import Fraction

import pytest

from trilie.fields import PrimeField, QQ
from trilie.linalg import Subspace, kernel_of_functional


def q(n, d=1):
    return Fraction(n, d)


# ---------------------------------------------------------------------------
# the canonical RREF basis of a subspace
# ---------------------------------------------------------------------------

def test_rref_prunes_dependent_rows():
    s = Subspace(QQ, 2, [[q(2), q(4)], [q(1), q(2)]])
    assert s.basis == [[q(1), q(2)]] and s.pivots == [0]


def test_rref_identity_fixed():
    rows = [[q(1), q(0), q(0)], [q(0), q(1), q(0)], [q(0), q(0), q(1)]]
    s = Subspace(QQ, 3, rows)
    assert s.basis == rows and s.pivots == [0, 1, 2]


def test_rref_mod3():
    # hand Gaussian elimination mod 3: [[1,1],[1,2]] -> [[1,0],[0,1]]
    s = Subspace(PrimeField(3), 2, [[1, 1], [1, 2]])
    assert s.basis == [[1, 0], [0, 1]] and s.pivots == [0, 1]


def test_rref_idempotent():
    rng = random.Random(5)
    for F in (QQ, PrimeField(5)):
        for _ in range(20):
            rows = [[F.random_element(rng) for _ in range(4)] for _ in range(3)]
            r1 = Subspace(F, 4, rows)
            r2 = Subspace(F, 4, r1.basis)
            assert r2.basis == r1.basis and r2.pivots == r1.pivots
            # reduced: each pivot column is a unit column of the basis
            for i, (row, p) in enumerate(zip(r1.basis, r1.pivots)):
                assert row[p] == F.one and all(F.is_zero(x) for x in row[:p])
                assert all(F.is_zero(other[p]) for k, other in enumerate(r1.basis) if k != i)
            assert r1.pivots == sorted(set(r1.pivots))


def test_row_space_preserved():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[QQ.random_element(rng) for _ in range(5)] for _ in range(4)]
        s = Subspace(QQ, 5, rows)
        for row in rows:
            assert s.contains(row)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

def test_membership_basics():
    s = Subspace(QQ, 3, [[q(1), q(0), q(0)], [q(0), q(1), q(0)]])
    assert s.contains([q(0), q(0), q(0)])
    assert s.contains([q(1), q(0), q(0)])
    assert not s.contains([q(0), q(0), q(1)])


def test_membership_dimension_mismatch():
    s = Subspace(QQ, 3, [[q(1), q(0), q(0)]])
    with pytest.raises(ValueError):
        s.contains([q(1), q(0)])


def test_codimension():
    full = Subspace.full(QQ, 4)
    assert full.codim == 0
    s = Subspace(QQ, 3, [[q(1), q(0), q(0)], [q(0), q(1), q(0)]])
    assert s.dim == 2 and s.codim == 1


def test_zero_subspace_is_a_value():
    z = Subspace.zero(QQ, 4)
    assert z.dim == 0
    assert z == Subspace(QQ, 4, [])


def test_canonical_equality():
    a = Subspace(QQ, 3, [[q(1), q(1), q(0)], [q(0), q(0), q(1)]])
    b = Subspace(QQ, 3, [[q(2), q(2), q(2)], [q(0), q(0), q(-1)]])
    assert a == b


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_of_functional_codim_one():
    F5 = PrimeField(5)
    values = [0, 1, 2, 3, 4]
    k = kernel_of_functional(F5, values)
    assert k.codim == 1
    for row in k.basis:
        assert sum(v * x for v, x in zip(values, row)) % 5 == 0
