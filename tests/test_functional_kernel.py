"""The kernel of a linear functional, stored as the functional, against the
dense canonical subspace that elimination builds for the same kernel."""

import tracemalloc
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from trilie.brackets import group_kernel_certificate
from trilie.carriers import GroupAlgebra, GroupHom
from trilie.fields import QI, QQ, GaussianRational, PrimeField
from trilie.linalg import FunctionalKernel, SpanBuilder, Subspace, kernel_of_functional

FIELDS = [PrimeField(2), PrimeField(5), QQ, QI]


def _elements(field):
    """Field elements, zero about half the time so that functionals have
    zero columns, and a last nonzero column that is often not the last."""
    if field is QQ:
        other = st.fractions(-4, 4, max_denominator=3).map(QQ.normalize)
    elif field is QI:
        part = st.fractions(-3, 3, max_denominator=2)
        other = st.builds(GaussianRational, part, part).map(QI.normalize)
    else:
        other = st.integers(0, field.p - 1)
    return st.one_of(st.just(field.zero), other)


@st.composite
def functionals(draw):
    """(field, values): values of a functional on F^n, 1 <= n <= 7."""
    field = draw(st.sampled_from(FIELDS))
    values = draw(st.lists(_elements(field), min_size=1, max_size=7))
    return field, values


def _dense_kernel(field, values) -> Subspace:
    """The kernel by elimination: with i the *first* nonzero column, the
    vectors v_i e_k - v_k e_i span it; the zero functional kills everything."""
    n = len(values)
    sb = SpanBuilder(field, n)
    i = next((k for k, c in enumerate(values) if not field.is_zero(c)), None)
    for k in range(n):
        vec = [field.zero] * n
        if i is None:
            vec[k] = field.one
        elif k != i:
            vec[k], vec[i] = values[i], field.neg(values[k])
        sb.add(vec)
    return sb.to_subspace()


def _vectors(draw, field, n, count):
    return [draw(st.lists(_elements(field), min_size=n, max_size=n)) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(functionals(), st.data())
def test_functional_kernel_matches_dense_kernel(fv, data):
    field, values = fv
    n = len(values)
    ker = kernel_of_functional(field, values)
    dense = _dense_kernel(field, values)
    zero = all(field.is_zero(c) for c in values)

    assert isinstance(ker, FunctionalKernel)
    assert ker.dim == dense.dim == (n if zero else n - 1)
    assert ker.codim == dense.codim == n - ker.dim
    assert ker.pivots == dense.pivots
    assert list(ker.basis) == dense.basis
    assert [ker.basis[i] for i in range(-ker.dim, ker.dim)] == dense.basis * 2
    assert ker.basis[1:3] == dense.basis[1:3] and ker.basis[:5] == dense.basis[:5]
    assert ker.basis == dense.basis and dense.basis == ker.basis
    assert ker == dense and dense == ker
    assert [ker.row_terms(k) for k in ker.pivots] == [
        {col: c for col, c in enumerate(row) if not field.is_zero(c)} for row in dense.basis]
    # a nonzero multiple of the functional has the same kernel
    assert ker == kernel_of_functional(field, [field.mul(field.embed(3), c) for c in values])

    for vec in _vectors(data.draw, field, n, 4) + dense.basis:
        assert ker.contains(vec) == dense.contains(vec)
    assert ker.contains_subspace(dense) and dense.contains_subspace(ker)

    # a different kernel is unequal from either side
    if not zero and n > 1:
        bumped = list(values)
        bumped[0] = field.add(bumped[0], field.one)
        moved = _dense_kernel(field, bumped)
        if moved.basis != dense.basis:
            assert ker != moved and moved != ker
            assert ker != kernel_of_functional(field, bumped)


def test_zero_functional_kernel_is_the_full_space():
    for field in FIELDS:
        ker = kernel_of_functional(field, [field.zero] * 4)
        full = Subspace(field, 4, [[field.one if i == k else field.zero for i in range(4)]
                                   for k in range(4)])
        assert ker.dim == 4 and ker.codim == 0 and ker.pivots == [0, 1, 2, 3]
        assert ker == full and full == ker and ker == Subspace.full(field, 4)
        assert ker.contains([field.one] * 4)


def test_last_nonzero_column_carries_the_functional():
    F5 = PrimeField(5)
    ker = kernel_of_functional(F5, [1, 2, 0, 3, 0, 0])   # last nonzero column 3
    assert ker.pivots == [0, 1, 2, 4, 5]
    assert ker.basis[0] == [1, 0, 0, 3, 0, 0]       # e_0 - (1/3) e_3 = e_0 + 3 e_3
    assert ker.basis[1] == [0, 1, 0, 1, 0, 0]       # e_1 - (2/3) e_3 = e_1 + e_3
    assert ker.basis[3] == [0, 0, 0, 0, 1, 0]
    assert ker.contains([3, 0, 0, 4, 0, 1]) and not ker.contains([0, 0, 0, 1, 0, 0])
    half = kernel_of_functional(QQ, [Fraction(1, 2), 0, 1])
    assert half.basis[0] == [1, 0, Fraction(-1, 2)]


def test_group_kernel_certificate_z5_to_the_fifth_stays_small():
    # G = Z_5^5 (d = 3125), alpha = half the coordinate sum: the kernel
    # ideal is certified without ever holding its 3124 rows
    F5 = PrimeField(5)
    G = GroupAlgebra(F5, torsion=[5] * 5)
    alpha = GroupHom(G, torsion_values=[F5.inv(2)] * 5)
    tracemalloc.start()
    try:
        cert, report = group_kernel_certificate(alpha, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert cert.verdict == "non-simple"
    assert cert.witness.dim == 3124 and cert.witness.codim == 1
    assert peak < 2 ** 20, f"tracemalloc peak {peak / 2 ** 20:.2f} MiB"
