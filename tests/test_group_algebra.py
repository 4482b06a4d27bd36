"""The one group-algebra carrier F[G], G = Z^a x Z_{m_1} x ... x Z_{m_b}, on
drawn shapes: the Laurent rings F[Z^k], groups with free and torsion parts,
and the quotients F[Z_2p] with exponents in {1-p, ..., p}."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from trilie.carriers import (
    CarrierMismatchError,
    GroupAlgebra,
    LaurentAlgebra,
    QuotientLaurentAlgebra,
)
from trilie.fields import QQ, PrimeField


@st.composite
def carriers(draw):
    shape = draw(st.sampled_from(["laurent", "group", "quotient-laurent"]))
    if shape == "laurent":
        return LaurentAlgebra(draw(st.sampled_from([QQ, PrimeField(3)])), draw(st.integers(1, 3)))
    if shape == "group":
        free = draw(st.integers(0, 2))
        torsion = draw(st.lists(st.integers(2, 6), min_size=0 if free else 1, max_size=2))
        return GroupAlgebra(draw(st.sampled_from([QQ, PrimeField(5)])), free, torsion)
    p = draw(st.sampled_from([3, 5, 7]))
    return QuotientLaurentAlgebra(PrimeField(p), p)


def indices(carrier):
    """Group elements of `carrier`, reduced from arbitrary coordinates."""
    return st.tuples(*[st.integers(-20, 20)] * carrier.rank).map(carrier.reduce_index)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_indices_form_an_abelian_group(data):
    G = data.draw(carriers())
    i, j, k = (data.draw(indices(G)) for _ in range(3))
    add, neg, unit = G.add_indices, G.neg_index, G.unit_index()
    for x in (i, add(i, j), neg(i), unit):
        G.validate_index(x)
    assert add(i, j) == add(j, i)
    assert add(add(i, j), k) == add(i, add(j, k))
    assert add(i, unit) == i
    assert add(i, neg(i)) == unit
    assert G.monomial(i) * G.monomial(j) == G.monomial(add(i, j))


@settings(max_examples=60, deadline=None)
@given(carriers())
def test_index_text_round_trips_on_the_window(G):
    window = G.window(2)
    assert len(set(window)) == len(window)
    for i in window:
        G.validate_index(i)
        assert G.parse_index(G.index_str(i)) == i


def test_window_and_basis_orders():
    # the orders and texts of the three carrier classes this one class replaced
    assert LaurentAlgebra(QQ, 2).window(1) == [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0),
                                               (0, 1), (1, -1), (1, 0), (1, 1)]
    G = GroupAlgebra(QQ, free_rank=1, torsion=[2])
    assert G.window(1) == [(-1, 0), (-1, 1), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert [G.index_str(i) for i in G.window(1)][:2] == ["e(-1|0)", "e(-1|1)"]
    T = GroupAlgebra(PrimeField(3), torsion=[2, 3])
    assert T.basis_indices() == T.window(4) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert T.dim() == 6 and T.index_str((1, 2)) == "e(|1,2)"
    Q = QuotientLaurentAlgebra(PrimeField(3), 3)
    assert Q.basis_indices() == Q.window(5) == [(-2,), (-1,), (0,), (1,), (2,), (3,)]
    assert [Q.index_str(i) for i in Q.basis_indices()] == ["t^-2", "t^-1", "1", "t^1", "t^2",
                                                           "t^3"]
    assert Q.dim() == 6 and Q.unit_index() == (0,)
    B = LaurentAlgebra(QQ, 2)
    assert [B.index_str(i) for i in [(0, 0), (2, -1), (0, 3)]] == ["1", "t1^2*t2^-1", "t2^3"]
    with pytest.raises(NotImplementedError):
        B.basis_indices()


def test_the_shapes_are_different_carriers():
    F = PrimeField(3)
    shapes = [LaurentAlgebra(F, 1), GroupAlgebra(F, free_rank=1), QuotientLaurentAlgebra(F, 3),
              GroupAlgebra(F, torsion=[6])]
    for A, B in itertools.combinations(shapes, 2):
        assert A != B
        x, y = A.monomial(A.unit_index()), B.monomial(B.unit_index())
        for op in (lambda a, b: a + b, lambda a, b: a * b):
            with pytest.raises(CarrierMismatchError):
                op(x, y)
    assert LaurentAlgebra(F, 1) == GroupAlgebra(F, 1, shape="laurent")
    assert hash(QuotientLaurentAlgebra(F, 3)) == hash(QuotientLaurentAlgebra(F, 3))


def test_unreduced_and_malformed_indices_are_refused():
    Q = QuotientLaurentAlgebra(PrimeField(5), 5)
    assert Q.reduce_index((5,)) == (5,) and Q.reduce_index((6,)) == (-4,)
    for bad in [(6,), (-5,), 3, (1, 2), (1.0,)]:
        with pytest.raises(ValueError):
            Q.validate_index(bad)
    G = GroupAlgebra(QQ, free_rank=1, torsion=[4])
    G.validate_index((-7, 3))
    with pytest.raises(ValueError):
        G.validate_index((-7, 4))
