"""Exact dense linear algebra over any field descriptor.

Canonical subspaces in reduced row echelon form with first-nonzero pivoting
(magnitude is meaningless over exact fields), built incrementally by a
`SpanBuilder`, and membership.  Everything is small and dense by design; the
finite instances this package certifies stay below a few hundred dimensions.
The one exception is the kernel of a linear functional (and the full space,
the kernel of zero): a `FunctionalKernel` stores the functional, O(d), and
builds each of its d - 1 canonical rows when it is asked for.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence as SequenceABC
from typing import Iterable, List, Sequence

from .fields import Field, require_same_field


def _reduce_row(field: Field, row: list, pivots: List[int], rows: List[list]) -> list:
    """Reduce `row` against RREF rows with the given pivot columns."""
    row = list(row)
    for prow, pcol in zip(rows, pivots):
        c = row[pcol]
        if not field.is_zero(c):
            row = [field.normalize(x - c * y) for x, y in zip(row, prow)]
    return row


class SpanBuilder:
    """Incremental RREF accumulator: add vectors, track rank, emit a Subspace."""

    def __init__(self, field: Field, ambient: int):
        self.field = field
        self.ambient = ambient
        self.rows: List[list] = []
        self.pivots: List[int] = []

    @property
    def dim(self):
        return len(self.rows)

    def residual(self, vec: Sequence) -> list:
        return _reduce_row(self.field, list(vec), self.pivots, self.rows)

    def contains(self, vec: Sequence) -> bool:
        r = self.residual(vec)
        return all(self.field.is_zero(x) for x in r)

    def add(self, vec: Sequence) -> bool:
        """Insert a vector; returns True when the rank grew."""
        if len(vec) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        f = self.field
        row = self.residual(vec)
        pcol = next((j for j, x in enumerate(row) if not f.is_zero(x)), None)
        if pcol is None:
            return False
        inv = f.inv(row[pcol])
        row = [f.mul(inv, x) for x in row]
        # clear the new pivot column from existing rows
        for i, prow in enumerate(self.rows):
            c = prow[pcol]
            if not f.is_zero(c):
                self.rows[i] = [f.normalize(x - c * y) for x, y in zip(prow, row)]
        at = next((k for k, p in enumerate(self.pivots) if p > pcol), len(self.pivots))
        self.rows.insert(at, row)
        self.pivots.insert(at, pcol)
        return True

    def to_subspace(self) -> "Subspace":
        return Subspace(self.field, self.ambient, self.rows, _trusted=True)


class Subspace:
    """Canonical subspace: RREF basis with strictly increasing pivots.

    Two subspaces are equal iff their basis matrices are identical; the zero
    subspace (no rows) is a valid value.
    """

    def __init__(self, field: Field, ambient: int, vectors: Iterable[Sequence], _trusted=False):
        self.field = field
        self.ambient = ambient
        if _trusted:
            self.basis = [list(v) for v in vectors]
        else:
            sb = SpanBuilder(field, ambient)
            for v in vectors:
                sb.add(v)
            self.basis = sb.rows
        self.pivots = []
        for row in self.basis:
            self.pivots.append(next(j for j, x in enumerate(row) if not field.is_zero(x)))

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, [])

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return FunctionalKernel(field, [field.zero] * ambient)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient - self.dim

    def _check_compat(self, other: "Subspace"):
        require_same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")

    def contains(self, vec: Sequence) -> bool:
        if len(vec) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        r = _reduce_row(self.field, list(vec), self.pivots, self.basis)
        return all(self.field.is_zero(x) for x in r)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compat(other)
        return all(self.contains(row) for row in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


class _KernelRows(SequenceABC):
    """The canonical rows of a `FunctionalKernel`, e_k - w_k e_j for each
    pivot k, each built when it is asked for."""

    def __init__(self, ker: "FunctionalKernel"):
        self._ker = ker

    def __len__(self):
        return len(self._ker.pivots)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._ker.row(k) for k in self._ker.pivots[i]]
        return self._ker.row(self._ker.pivots[i])

    def __iter__(self):
        return map(self._ker.row, self._ker.pivots)

    def __eq__(self, other):
        return len(self) == len(other) and all(map(operator.eq, self, other))


class FunctionalKernel(Subspace):
    """The kernel of phi(x) = sum_k v_k x_k, stored as w = v / v_j for the
    last column j where v is nonzero: O(d) memory at any dimension.

    The canonical basis has a row e_k - w_k e_j for every column k != j (the
    pivots), built when read; the zero functional (no j) has the identity
    rows, the full space.  Membership is one dot product with w.
    """

    def __init__(self, field: Field, values: Sequence):
        n = len(values)
        self.field, self.ambient = field, n
        self.j = next((k for k in reversed(range(n)) if not field.is_zero(values[k])), None)
        if self.j is None:
            self.w = [field.zero] * n
        else:
            inv = field.inv(values[self.j])
            self.w = [field.mul(c, inv) for c in values]
        self.pivots = [k for k in range(n) if k != self.j]

    @property
    def basis(self) -> Sequence:
        return _KernelRows(self)

    def row_terms(self, k: int) -> dict:
        """The canonical basis row with pivot k, e_k - w_k e_j, as its nonzero
        {column: coefficient}."""
        f = self.field
        terms = {k: f.one}
        if not f.is_zero(self.w[k]):
            terms[self.j] = f.neg(self.w[k])
        return terms

    def row(self, k: int) -> list:
        """The canonical basis row with pivot k: e_k - w_k e_j."""
        row = [self.field.zero] * self.ambient
        for col, c in self.row_terms(k).items():
            row[col] = c
        return row

    def contains(self, vec: Sequence) -> bool:
        if len(vec) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        return self.field.is_zero(self.field.normalize(sum(map(operator.mul, self.w, vec))))


def kernel_of_functional(field: Field, values: Sequence) -> Subspace:
    """Kernel of a linear functional given by its values on the basis.

    A `FunctionalKernel`: canonical form (pivots at every column except the
    last one where the functional is nonzero), stored as the functional and
    read row by row, so it takes O(d) memory and O(d) per membership test at
    any dimension.
    """
    return FunctionalKernel(field, list(values))
