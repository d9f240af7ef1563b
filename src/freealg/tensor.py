"""Tensor products of free algebras.

A TensorAlgebra is the tensor product of free algebras with the
componentwise product, where basis tensors multiply factorwise:
(a1 (x) a2)(b1 (x) b2) = (a1 b1) (x) (a2 b2).  Its basis is ordered
row-major over factor indices.

A Tensor2 is a 2-tensor over a single algebra A in standard
components, with the twisted product

    (a (x) b) o (c (x) d) = (ac) (x) (db),

which is the one making tensors act on linear maps by sandwiching.
That is the componentwise product in A (x) A^op, whose flat coordinates
are a Tensor2's components read row by row.  A Tensor2 holds them in the
int form of ``exact.IntForm``, so that is also the form of its element
there, and twisted_mul and tensor_inverse compute there on ints alone;
``components`` is built on first read.  A (x) A^op is built on first use
and cached on A.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from typing import Sequence

from . import exact
from .core import AlgElement, FreeAlgebra, multiply, opposite
from .errors import AlgebraMismatch, EmptyFactorList, InvalidAlgebra, NoUnit, SingularTensor
from .exact import IntForm, frac


class TensorAlgebra(FreeAlgebra):
    """The tensor product of free algebras, itself a free algebra.

    Structure constants are products of the factors' constants, so the
    componentwise product rule holds on basis tensors by construction.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[FreeAlgebra]):
        if not factors:
            raise EmptyFactorList("tensor product needs at least one factor")
        self.factors = factors = tuple(factors)
        # multi-indices in row-major order, the order of the flat basis
        multis = list(product(*(range(a.dim) for a in factors)))
        labels = ["(x)".join(a.labels[i] for a, i in zip(factors, multi))
                  for multi in multis]

        den = prod(a.denominator for a in factors)  # of the factors' integer constants
        # one constant per choice of a nonzero integer cell (i, j, k, v) in each factor
        cells = [[(i, j, k, v) for i in range(a.dim) for j in range(a.dim)
                  for k, v in a.basis_product(i, j)] for a in factors]
        constants = [(self.flat_index(i), self.flat_index(j), self.flat_index(k),
                      Fraction(prod(v), den))
                     for i, j, k, v in (zip(*choice) for choice in product(*cells))]

        unit = None
        if all(a.unit_index is not None for a in factors):
            unit = self.flat_index([a.unit_index for a in factors])
        super().__init__(len(multis), labels, constants, unit_index=unit)

    def flat_index(self, multi: Sequence[int]) -> int:
        idx = 0
        for a, i in zip(self.factors, multi):
            idx = idx * a.dim + i
        return idx

    def pure(self, parts: Sequence[AlgElement]) -> AlgElement:
        """The decomposable tensor a1 (x) ... (x) an; components are the
        outer product of the coordinate vectors."""
        if len(parts) != len(self.factors):
            raise AlgebraMismatch("need one element per factor")
        for part, a in zip(parts, self.factors):
            if part.algebra is not a:
                raise AlgebraMismatch("element does not belong to its factor")
        nums, den = [1], 1
        for part in parts:
            part_nums, part_den = part.ints
            nums, den = [c * x for c in nums for x in part_nums], den * part_den
        return AlgElement._of((self,), exact.canonical(nums, den))

    def __repr__(self) -> str:
        return f"TensorAlgebra({len(self.factors)} factors, dim={self.dim})"


def tensor_product(algebras: Sequence[FreeAlgebra]) -> TensorAlgebra:
    """The tensor product algebra with the componentwise product."""
    return TensorAlgebra(algebras)


def tensor_mul(x: AlgElement, y: AlgElement) -> AlgElement:
    """Componentwise product of tensor-algebra elements (the plain
    algebra product, via the derived structure constants)."""
    if not isinstance(x.algebra, TensorAlgebra):
        raise AlgebraMismatch("tensor_mul applies to TensorAlgebra elements")
    return multiply(x, y)


class Tensor2(IntForm):
    """An element of A (x) A in standard components, carrying the twisted
    product: it is this object that acts on linear maps."""

    __slots__ = ()
    _GRID = True
    _MISMATCH = "tensors over different algebras"

    def __init__(self, algebra: FreeAlgebra, components):
        n = algebra.dim
        if len(components) != n or any(len(row) != n for row in components):
            raise ValueError(f"components must form an {n}x{n} grid")
        super().__init__((algebra,), tuple(tuple(frac(v) for v in row) for row in components))

    @classmethod
    def basis_tensor(cls, algebra: FreeAlgebra, i: int, j: int) -> "Tensor2":
        n = algebra.dim
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidAlgebra(f"basis tensor index ({i},{j}) out of range for dim {n}")
        return cls._of((algebra,), (tuple(int(k == i * n + j) for k in range(n * n)), 1))

    @classmethod
    def pure(cls, a: AlgElement, b: AlgElement) -> "Tensor2":
        if a.algebra is not b.algebra:
            raise AlgebraMismatch("both parts must share one algebra")
        (an, ad), (bn, bd) = a.ints, b.ints
        return cls._of((a.algebra,), exact.canonical([x * y for x in an for y in bn], ad * bd))

    @classmethod
    def unit(cls, algebra: FreeAlgebra) -> "Tensor2":
        if algebra.unit_index is None:
            raise NoUnit("unit tensor needs a unital algebra")
        u = algebra.unit_index
        return cls.basis_tensor(algebra, u, u)

    algebra = property(lambda self: self._space[0])
    components = property(IntForm._fractions)

    def __repr__(self) -> str:
        return f"Tensor2(dim={self.algebra.dim})"


def twisted_algebra(algebra: FreeAlgebra) -> TensorAlgebra:
    """A (x) A^op, built once per algebra and cached on it."""
    return algebra.cached("twisted", lambda: TensorAlgebra([algebra, opposite(algebra)]))


def _twisted_element(t: Tensor2) -> AlgElement:
    return AlgElement._of((twisted_algebra(t.algebra),), t.ints)


def twisted_mul(s: Tensor2, t: Tensor2) -> Tensor2:
    """The bilinear extension of (a (x) b) o (c (x) d) = (ac) (x) (db):
    the product of s and t in A (x) A^op."""
    if s.algebra is not t.algebra:
        raise AlgebraMismatch("tensors over different algebras")
    return Tensor2._of((s.algebra,), multiply(_twisted_element(s), _twisted_element(t)).ints)


def tensor_inverse(t: Tensor2) -> Tensor2:
    """The tensor u with t o u = u o t = unit tensor, found by solving
    t o u = unit for a right inverse and then checking it from the left.
    ``t`` is nonsingular exactly when this succeeds."""
    algebra = t.algebra
    unit = Tensor2.unit(algebra)
    x = _twisted_element(t)
    # column c is t o e_c: the left-multiplication matrix of t in A (x) A^op
    columns = [multiply(x, e).coords for e in x.algebra.basis()]
    rhs = exact.vec(unit.components)
    try:
        particular, _ = exact.solve(list(zip(*columns)), rhs)
    except ValueError:
        raise SingularTensor("tensor has no right inverse") from None
    u = Tensor2(algebra, exact.blocks(particular, algebra.dim))
    if twisted_mul(u, t) != unit:
        raise SingularTensor(
            "right inverse exists but is not a left inverse", one_sided=True)
    return u
