"""Tensor products of free algebras.

A TensorAlgebra is the tensor product of free algebras with the
componentwise product, where basis tensors multiply factorwise:
(a1 (x) a2)(b1 (x) b2) = (a1 b1) (x) (a2 b2).  Its basis is ordered
row-major over factor indices.

A Tensor2, defined in ``linmap``, is a 2-tensor over a single algebra A
in standard components, with the twisted product

    (a (x) b) o (c (x) d) = (ac) (x) (db),

which is the one making tensors act on linear maps by sandwiching.
That is the componentwise product in A (x) A^op, whose flat coordinates
are a Tensor2's components read row by row.  A Tensor2 holds them in the
int form of ``exact.IntForm``, so that is also the form of its element
there, and twisted_mul and tensor_inverse compute on ints alone;
``components`` is built on first read.  A (x) A^op is built on first use
and cached on A.

Sandwiching, t -> (x -> sum t^{ij} e_i x e_j), takes the twisted product
to composition when A is associative, as (ac) x (db) = a (c x d) b; if
the component matrix of A has full rank too, it is an isomorphism from
A (x) A^op onto End(A).  There tensor_inverse reads t's n x n map straight
off B, as B vec(t), inverts it and converts the inverse back to standard
components.  Elsewhere (the octonions, the complex numbers, the dual
numbers) it solves with t's n^2 x n^2 left shift in A (x) A^op, and a
right inverse can fail from the left.  This module calls ``linmap``,
which never imports it, through the module: ``linmap.tensor_map`` and
``linmap.standard_from_coords``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from typing import Sequence

from . import exact, linmap
from .core import AlgElement, FreeAlgebra, is_associative, multiply, opposite
from .errors import AlgebraMismatch, EmptyFactorList, SingularTensor, SubstitutionCheckFailed
from .linmap import Tensor2


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
                      prod(v) if den == 1 else Fraction(prod(v), den))
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
    """The tensor u with t o u = u o t = unit tensor.

    Where sandwiching is an isomorphism (A associative, B of full rank),
    t's map x -> sum t^{ij} e_i x e_j, B vec(t), is inverted as an n x n
    matrix and carried back to standard components; t is singular exactly
    when that map is, and u is checked from both sides, a failure being a
    fault of the library.  Elsewhere solving t o u = unit with t's left
    shift in A (x) A^op gives a right inverse, then checked from the left.
    """
    algebra = t.algebra
    n = algebra.dim
    unit = Tensor2.unit(algebra)
    if is_associative(algebra) and linmap.b_matrix(algebra).rank() == n * n:
        try:
            g = linmap.tensor_map(t).inverse()
        except ValueError:
            raise SingularTensor("tensor has no inverse: its map is singular") from None
        u = linmap.standard_from_coords(g).particular
        if twisted_mul(u, t) != unit or twisted_mul(t, u) != unit:
            raise SubstitutionCheckFailed("tensor inverse through the maps fails a twisted product")
        return u
    shift, den = linmap.left_shift(_twisted_element(t)).ints
    try:
        particular, _ = exact.solve_ints(exact.blocks(shift, n * n),
                                         [v * den for v in unit.ints[0]])
    except ValueError:
        raise SingularTensor("tensor has no right inverse") from None
    u = Tensor2._of((algebra,), particular)
    if twisted_mul(u, t) != unit:
        raise SingularTensor(
            "right inverse exists but is not a left inverse", one_sided=True)
    return u
