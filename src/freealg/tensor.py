"""Tensor products of free algebras.

Two distinct products live on tensors:

  * the componentwise product on a TensorAlgebra, where basis tensors
    multiply factorwise: (a1 (x) a2)(b1 (x) b2) = (a1 b1) (x) (a2 b2);
  * the twisted product on 2-tensors over a single algebra A,
    (a (x) b) o (c (x) d) = (ac) (x) (db), which is the one making
    tensors act on linear maps by sandwiching.

They are deliberately separate operations on separate types.
The basis of a TensorAlgebra is ordered row-major over factor indices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import exact
from .core import AlgElement, FreeAlgebra, multiply
from .errors import AlgebraMismatch, EmptyFactorList, NoUnit, SingularTensor
from .exact import frac


class TensorAlgebra(FreeAlgebra):
    """The tensor product of free algebras, itself a free algebra.

    Structure constants are products of the factors' constants, so the
    componentwise product rule holds on basis tensors by construction.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[FreeAlgebra]):
        if not factors:
            raise EmptyFactorList("tensor product needs at least one factor")
        factors = tuple(factors)
        dims = [a.dim for a in factors]
        dim = 1
        for d in dims:
            dim *= d

        def flat(multi):
            idx = 0
            for a, i in zip(factors, multi):
                idx = idx * a.dim + i
            return idx

        labels = []
        for idx in range(dim):
            multi = self._unflatten_static(idx, dims)
            labels.append("(x)".join(a.labels[i] for a, i in zip(factors, multi)))

        constants = []
        for ki in range(dim):
            km = self._unflatten_static(ki, dims)
            for li in range(dim):
                lm = self._unflatten_static(li, dims)
                # product of per-factor basis products, expanded over all
                # combinations of their nonzero components
                partial = [((), Fraction(1))]
                for a, kf, lf in zip(factors, km, lm):
                    cell = a.basis_product(kf, lf)
                    if not cell:
                        partial = []
                        break
                    partial = [(idxs + (p,), val * v)
                               for idxs, val in partial for p, v in cell]
                for idxs, val in partial:
                    constants.append((ki, li, flat(idxs), val))

        unit = None
        if all(a.unit_index is not None for a in factors):
            unit = flat([a.unit_index for a in factors])
        super().__init__(dim, labels, constants, unit_index=unit)
        self.factors = factors

    @staticmethod
    def _unflatten_static(idx: int, dims: list[int]) -> tuple[int, ...]:
        out = []
        for d in reversed(dims):
            out.append(idx % d)
            idx //= d
        return tuple(reversed(out))

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
        coords = [Fraction(1)]
        for part in parts:
            coords = [c * x for c in coords for x in part.coords]
        return self.element(coords)

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


class Tensor2:
    """An element of A (x) A in standard components, carrying the twisted
    product: it is this object that acts on linear maps."""

    __slots__ = ("algebra", "components")

    def __init__(self, algebra: FreeAlgebra, components):
        n = algebra.dim
        if len(components) != n or any(len(row) != n for row in components):
            raise ValueError(f"components must form an {n}x{n} grid")
        self.algebra = algebra
        self.components = tuple(tuple(frac(v) for v in row) for row in components)

    @classmethod
    def basis_tensor(cls, algebra: FreeAlgebra, i: int, j: int) -> "Tensor2":
        n = algebra.dim
        return cls(algebra, [[Fraction(r == i and c == j) for c in range(n)]
                             for r in range(n)])

    @classmethod
    def pure(cls, a: AlgElement, b: AlgElement) -> "Tensor2":
        if a.algebra is not b.algebra:
            raise AlgebraMismatch("both parts must share one algebra")
        return cls(a.algebra, [[x * y for y in b.coords] for x in a.coords])

    @classmethod
    def unit(cls, algebra: FreeAlgebra) -> "Tensor2":
        if algebra.unit_index is None:
            raise NoUnit("unit tensor needs a unital algebra")
        u = algebra.unit_index
        return cls.basis_tensor(algebra, u, u)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.components for v in row)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tensor2)
                and self.algebra is other.algebra
                and self.components == other.components)

    def __hash__(self):
        return hash((id(self.algebra), self.components))

    def __add__(self, other: "Tensor2") -> "Tensor2":
        if self.algebra is not other.algebra:
            raise AlgebraMismatch("tensors over different algebras")
        return Tensor2(self.algebra, exact.mat_add(
            [list(r) for r in self.components], [list(r) for r in other.components]))

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return self + other.scaled(-1)

    def scaled(self, scalar) -> "Tensor2":
        s = frac(scalar)
        return Tensor2(self.algebra, [[s * v for v in row] for row in self.components])

    def __repr__(self) -> str:
        return f"Tensor2(dim={self.algebra.dim})"


def twisted_mul(s: Tensor2, t: Tensor2) -> Tensor2:
    """(s o t)^{pq} = sum s^{ij} t^{kl} B[i][k][p] B[l][j][q], the
    bilinear extension of (a (x) b) o (c (x) d) = (ac) (x) (db)."""
    if s.algebra is not t.algebra:
        raise AlgebraMismatch("tensors over different algebras")
    algebra = s.algebra
    n = algebra.dim
    table = algebra._table
    out = exact.zeros(n, n)
    for i in range(n):
        for j in range(n):
            sij = s.components[i][j]
            if sij == 0:
                continue
            for k in range(n):
                for l in range(n):
                    tkl = t.components[k][l]
                    if tkl == 0:
                        continue
                    c = sij * tkl
                    for p, v1 in table[i][k]:
                        for q, v2 in table[l][j]:
                            out[p][q] += c * v1 * v2
    return Tensor2(algebra, out)


def tensor_inverse(t: Tensor2) -> Tensor2:
    """The tensor u with t o u = u o t = unit tensor, found by solving
    the n^2 x n^2 linear system for a right inverse and then checking it
    from the left.  ``t`` is nonsingular exactly when this succeeds."""
    algebra = t.algebra
    unit = Tensor2.unit(algebra)
    n = algebra.dim
    table = algebra._table
    # matrix of u -> vec(t o u): row (p, q), column (k, l)
    system = exact.zeros(n * n, n * n)
    for i in range(n):
        for j in range(n):
            tij = t.components[i][j]
            if tij == 0:
                continue
            for k in range(n):
                for l in range(n):
                    for p, v1 in table[i][k]:
                        for q, v2 in table[l][j]:
                            system[p * n + q][k * n + l] += tij * v1 * v2
    rhs = [v for row in unit.components for v in row]
    try:
        particular, _ = exact.solve(system, rhs)
    except ValueError:
        raise SingularTensor("tensor has no right inverse") from None
    u = Tensor2(algebra, [list(particular[r * n:(r + 1) * n]) for r in range(n)])
    if twisted_mul(u, t) != unit:
        raise SingularTensor(
            "right inverse exists but is not a left inverse", one_sided=True)
    return u
