"""Free finite-dimensional algebras over the rationals.

An algebra is given by its dimension, basis labels, and the sparse
structure constants B[i][j][k] with e_i * e_j = sum_k B[i][j][k] e_k.
Elements are coordinate vectors relative to that basis, held as int
numerators over one denominator (``exact.IntForm``).  All scalars are
exact rationals; no operation ever rounds.

The table holds the constants once, as integer numerators over one
common denominator, ``FreeAlgebra.denominator``.  ``multiply``, ``+`` and
``-`` run on ints alone.  ``AlgElement.coords``, the Fractions, is built
on first read; its values and hash are those Fraction arithmetic gives.

Algebra identity is object identity: two separately constructed
algebras never mix, even with equal tables.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import AlgebraMismatch, InvalidAlgebra, NoUnit
from .exact import IntForm, as_ints, canonical, frac


_cache_lock = threading.Lock()


class FreeAlgebra:
    """A free algebra of finite dimension, defined by structure constants.

    ``constants`` is an iterable of (i, j, k, value) quadruples meaning
    that e_k appears in e_i * e_j with the given rational coefficient.
    Duplicate (i, j, k) triples are rejected rather than summed, to
    catch authoring mistakes in definition files.

    ``unit_index`` marks the basis vector acting as two-sided unit; it
    is validated against the stored constants.  ``tag`` and ``params``
    record how a built-in algebra was constructed (see
    :mod:`freealg.algebras`); user-defined algebras leave them None.

    ``_cache`` holds what :meth:`cached` builds from the algebra alone,
    such as its component matrices and A (x) A^op; it lives and dies
    with the algebra.
    """

    __slots__ = ("dim", "labels", "unit_index", "tag", "params", "denominator", "_table",
                 "_cache", "_basis")

    def __init__(self, dim: int, labels: Sequence[str],
                 constants: Iterable[tuple[int, int, int, object]],
                 unit_index: Optional[int] = None,
                 tag: Optional[str] = None,
                 params: Optional[tuple] = None):
        if dim < 1:
            raise InvalidAlgebra(f"dimension must be positive, got {dim}")
        if len(labels) != dim:
            raise InvalidAlgebra(f"expected {dim} labels, got {len(labels)}")
        self.dim = dim
        self.labels = tuple(str(s) for s in labels)
        self.tag = tag
        self.params = params
        self._cache: dict = {}
        self._basis = None

        values: dict[tuple[int, int, int], Fraction] = {}
        for i, j, k, value in constants:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise InvalidAlgebra(f"constant index ({i},{j},{k}) out of range for dim {dim}")
            if (i, j, k) in values:
                raise InvalidAlgebra(f"duplicate structure constant for ({i},{j},{k})")
            values[i, j, k] = frac(value)
        nonzero = [(key, v) for key, v in values.items() if v]
        ints, self.denominator = as_ints([v for _, v in nonzero])
        cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for ((i, j, k), _), v in zip(nonzero, ints):
            cells.setdefault((i, j), []).append((k, v))
        self._table = tuple(tuple(tuple(sorted(cells.get((i, j), ()))) for j in range(dim))
                            for i in range(dim))

        if unit_index is not None:
            if not 0 <= unit_index < dim:
                raise InvalidAlgebra(f"unit index {unit_index} out of range")
            self._check_unit(unit_index)
        self.unit_index = unit_index

    def _check_unit(self, u: int) -> None:
        for i in range(self.dim):
            expect = ((i, self.denominator),)
            if self._table[u][i] != expect or self._table[i][u] != expect:
                raise InvalidAlgebra(
                    f"basis vector {u} is not a two-sided unit: "
                    f"fails on basis vector {i}")

    def cached(self, key, build: Callable[[], object]):
        """The value stored under ``key``, made by ``build()`` on first use.

        Builds run under one lock, so concurrent first callers all get
        the same object.  ``build`` must not call ``cached`` itself: the
        lock is not reentrant.
        """
        with _cache_lock:
            value = self._cache.get(key)
            if value is None:
                value = self._cache[key] = build()
        return value

    @property
    def constants(self) -> tuple[tuple[int, int, int, Fraction], ...]:
        """Sorted nonzero structure constants as (i, j, k, value)."""
        return tuple((i, j, k, Fraction(v, self.denominator)) for i, row in enumerate(self._table)
                     for j, cell in enumerate(row) for k, v in cell)

    def basis_product(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """Nonzero components of e_i * e_j as ((k, numerator), ...) over ``denominator``."""
        return self._table[i][j]

    def zero(self) -> "AlgElement":
        return AlgElement._of((self,), ((0,) * self.dim, 1))

    def element(self, coords: Sequence) -> "AlgElement":
        return AlgElement(self, coords)

    def basis_element(self, i: int) -> "AlgElement":
        if not 0 <= i < self.dim:
            raise InvalidAlgebra(f"basis index {i} out of range")
        return AlgElement._of((self,), (tuple(int(j == i) for j in range(self.dim)), 1))

    def unit(self) -> "AlgElement":
        if self.unit_index is None:
            raise NoUnit("algebra has no unit")
        return self.basis_element(self.unit_index)

    def basis(self) -> list["AlgElement"]:
        if self._basis is None:  # racing callers build equal tuples; either one is kept
            self._basis = tuple(self.basis_element(i) for i in range(self.dim))
        return list(self._basis)

    def __repr__(self) -> str:
        name = self.tag or "algebra"
        return f"FreeAlgebra({name}, dim={self.dim})"


def opposite(algebra: FreeAlgebra) -> FreeAlgebra:
    """The opposite algebra A^op, with product x . y = y x: the same
    constants with i and j swapped, and the same unit."""
    return FreeAlgebra(algebra.dim, algebra.labels,
                       [(j, i, k, v) for i, j, k, v in algebra.constants],
                       unit_index=algebra.unit_index)


class AlgElement(IntForm):
    """An element of a FreeAlgebra: an exact coordinate vector.

    Values are immutable; arithmetic returns new elements.  ``*`` is the
    algebra product for two elements and scalar multiplication when one
    side is a rational scalar.  The constructor refuses a coordinate
    count other than the algebra's dimension and coerces with ``frac``.
    """

    __slots__ = ()
    _MISMATCH = "operands belong to different algebras"

    def __init__(self, algebra: FreeAlgebra, coords: Sequence):
        if len(coords) != algebra.dim:
            raise InvalidAlgebra(f"expected {algebra.dim} coordinates, got {len(coords)}")
        super().__init__((algebra,), tuple(frac(c) for c in coords))

    algebra = property(lambda self: self._space[0])
    coords = property(IntForm._fractions)

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            return multiply(self, other)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"


def format_element(x: AlgElement) -> str:
    """Human-readable form like '3/5 - 2*i'; '0' for the zero element."""
    parts = []
    for coeff, label in zip(x.coords, x.algebra.labels):
        if coeff == 0:
            continue
        if label in ("1", ""):
            term = str(abs(coeff))
        elif abs(coeff) == 1:
            term = label
        else:
            term = f"{abs(coeff)}*{label}"
        sign = "-" if coeff < 0 else "+"
        parts.append((sign, term))
    if not parts:
        return "0"
    first_sign, first_term = parts[0]
    text = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


def multiply(x: AlgElement, y: AlgElement) -> AlgElement:
    """Product of two elements via the structure constants.

    (x y)^k = sum_{i,j} B[i][j][k] x^i y^j; bilinear in both arguments.
    """
    algebra = x.algebra
    if y.algebra is not algebra:
        raise AlgebraMismatch(AlgElement._MISMATCH)
    xs, x_den = x.ints
    ys, y_den = y.ints
    out = [0] * algebra.dim
    y_support = [(j, yj) for j, yj in enumerate(ys) if yj]
    for xi, row in zip(xs, algebra._table):
        if not xi:
            continue
        for j, yj in y_support:
            c = xi * yj
            for k, v in row[j]:
                out[k] += c * v
    return AlgElement._of((algebra,), canonical(out, x_den * y_den * algebra.denominator))


def commutator(x: AlgElement, y: AlgElement) -> AlgElement:
    """[x, y] = xy - yx."""
    return multiply(x, y) - multiply(y, x)


def associator(x: AlgElement, y: AlgElement, z: AlgElement) -> AlgElement:
    """(x, y, z) = (xy)z - x(yz)."""
    return multiply(multiply(x, y), z) - multiply(x, multiply(y, z))


def is_commutative(algebra: FreeAlgebra) -> bool:
    """True iff B[i][j] = B[j][i] for all basis pairs."""
    t = algebra._table
    return all(t[i][j] == t[j][i]
               for i in range(algebra.dim) for j in range(i + 1, algebra.dim))


def is_associative(algebra: FreeAlgebra) -> bool:
    """True iff the two triple contractions of the constants agree,
    i.e. (e_i e_j) e_k = e_i (e_j e_k) for all basis triples."""
    n = algebra.dim
    t = algebra._table
    for i in range(n):
        for j in range(n):
            left_pairs = t[i][j]
            for k in range(n):
                lhs = [0] * n
                for p, v in left_pairs:
                    for q, w in t[p][k]:
                        lhs[q] += v * w
                rhs = [0] * n
                for p, v in t[j][k]:
                    for q, w in t[i][p]:
                        rhs[q] += v * w
                if lhs != rhs:
                    return False
    return True


def in_nucleus(a: AlgElement) -> bool:
    """True iff every associator involving ``a`` vanishes.

    Trilinearity of the associator reduces the quantifier over the whole
    algebra to basis vectors.
    """
    algebra = a.algebra
    basis = algebra.basis()
    for b in basis:
        for c in basis:
            if not associator(a, b, c).is_zero():
                return False
            if not associator(b, a, c).is_zero():
                return False
            if not associator(b, c, a).is_zero():
                return False
    return True


def in_center(a: AlgElement) -> bool:
    """True iff ``a`` is in the nucleus and commutes with every basis vector."""
    if not in_nucleus(a):
        return False
    return all(commutator(a, e).is_zero() for e in a.algebra.basis())


def random_element(algebra: FreeAlgebra, rng, bound: int = 9) -> AlgElement:
    """Element with coordinates p/q, |p| <= bound, 1 <= q <= bound,
    drawn from the given random.Random instance."""
    return algebra.element([
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        for _ in range(algebra.dim)])
