"""Free finite-dimensional algebras over the rationals.

An algebra is given by its dimension, basis labels, and the sparse
structure constants B[i][j][k] with e_i * e_j = sum_k B[i][j][k] e_k.
Elements are coordinate vectors relative to that basis, held as int
numerators over one denominator (``exact.IntForm``).  All scalars are
exact rationals; no operation ever rounds.

The algebra holds its constants once, as integer numerators over one
common denominator, ``FreeAlgebra.denominator``, in two flat tables, A's
and A^op's, which ``FreeAlgebra.terms`` reads out.  One int kernel,
``product_ints``, makes every product of elements: ``multiply``,
``associator`` and the shifts and associator maps of ``linmap`` make one
``canonical`` per value they return.  ``+`` and ``-`` run on ints too.
``AlgElement.coords``, the Fractions, is built on first read; its values
and hash are those Fraction arithmetic gives.

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
    such as its component matrices, A (x) A^op and whether it is
    associative; it lives and dies with the algebra.
    """

    __slots__ = ("dim", "labels", "unit_index", "tag", "params", "denominator",
                 "_row_terms", "_col_terms", "_cache", "_basis")

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

        values: dict[tuple[int, int, int], int | Fraction] = {}
        for i, j, k, value in constants:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise InvalidAlgebra(f"constant index ({i},{j},{k}) out of range for dim {dim}")
            if (i, j, k) in values:
                raise InvalidAlgebra(f"duplicate structure constant for ({i},{j},{k})")
            values[i, j, k] = value if type(value) is int else frac(value)
        nonzero = sorted((key, v) for key, v in values.items() if v)
        ints, self.denominator = as_ints([v for _, v in nonzero])
        # sorted, e_i e_j as (j, k, v) in row i and as (i, k, v) in column j
        rows, cols = [[] for _ in range(dim)], [[] for _ in range(dim)]
        for ((i, j, k), _), v in zip(nonzero, ints):
            rows[i].append((j, k, v))
            cols[j].append((i, k, v))
        self._row_terms = tuple(map(tuple, rows))
        self._col_terms = tuple(map(tuple, cols))

        if unit_index is not None:
            if not 0 <= unit_index < dim:
                raise InvalidAlgebra(f"unit index {unit_index} out of range")
            self._check_unit(unit_index)
        self.unit_index = unit_index

    def _check_unit(self, u: int) -> None:
        expect = tuple((i, i, self.denominator) for i in range(self.dim))
        bad = [line for line in (self._row_terms[u], self._col_terms[u]) if line != expect]
        for i in range(self.dim):  # the first e_i with e_u e_i or e_i e_u not e_i
            if any([t for t in line if t[0] == i] != [expect[i]] for line in bad):
                raise InvalidAlgebra(f"basis vector {u} is not a two-sided unit: "
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
        return tuple((i, j, k, Fraction(v, self.denominator))
                     for i, row in enumerate(self._row_terms) for j, k, v in row)

    def terms(self, opposite: bool = False) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Row i lists the nonzero e_i * e_j as (j, k, numerator) over
        ``denominator``, sorted: A's table, or with ``opposite`` that of A^op,
        whose row j lists e_i * e_j as (i, k, numerator)."""
        return self._col_terms if opposite else self._row_terms

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
    """The opposite algebra A^op, with product x . y = y x: A's constants
    with i and j swapped, read off its column table, and the same unit."""
    den = algebra.denominator
    return FreeAlgebra(algebra.dim, algebra.labels,
                       [(j, i, k, v if den == 1 else Fraction(v, den))
                        for j, column in enumerate(algebra.terms(opposite=True))
                        for i, k, v in column],
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


def shared_algebra(x: AlgElement, *others: AlgElement) -> FreeAlgebra:
    """The algebra of x; AlgebraMismatch unless every element of ``others`` has it too."""
    algebra = x.algebra
    if any(y.algebra is not algebra for y in others):
        raise AlgebraMismatch(AlgElement._MISMATCH)
    return algebra


def product_ints(algebra: FreeAlgebra, xs, ys) -> list[int]:
    """The numerators of x y over x_den * y_den * ``algebra.denominator``, not
    reduced, from those of x and y: (x y)^k = sum_{i,j} B[i][j][k] x^i y^j.
    The loop runs over the operand with fewer nonzero coordinates, through
    row i of the flat table when it is x and column j when it is y."""
    out = [0] * algebra.dim
    if xs.count(0) >= ys.count(0):
        terms, short, other = algebra._row_terms, xs, ys
    else:
        terms, short, other = algebra._col_terms, ys, xs
    for a, s in enumerate(short):
        if s:
            for b, k, v in terms[a]:
                t = other[b]
                if t:
                    out[k] += s * t * v
    return out


def associator_ints(algebra: FreeAlgebra, xs, zs, xy, yz) -> list[int]:
    """The numerators of (x y) z - x (y z) over x_den y_den z_den D^2, D the
    algebra's denominator, not reduced, from the kernel's xy and yz."""
    return [p - q for p, q in zip(product_ints(algebra, xy, zs), product_ints(algebra, xs, yz))]


def multiply(x: AlgElement, y: AlgElement) -> AlgElement:
    """Product of two elements via the structure constants."""
    algebra = shared_algebra(x, y)
    (xs, x_den), (ys, y_den) = x.ints, y.ints
    return AlgElement._of((algebra,), canonical(product_ints(algebra, xs, ys),
                                                x_den * y_den * algebra.denominator))


def commutator(x: AlgElement, y: AlgElement) -> AlgElement:
    """[x, y] = xy - yx."""
    return multiply(x, y) - multiply(y, x)


def associator(x: AlgElement, y: AlgElement, z: AlgElement) -> AlgElement:
    """(x, y, z) = (xy)z - x(yz), over one denominator with no element in between."""
    algebra = shared_algebra(x, y, z)
    (xs, x_den), (ys, y_den), (zs, z_den) = x.ints, y.ints, z.ints
    xy, yz = product_ints(algebra, xs, ys), product_ints(algebra, ys, zs)
    return AlgElement._of((algebra,), canonical(associator_ints(algebra, xs, zs, xy, yz),
                                                x_den * y_den * z_den * algebra.denominator ** 2))


def is_commutative(algebra: FreeAlgebra) -> bool:
    """True iff B[i][j] = B[j][i] for all basis pairs: A's table is A^op's."""
    return algebra._row_terms == algebra._col_terms


def is_associative(algebra: FreeAlgebra) -> bool:
    """True iff the two triple contractions of the constants agree,
    i.e. (e_i e_j) e_k = e_i (e_j e_k) for all basis triples.  A fact of
    the immutable table, so it is cached on the algebra."""
    return algebra.cached("associative", lambda: _associative(algebra))


def _associative(algebra: FreeAlgebra) -> bool:
    n = algebra.dim
    t = [[[] for _ in range(n)] for _ in range(n)]  # t[i][j]: e_i e_j as [(k, v), ...]
    for i, row in enumerate(algebra._row_terms):
        for j, k, v in row:
            t[i][j].append((k, v))
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
    basis = a.algebra.basis()
    return all(associator(*triple).is_zero() for b in basis for c in basis
               for triple in ((a, b, c), (b, a, c), (b, c, a)))


def in_center(a: AlgElement) -> bool:
    """True iff ``a`` is in the nucleus and commutes with every basis vector."""
    return in_nucleus(a) and all(commutator(a, e).is_zero() for e in a.algebra.basis())


def random_element(algebra: FreeAlgebra, rng, bound: int = 9) -> AlgElement:
    """Element with coordinates p/q, |p| <= bound, 1 <= q <= bound,
    drawn from the given random.Random instance."""
    return algebra.element([
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        for _ in range(algebra.dim)])
