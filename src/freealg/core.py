"""Free finite-dimensional algebras over the rationals.

An algebra is given by its dimension, basis labels, and the sparse
structure constants B[i][j][k] with e_i * e_j = sum_k B[i][j][k] e_k.
Elements are coordinate vectors relative to that basis, held as int
numerators over one denominator (``exact.IntForm``).  All scalars are
exact rationals; no operation ever rounds.

The algebra holds its constants once, as integer numerators over one
common denominator, ``FreeAlgebra.denominator``, in two flat tables, A's
and A^op's, which ``FreeAlgebra.terms`` reads out.  One int kernel,
``product_ints``, makes the products of ``multiply``, ``associator`` and
``linmap``'s associator maps (its shifts walk the table themselves); like
every value, theirs keep the int form as built until ``ints`` reads it.
``product_ints`` takes one of three paths, chosen by the operands alone.
Dense ones go to code compiled once per algebra from its table, one
straight-line expression per output coordinate, which pays no interpreter
step per term of the table: ``product_kernel``'s, or on large operands
``paired_kernel``'s, which makes one product of coordinates for each pair
of terms x^i y^j, x^j y^i whose table rows are equal up to sign, as in C,
H, O and H (x) H.  When one operand has few nonzero coordinates, a loop
over those does fewer terms, as for ``in_nucleus``'s basis vectors.  The
same code generator compiles an int grid's mat-vec, ``compile_matvec``,
for the classes of ``linmap``'s component matrix.  ``+`` and ``-`` run on
ints too.
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
from .exact import IntForm, as_fractions, as_ints, canonical, frac


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
    such as its basis, its component matrices, A (x) A^op and whether it is
    associative; it lives and dies with the algebra, and ``_lock`` guards
    its first builds.
    """

    __slots__ = ("dim", "labels", "unit_index", "tag", "params", "denominator",
                 "_row_terms", "_col_terms", "_cache", "_lock")

    def __init__(self, dim: int, labels: Sequence[str],
                 constants: Iterable[tuple[int, int, int, object]],
                 unit_index: Optional[int] = None,
                 tag: Optional[str] = None,
                 params: Optional[tuple] = None):
        cells = [(i, j, k, v if type(v) is int else frac(v)) for i, j, k, v in constants]
        ints, den = as_ints([v for *_, v in cells])
        self._build(dim, labels, [(*c[:3], v) for c, v in zip(cells, ints)], den, unit_index,
                    tag, params)

    def _build(self, dim, labels, constants, den: int, unit_index, tag=None, params=None):
        """``__init__`` on constants (i, j, k, v) with int values v over ``den`` > 0,
        the path of every algebra; ``opposite`` and ``TensorAlgebra`` make no Fraction."""
        if dim < 1:
            raise InvalidAlgebra(f"dimension must be positive, got {dim}")
        if len(labels) != dim:
            raise InvalidAlgebra(f"expected {dim} labels, got {len(labels)}")
        self.dim = dim
        self.labels = tuple(str(s) for s in labels)
        if len(set(self.labels)) != dim:  # answers name basis vectors by label
            twice = next(s for i, s in enumerate(self.labels) if s in self.labels[:i])
            raise InvalidAlgebra(f"duplicate label {twice!r}")
        self.tag = tag
        self.params = params
        self._cache: dict = {}
        self._lock = threading.Lock()

        values: dict[tuple[int, int, int], int] = {}
        for i, j, k, value in constants:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise InvalidAlgebra(f"constant index ({i},{j},{k}) out of range for dim {dim}")
            if (i, j, k) in values:
                raise InvalidAlgebra(f"duplicate structure constant for ({i},{j},{k})")
            values[i, j, k] = value
        nonzero = sorted((key, v) for key, v in values.items() if v)
        ints, self.denominator = canonical([v for _, v in nonzero], den)
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

        Builds run under the algebra's own lock, so concurrent first callers
        all get the same object, and a build never waits for one on another
        algebra.  ``build`` must not call ``cached`` for a value not yet
        built, on any algebra: the lock is not reentrant, and two builds that
        nest across two algebras in opposite orders would wait on each other
        for ever.  A built value is read without the lock, so a
        read never waits for a build, which can take a second (B of
        O (x) O, the product of (H (x) H) (x) (H (x) H)^op).
        """
        value = self._cache.get(key)
        if value is None:
            with self._lock:
                value = self._cache.get(key)
                if value is None:
                    value = self._cache[key] = build()
        return value

    @property
    def constants(self) -> tuple[tuple[int, int, int, Fraction], ...]:
        """Sorted nonzero structure constants as (i, j, k, value)."""
        cells = [(i, j, k) for i, row in enumerate(self._row_terms) for j, k, _ in row]
        values = as_fractions([v for row in self._row_terms for *_, v in row], self.denominator)
        return tuple((*cell, v) for cell, v in zip(cells, values))

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
        return list(self.cached("basis", lambda: tuple(map(self.basis_element, range(self.dim)))))

    def __repr__(self) -> str:
        name = self.tag or "algebra"
        return f"FreeAlgebra({name}, dim={self.dim})"


def opposite(algebra: FreeAlgebra) -> FreeAlgebra:
    """The opposite algebra A^op, with product x . y = y x: A's constants
    with i and j swapped, read off its column table, and the same unit."""
    op = FreeAlgebra.__new__(FreeAlgebra)
    op._build(algebra.dim, algebra.labels,
              [(j, i, k, v) for j, column in enumerate(algebra.terms(opposite=True))
               for i, k, v in column],
              algebra.denominator, algebra.unit_index)
    return op


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


def product_ints(algebra: FreeAlgebra, xs, ys, x_den: int = 1, y_den: int = 1) -> list[int]:
    """The numerators of x y over x_den * y_den * ``algebra.denominator``, not
    reduced, from those of x and y: (x y)^k = sum_{i,j} B[i][j][k] x^i y^j.

    When the operand with fewer nonzero coordinates has nnz of them with
    4 nnz > dim, code compiled from the table makes every term without a
    branch: ``paired_kernel``'s when the smaller of x_den and y_den has at
    least ``PAIRED_BITS`` bits, else ``product_kernel``'s.
    Otherwise a loop runs over that operand's nonzero coordinates, through
    row i of the flat table when it is x and column j when it is y, and
    skips the zero terms the kernels would make: a one-hot operand, as
    ``in_nucleus`` passes, costs one row.
    Measured on 2 CPUs (Python 3.11), the loop and the kernel cost the same
    at nnz 2-3 on H (x) H (dim 16) and 16-26 on O (x) O (dim 64), the higher
    on 40-bit values; on O the kernel is never slower.  Sums of ints are
    exact, so the three paths give the same ints."""
    zx, zy = xs.count(0), ys.count(0)
    n = len(xs)
    if 4 * (zx if zx >= zy else zy) < 3 * n:  # 4 nnz > n, in the cheapest steps
        if min(x_den, y_den).bit_length() >= PAIRED_BITS:
            return (algebra._cache.get(_PAIRED) or paired_kernel(algebra))(xs, ys)
        return (algebra._cache.get(_KERNEL) or product_kernel(algebra))(xs, ys)
    out = [0] * n
    if zx >= zy:
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


_KERNEL, _PAIRED = "product_kernel", "paired_kernel"
# The paired code's time over the straight code's, by the bits of the smaller
# and the larger operand's ints (O / H (x) H, median of 21 alternating rounds,
# 2 CPUs, Python 3.11): the smaller operand decides.
#   smaller   larger = smaller   larger 330    larger 640
#      12        1.49 / 1.60     1.27 / 1.30   1.21 / 1.28
#      40        1.26 / 1.26     1.15 / 1.14   1.09 / 1.15
#      80        1.19 / 1.18     1.04 / 1.09   1.04 / 1.04
#     120        1.09 / 1.11     1.06 / 1.07   0.98 / 1.02
#     140        1.03 / 1.04     0.98 / 0.98   0.90 / 0.89
#     160        0.98 / 0.98     0.94 / 0.97   0.86 / 0.89
#     200        0.95 / 0.95     0.87 / 0.90   0.79 / 0.81
#     330        0.83 / 0.85     0.83 / 0.84   0.76 / 0.78
PAIRED_BITS = 160


def product_kernel(algebra: FreeAlgebra) -> Callable[[Sequence[int], Sequence[int]], list[int]]:
    """``product_ints`` of dense operands as one straight-line function of
    the algebra, compiled on first use and cached on it.

    Output k is one expression, sum_i x^i (sum_j c y^j) over the table's
    (i, j, k, c): the y-terms sharing (i, k) are factored, and c is a
    multiplier only when it is not +-1.  Each |c| is bound to a name, never
    written into the source as digits, and a sum past 256 terms nests in
    halves, so a long column compiles at any size.  Compiling took 0.4 ms
    for O, 1.6 ms for H (x) H^op, 29 ms for O (x) O and 0.57 s for
    (H (x) H) (x) (H (x) H)^op (2 CPUs, Python 3.11).  On large operands
    ``product_ints`` runs ``paired_kernel``'s code in its place."""
    return algebra.cached(_KERNEL, lambda: _compile_product(algebra))


def paired_kernel(algebra: FreeAlgebra) -> Callable[[Sequence[int], Sequence[int]], list[int]]:
    """``product_ints`` of large dense operands, with one multiplication per
    pair of terms, compiled on first use and cached on it.

    Each pair i < j with B[i][j][.] = s B[j][i][.] != 0, s = +-1, gives
    c x^i y^j + s c x^j y^i = c (m - d_i - s d_j) in output k, c = B[i][j][k],
    from the one product m = (x^i + s x^j)(y^i + y^j) and the diagonal
    products d_i = x^i y^i, each made once (Karatsuba and Ofman, 1963); a
    diagonal term reads d_i when it is made.  The other terms keep
    ``product_kernel``'s factored form, and a table whose pairs save no
    product of coordinates compiles that kernel's code.  O makes 36 such
    products in place of 64, H (x) H and H (x) H^op 136 in place of 256."""
    return algebra.cached(_PAIRED, lambda: _compile_product(algebra, paired=True))


def _pairs(algebra: FreeAlgebra) -> dict[tuple[int, int], bool]:
    """(i, j) -> s < 0 for each i < j with B[i][j][.] = s B[j][i][.] != 0, s = +-1."""
    lines: list[dict[int, dict]] = [{} for _ in range(algebra.dim)]  # i -> j -> {k: c}
    for i, row in enumerate(algebra._row_terms):
        for j, k, c in row:
            lines[i].setdefault(j, {})[k] = c
    pairs = {}
    for i, line in enumerate(lines):
        for j, ij in line.items():
            ji = lines[j].get(i) if i < j else None
            if ji == ij or ji and ij == {k: -c for k, c in ji.items()}:
                pairs[i, j] = ji != ij
    return pairs


def _compile_product(algebra: FreeAlgebra, paired: bool = False):
    n = algebra.dim
    pairs = _pairs(algebra) if paired else {}
    made = {i for pair in pairs for i in pair}  # the d_i
    groups: list[dict[int, list]] = [{} for _ in range(n)]  # k -> i -> [(j, c), ...]
    shared: list[list] = [[] for _ in range(n)]  # k -> [(c, "w{i}_{j}" or "d{i}"), ...]
    for i, row in enumerate(algebra._row_terms):
        for j, k, c in row:
            if (i, j) in pairs:
                shared[k].append((c, f"w{i}_{j}"))
            elif i == j and i in made:
                shared[k].append((c, f"d{i}"))
            elif (j, i) not in pairs:
                groups[k].setdefault(i, []).append((j, c))
    straight = len({(i, k) for i, row in enumerate(algebra._row_terms) for _, k, _ in row})
    if pairs and len(pairs) + len(made) + sum(map(len, groups)) >= straight:
        return _compile_product(algebra)  # the pairs save no product
    names: dict[int, str] = {}  # |c| != 1 -> the global bound to it
    outputs = []
    for by_i, terms in zip(groups, shared):
        terms = [_term(names, c, text) for c, text in terms]
        for i, ys in by_i.items():
            inner = [_term(names, c, f"y{j}") for j, c in ys]
            negative = inner[0][0]  # factored out, so the inner sum starts with +
            inner = [(s != negative, text) for s, text in inner]
            terms.append((negative, f"x{i}*{inner[0][1]}" if len(inner) == 1
                          else f"x{i}*({_sum_source(inner)})"))
        outputs.append(_sum_source(terms))
    lets = [f"d{i} = x{i}*y{i}" for i in sorted(made)] + [
        f"w{i}_{j} = (x{i} {'+-'[minus]} x{j})*(y{i} + y{j}) - d{i} {'-+'[minus]} d{j}"
        for (i, j), minus in pairs.items()]
    label = "paired product" if pairs else "product"
    return _compile(f"{label} of {algebra!r}", {"x": n, "y": n}, outputs, names, lets)


def compile_matvec(grid, label: str) -> Callable[[Sequence[int]], list[int]]:
    """v -> [sum(map(mul, row, v)) for row in grid], an int grid's mat-vec, as
    one straight-line expression per row, made as ``product_kernel``'s are:
    a row's zero entries are left out and the others written as +-v_j or
    +-c v_j, c bound to a name.  ``label`` names the code in tracebacks."""
    names: dict[int, str] = {}
    outputs = [_sum_source([_term(names, c, f"v{j}") for j, c in enumerate(row) if c])
               for row in grid]
    return _compile(label, {"v": len(grid[0]) if grid else 0}, outputs, names)


def _term(names: dict[int, str], c: int, text: str) -> tuple[bool, str]:
    """The term c text as (negative, source), |c| bound in ``names`` unless it is 1."""
    if abs(c) == 1:
        return c < 0, text
    return c < 0, f"{names.setdefault(abs(c), f'c{len(names)}')}*{text}"


def _sum_source(terms: list[tuple[bool, str]]) -> str:
    """Source of the sum of (negative, text) terms, "0" without terms, nested in
    halves past 256 terms: the compiler recurses once per term of a flat chain."""
    if not terms:
        return "0"
    if len(terms) > 256:
        half = len(terms) // 2
        return f"{_sum_source(terms[:half])} + ({_sum_source(terms[half:])})"
    (negative, first), rest = terms[0], terms[1:]
    return ("-" if negative else "") + first + "".join(
        f" {'-' if s else '+'} {text}" for s, text in rest)


def _compile(label: str, widths: dict[str, int], outputs: list[str], names: dict[int, str],
             lets: Sequence[str] = ()):
    """The function of one int sequence per letter a of ``widths``, unpacked into
    a0, a1, ..., that runs the assignments ``lets`` and returns the list of
    ``outputs``, with each name in ``names`` bound to its int."""
    unpack = "".join(f"    {''.join(f'{a}{i}, ' for i in range(width))}= {a}s\n"
                     for a, width in widths.items() if width)
    source = (f"def kernel({', '.join(f'{a}s' for a in widths)}):\n{unpack}"
              + "".join(f"    {line}\n" for line in lets)
              + "    return [\n" + "".join(f"        {e},\n" for e in outputs) + "    ]\n")
    namespace = {name: c for c, name in names.items()}
    exec(compile(source, f"<{label}>", "exec"), namespace)
    return namespace["kernel"]


def multiply(x: AlgElement, y: AlgElement) -> AlgElement:
    """Product of two elements via the structure constants."""
    algebra = shared_algebra(x, y)
    (xs, x_den), (ys, y_den) = x._form, y._form
    nums = product_ints(algebra, xs, ys, x_den, y_den)
    return AlgElement._of((algebra,), (nums, x_den * y_den * algebra.denominator))


def commutator(x: AlgElement, y: AlgElement) -> AlgElement:
    """[x, y] = xy - yx."""
    return multiply(x, y) - multiply(y, x)


def associator(x: AlgElement, y: AlgElement, z: AlgElement) -> AlgElement:
    """(x, y, z) = (xy)z - x(yz), over one denominator with no element in between."""
    algebra = shared_algebra(x, y, z)
    (xs, x_den), (ys, y_den), (zs, z_den) = x._form, y._form, z._form
    d = algebra.denominator
    xy_den, yz_den = x_den * y_den * d, y_den * z_den * d  # those of xy and yz
    xy = product_ints(algebra, xs, ys, x_den, y_den)
    yz = product_ints(algebra, ys, zs, y_den, z_den)
    den = xy_den * z_den  # that of both outer products
    nums = [p - q for p, q in zip(product_ints(algebra, xy, zs, xy_den, z_den),
                                  product_ints(algebra, xs, yz, x_den, yz_den))]
    return AlgElement._of((algebra,), (nums, den * algebra.denominator))


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
