"""Differential property tests of the component matrix and the product, and
the value contract of every operation.

Random structure-constant algebras of dimension 1 to 5, with sparse
constants, with and without a unit at index 0, and with small or
40-bit rational values, are checked against the plain-``Fraction``
definitions in ``oracle.py``: the product, the sandwiches x -> (e_i x) e_j
and x -> e_i (x e_j), whose coordinate matrices are the columns of the
component matrix, and the twisted product.  Orbit membership must find a
tensor for each map S f, S the sandwich of a tensor.  ``check_inverse``
holds ``tensor_inverse`` to the oracle's solve of t o u = unit.  Each example builds
a fresh algebra, so no cached component matrix carries over from one
example to the next.  The other test modules share the strategies here.

Elements, maps and tensors read an integer form, ``.ints``: int numerators
over one positive denominator, primitive, the zero vector over 1, which
``oracle.int_form`` gives.  ``CONTRACT`` has one row per operation that
returns such a value: its name, the library functions it is the home of,
the algebra families it runs on, how one draw builds its values and their
expected views, which see only the draw's raw operands and the algebras'
definitions, ``Operands``, and reach them through ``oracle.py`` alone.
One property draws an algebra and its operands once per example, each
operand on first use, and holds every row that applies to the value it
builds: its hash, view and ``is_zero`` before the first ``.ints`` read,
then that form and ``==`` against the value a constructor makes from the
view.  A row whose oracle says there is no answer expects its refusal.
A row runs 25 examples per family, H's tensor arithmetic 100, and rows
with a costly oracle, O's 64 x 64 solves, fewer.  Each row's values are
also read first from eight threads at once, and every function that
returns a value has exactly one row.

The runs use the derandomized profile of ``conftest.py``.
"""

import inspect
import json
import re
import sys
import tempfile
import threading
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import cycle
from math import gcd
from pathlib import Path
from random import Random

from hypothesis import assume, given, settings, strategies as st
import pytest

import freealg
import freealg.golden
from freealg import (AlgElement, ComplexAdditiveMap, LinearMap, MapMatrix, MinorSingular,
                     NotRepresentable, SingularSystem, SingularTensor, Tensor2, apply,
                     associator, b_matrix, cli, commutator, complex_algebra, compose, conjugate,
                     coords_from_standard, cr_product, inverse_element,
                     inverse_map_matrix, left_shift, multiply, octonion_algebra, orbit_contains,
                     quasideterminant, quaternion_algebra, random_element, rc_product,
                     representation_basis, right_shift, rotate, sandwich, solve_additive,
                     standard_from_coords, tensor_inverse, tensor_mul, tensor_product,
                     twisted_mul)
from freealg.core import FreeAlgebra
from freealg.exact import IntForm
from freealg.linmap import left_associator_map, right_associator_map, table_map, tensor_map
from freealg.solver import _recursive_inverse
import oracle

SMALL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
BIG = st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**40))
VALUES = st.one_of(SMALL, BIG)
ZERO = Fraction(0)
NONZERO = st.builds(Fraction, st.integers(1, 2**40) | st.integers(-2**40, -1),
                    st.integers(1, 2**40))
H = quaternion_algebra()
BUILTINS = {"C": complex_algebra(), "H": H, "O": octonion_algebra(),
            "H(x)H": tensor_product([H, H])}
C = BUILTINS["C"]


@st.composite
def definitions(draw, unital=None):
    """(dim, constants, unit index) of an algebra; with a unit, e_0 is the
    unit and the other constants are drawn for products of e_1 .. e_{n-1}."""
    n = draw(st.integers(1, 5))
    if unital is None:
        unital = draw(st.booleans())
    first = 1 if unital else 0
    cells = [(i, j, k) for i in range(first, n) for j in range(first, n) for k in range(n)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=2 * n)) if cells else []
    constants = [(i, j, k, draw(VALUES)) for i, j, k in chosen]
    if unital:
        constants += [(0, j, j, 1) for j in range(n)]
        constants += [(j, 0, j, 1) for j in range(1, n)]
    return n, constants, 0 if unital else None


def build(definition):
    n, constants, unit = definition
    return FreeAlgebra(n, [f"e{i}" for i in range(n)], constants, unit_index=unit)


def algebras(unital=None):
    """A fresh algebra, built from ``definitions``."""
    return definitions(unital).map(build)


def grids(n, values=VALUES):
    """n x n grids of ``values``, drawn as one flat list: a nested draw of a
    dense 8 x 8 grid took 1.6 times as long (2 CPUs, Python 3.11)."""
    return st.lists(values, min_size=n * n, max_size=n * n).map(lambda flat: cut(flat, n))


def sparse_grids(n):
    """n x n grids with SMALL values in at most n cells and 0 elsewhere."""
    cells = st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), SMALL,
                            max_size=n)
    return cells.map(lambda d: [[d.get((r, k), ZERO) for k in range(n)] for r in range(n)])


def table(algebra):
    return oracle.table(algebra.constants, algebra.dim)


@given(algebras(), st.sampled_from(["left", "right"]))
def test_b_matrix_matches_the_contraction(algebra, order):
    assert b_matrix(algebra, order).entries == oracle.component_matrix(table(algebra), order)


@given(st.data())
def test_multiply_matches_the_constants(data):
    algebra = data.draw(algebras())
    n = algebra.dim
    x = data.draw(st.lists(VALUES, min_size=n, max_size=n))
    y = data.draw(st.lists(VALUES, min_size=n, max_size=n))
    expected = tuple(oracle.mul(table(algebra), x, y))
    assert multiply(algebra.element(x), algebra.element(y)).coords == expected


def matrices(rows, cols):
    return st.lists(st.lists(VALUES, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@given(st.data())
def test_apply_matches_a_fraction_mat_vec(data):
    # f: A -> B and g: B -> A between algebras of independent dimensions
    A, B = data.draw(algebras()), data.draw(algebras())
    f, g = data.draw(matrices(B.dim, A.dim)), data.draw(matrices(A.dim, B.dim))
    x = data.draw(st.lists(VALUES, min_size=A.dim, max_size=A.dim))
    expected = tuple(sum((v * w for v, w in zip(row, x)), ZERO) for row in f)
    f, g, x = LinearMap(A, B, f), LinearMap(B, A, g), A.element(x)
    y = apply(f, x)
    assert y.algebra is B and y.coords == expected
    assert y.ints == oracle.int_form(expected)
    assert apply(compose(g, f), x) == apply(g, y)


@given(st.data(), st.sampled_from(["left", "right"]), st.booleans())
def test_standard_components_round_trip(data, order, image):
    algebra = data.draw(algebras(unital=True))
    n = algebra.dim
    grid = data.draw(grids(n))
    if image:
        # the map of the tensor ``grid`` by the oracle's sandwich, so
        # that singular component matrices also reach the round trip
        grid = oracle.sandwich(table(algebra), grid, order)
    g = LinearMap(algebra, algebra, grid)
    try:
        solution = standard_from_coords(g, order)
    except NotRepresentable:
        return
    identity = LinearMap.identity(algebra)
    assert coords_from_standard(solution.particular, identity, order) == g
    zero = LinearMap.zero(algebra)
    for t in solution.nullspace:
        assert coords_from_standard(t, identity, order) == zero


def action(c, t, f, order):
    """The grid of t acting on the map f: S f, S the sandwich of t."""
    return oracle.matmul(oracle.sandwich(c, t, order), f)


@settings(max_examples=40)
@given(st.data(), st.sampled_from(["C", "H", "O", "random"]))
def test_orbit_membership_finds_a_tensor_for_each_image(data, name):
    # g = t acting on f lies in f's orbit, so orbit_contains must give a
    # tensor, not necessarily t, whose action on f is g.  O's 64 x 64
    # solves take sparse grids of small values: 40-bit ones take minutes.
    algebra = data.draw(algebras()) if name == "random" else BUILTINS[name]
    n, c = algebra.dim, table(algebra)
    t, f = (data.draw(sparse_grids(n) if name == "O" else grids(n)) for _ in range(2))
    for order in ("left", "right"):
        g = action(c, t, f, order)
        found = orbit_contains(LinearMap(algebra, algebra, g), LinearMap(algebra, algebra, f),
                               order)
        assert found is not None
        assert action(c, found.components, f, order) == g


def check_inverse(algebra, comps):
    """tensor_inverse against a plain-Fraction solve of t o u = unit: the
    particular solution u, with free components 0, when u o t = unit too;
    SingularTensor, one-sided exactly when that solve succeeds, otherwise."""
    u = two_sided_inverse(table(algebra), algebra.unit_index, comps)
    if u:
        assert [list(row) for row in tensor_inverse(Tensor2(algebra, comps)).components] == u
        return True
    with pytest.raises(SingularTensor) as err:
        tensor_inverse(Tensor2(algebra, comps))
    assert err.value.one_sided == (u is not None)
    return False


@settings(max_examples=40)
@given(st.data(), st.sampled_from(["C", "H", "O", "random"]))
def test_tensor_inverse_is_two_sided_or_refused(data, name):
    # Short of a left action of full rank, t o u = unit may still be solvable
    # in an algebra that is not associative.  Sparse tensors reach those
    # cases, and keep the reference solve of O's 64 x 64 short.
    algebra = data.draw(algebras(unital=True)) if name == "random" else BUILTINS[name]
    n = algebra.dim
    check_inverse(algebra, data.draw(sparse_grids(n) if name == "O"
                                     else grids(n) | sparse_grids(n)))


# -- the oracle's side of the contract: raw draws in, expected views out ------

def unit_vector(n, j):
    return [Fraction(int(k == j)) for k in range(n)]


def unit_grid(n, i, j):
    return [[Fraction(int(r == i and m == j)) for m in range(n)] for r in range(n)]


def cut(values, n):
    """``values`` cut into rows of n."""
    return [list(values[r:r + n]) for r in range(0, len(values), n)]


def sub(p, q):
    return [v - w for v, w in zip(p, q)]


def inverse(x):
    """conj(x) / |x|^2, |x|^2 the sum of the squared coordinates."""
    norm = sum(v * v for v in x)
    return [v / norm for v in conj(x)]


def listed(view):
    """[view], or None for no view."""
    return [view] if view else None


def outer(p, q):
    return [[v * w for w in q] for v in p]


def matvec(f, x):
    return [row[0] for row in oracle.matmul(f, [[v] for v in x])]


def columns(n, image):
    """The n x n coordinate grid of the map whose column j is image(e_j)."""
    return [list(row) for row in zip(*(image(unit_vector(n, j)) for j in range(n)))]


def conj(x):
    return [x[0], *(-v for v in x[1:])]


def identity_grid(n, rows):
    """The rows x rows grid of the identity and zero maps of dim n, row by row."""
    one, zero = oracle.identity(n), [[0] * n for _ in range(n)]
    return [one if r == m else zero for r in range(rows) for m in range(rows)]


def blocks_of(flat_inverse, rows, n):
    """The rows x rows grid of n x n maps cut from a flattening, row by row."""
    return [[row[j * n:j * n + n] for row in flat_inverse[i * n:i * n + n]]
            for i in range(rows) for j in range(rows)]


def flatten_maps(grid, n):
    return [[v for f in band for v in f[i]] for band in grid for i in range(n)]


def random_coordinates(seed, n, bound=9):
    """The coordinates ``random_element`` draws from Random(seed): p/q with
    |p| <= bound and 1 <= q <= bound, one after the other."""
    rng = Random(seed)
    return [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(n)]


def two_sided_inverse(c, unit, t):
    """The particular solution u of t o u = unit, free components 0, when
    u o t = unit too; None when t o u = unit has no solution, else False."""
    n = len(c)
    e = unit_grid(n, unit, unit)
    solved = oracle.solve(oracle.left_action(c, t), oracle.flat(e))
    u = solved and cut(solved[1], n)
    return u and oracle.twisted(c, u, t) == e and u


def orbit_tensor(c, t, f, order):
    """The particular solution, free components 0, of the system of orbit
    columns e_i (x) e_j acting on f for t acting on f."""
    n = len(c)
    cols = [oracle.flat(action(c, unit_grid(n, i, j), f, order))
            for i in range(n) for j in range(n)]
    _, particular, _ = oracle.solve([list(row) for row in zip(*cols)],
                                    oracle.flat(action(c, t, f, order)))
    return cut(particular, n)


def standard_components(c, s, order):
    """The particular tensor and the null tensors of B y = vec(g), g the map of s."""
    n = len(c)
    if n > 8:  # B of H (x) H has full rank: s is the one solution
        return [s]
    _, particular, nullspace = oracle.solve(oracle.component_matrix(c, order),
                                            oracle.flat(oracle.sandwich(c, s, order)))
    return [cut(v, n) for v in (particular, *nullspace)]


def generators(c, unit, order):
    """``representation_basis`` by its definition: from the identity, while the
    orbits found do not span all maps, the first e_k outside their span
    (row-major), made orthogonal to it and scaled to primitive ints."""
    n = len(c)
    if unit is None:
        return None
    gens, rows = [], []
    g = oracle.identity(n)
    while g:
        gens.append(g)
        rows += [oracle.flat(action(c, unit_grid(n, i, j), g, order))
                 for i in range(n) for j in range(n)]
        rows, pivots = oracle.rref(rows)
        rows = rows[:len(pivots)]
        outside = [k for k in range(n * n) if k not in pivots
                   or sum(map(bool, rows[pivots.index(k)])) > 1]
        g = None
        if outside:
            e = unit_vector(n * n, outside[0])
            y = oracle.solve(oracle.matmul(rows, [list(col) for col in zip(*rows)]),
                             matvec(rows, e))[1]
            v = [w - sum(r[k] * yi for r, yi in zip(rows, y)) for k, w in enumerate(e)]
            nums, _ = oracle.int_form(v)
            g = cut([Fraction(p, gcd(*nums)) for p in nums], n)
    return gens


def added(grids):
    """The entrywise sum of grids of one shape."""
    return [[sum(vs) for vs in zip(*rows)] for rows in zip(*grids)]


def grid_products(grid):
    """Entry by entry, row by row: the rc product of a grid of maps with itself,
    sum_k g[a][k] g[k][d], its cr product, sum_k g[k][d] g[a][k], and its transpose."""
    r = range(len(grid))
    return [*(added([oracle.matmul(grid[a][k], grid[k][d]) for k in r]) for a in r for d in r),
            *(added([oracle.matmul(grid[k][d], grid[a][k]) for k in r]) for a in r for d in r),
            *(grid[m][a] for a in r for m in r)]


def quasideterminant_view(grid, minor):
    """entry (0, 0) minus row-rest o minor^-1 o column-rest, ``minor`` the
    inverse of entry (1, 1), or None for a singular minor; a 1 x 1 grid's is
    its entry."""
    if len(grid) == 1:
        return grid[0][0]
    return minor and [sub(p, q) for p, q in zip(
        grid[0][0], oracle.matmul(grid[0][1], oracle.matmul(minor, grid[1][0])))]


# -- one draw ---------------------------------------------------------------

def coordinates(n, values=VALUES):
    """n values, at most 4 of them nonzero past dim 8, so that the references
    on H (x) H stay fast."""
    if n <= 8:
        return st.lists(values, min_size=n, max_size=n)
    cells = st.dictionaries(st.integers(0, n - 1), values, max_size=4)
    return cells.map(lambda d: [d.get(k, ZERO) for k in range(n)])


def map_grids(n, values):
    """1 x 1 or 2 x 2 grids of maps: dense, of SMALL values past dim 4, sparse past 8."""
    maps = sparse_grids(n) if n > 8 else grids(n, SMALL if n > 4 else values)
    return st.integers(1, 2).flatmap(lambda rows: st.lists(
        maps, min_size=rows * rows, max_size=rows * rows).map(lambda m: cut(m, rows)))


# The raw operands of one example, each drawn on its first read: the
# strategy of the namespace o.  Maps are sparse past dim 8, tensors past dim 4;
# "ot" and "of" are the orbit rows' t and f, sparse on O alone.
DRAWS = {
    "x": lambda o: coordinates(o.n, o.values),
    "y": lambda o: coordinates(o.n, o.values),
    "z": lambda o: coordinates(o.n, o.values),
    "f": lambda o: sparse_grids(o.n) if o.n > 8 else grids(o.n, o.values),
    "g": lambda o: sparse_grids(o.n) if o.n > 8 else grids(o.n, o.values),
    "s": lambda o: sparse_grids(o.n) if o.n > 4 else grids(o.n, o.values),
    "t": lambda o: sparse_grids(o.n) if o.n > 4 else grids(o.n, o.values),
    "ot": lambda o: sparse_grids(o.n) if o.name == "O" else grids(o.n, o.values),
    "of": lambda o: sparse_grids(o.n) if o.name == "O" else grids(o.n, o.values),
    "u": lambda o: coordinates(o.second_n, o.values),
    "v": lambda o: coordinates(o.second_n, o.values),
    "q": lambda o: NONZERO,
    "k": lambda o: st.integers(2, 2**40),
    "i": lambda o: st.integers(0, o.n - 1),
    "j": lambda o: st.integers(0, o.n - 1),
    "seed": lambda o: st.integers(0, 2**32),
    "order": lambda o: st.sampled_from(["left", "right"]),
    "grid": lambda o: map_grids(o.n, o.values),
    "singular": lambda o: st.booleans(),
    # 'p/q + r/s*I' with both terms written over k times their denominator
    "entry": lambda o: st.tuples(st.integers(-40, 40), st.integers(1, 12),
                                 st.integers(-40, 40), st.integers(1, 12), st.integers(1, 6)),
}

# What the raw operands and the algebras' definitions alone tell, through the oracle
FACTS = {
    "c": lambda o: oracle.table(o.constants, o.n),
    "xy": lambda o: oracle.mul(o.c, o.x, o.y),
    "yx": lambda o: oracle.mul(o.c, o.y, o.x),
    "ac": lambda o: tensor_table(o.n, o.constants, o.second_n, o.second_constants),
    "flat": lambda o: flatten_maps(o.grid, o.n),
    "inverse": lambda o: oracle.inverse(o.flat),
    "inverses": lambda o: [oracle.inverse(f) for band in o.grid for f in band]
    if len(o.grid) > 1 else [o.inverse],
    "minors": lambda o: all(o.inverses),
    # a singular system repeats the first row of maps, the only one of a 1 x 1 twice
    "system": lambda o: ([o.grid[0]] * 2 if len(o.grid) == 2 else [o.grid[0] * 2] * 2)
    if o.singular else o.grid,
    "b": lambda o: [o.x, o.y][:len(o.system)],
    "solved": lambda o: oracle.solve(flatten_maps(o.system, o.n), oracle.flat(o.b)),
    "regular": lambda o: bool(o.solved) and o.solved[0] == len(o.system) * o.n,
}

# The library's values, built from the raw operands
BUILT = {
    "C": lambda o: C,
    "X": lambda o: o.A.element(o.x),
    "Y": lambda o: o.A.element(o.y),
    "Z": lambda o: o.A.element(o.z),
    "F": lambda o: LinearMap(o.A, o.A, o.f),
    "G": lambda o: LinearMap(o.A, o.A, o.g),
    "S": lambda o: Tensor2(o.A, o.s),
    "T": lambda o: Tensor2(o.A, o.t),
    "M": lambda o: maps_of(o, o.grid),
    "AC": lambda o: tensor_algebra(o.A, o.second),
    "loaded": lambda o: load(o),
    "L": lambda o: o.loaded[0],
}


class Operands:
    """The raw operands of one example, each drawn by ``draw`` from ``DRAWS``
    on its first read, and the ``FACTS``, from these and the definitions of
    family ``name``'s algebra A (``n``, ``constants``, ``unit``) and of the
    second factor of its tensor products (``second_n``, ``second_constants``);
    ``values`` draws the coordinates.  The expected views read this alone."""

    def __init__(self, draw, name, A, second, values):
        self.draw, self.name, self.values = draw, name, values
        self.n, self.constants, self.unit = A.dim, A.constants, A.unit_index
        self.second_n, self.second_constants = second.dim, second.constants

    def __getattr__(self, key):
        if key in DRAWS:
            value = self.draw(DRAWS[key](self))
        elif key in FACTS:
            value = FACTS[key](self)
        else:
            raise AttributeError(key)
        setattr(self, key, value)
        return value


class Draw:
    """One example: family ``name``'s algebra A, its ``Operands`` ``raw``,
    read through as attributes, and the ``BUILT`` values, each built on its
    first read; ``second`` is the second factor of A's tensor products."""

    def __init__(self, draw, name, values=VALUES, second=C):
        self.A, self.second = draw(algebras()) if name == "random" else BUILTINS[name], second
        self.raw = Operands(draw, name, self.A, second, values)

    def __getattr__(self, key):
        if key not in BUILT:
            return getattr(self.raw, key)
        value = BUILT[key](self)
        setattr(self, key, value)
        return value


def load(o):
    """``cli.load_system`` of a file of the system [[f, g], [g, f]] x = [x, y],
    and ``cli.load_matrix_file`` of a file of f's rows."""
    name = {"C": "complex", "H": "quaternion", "O": "octonion"}[o.name]
    doc = {"algebra": name, "matrix": [[[[str(v) for v in row] for row in f] for f in band]
                                       for band in [[o.f, o.g], [o.g, o.f]]],
           "rhs": [[str(v) for v in y] for y in [o.x, o.y]]}
    with tempfile.TemporaryDirectory() as folder:
        system, rows = Path(folder) / "system.json", Path(folder) / "map.txt"
        system.write_text(json.dumps(doc), encoding="utf-8")
        rows.write_text("".join(" ".join(map(str, row)) + "\n" for row in o.f), encoding="utf-8")
        return (*cli.load_system(str(system)), cli.load_matrix_file(str(rows), o.A))


@lru_cache(maxsize=4)
def tensor_table(dim, constants, second_dim, second_constants):
    """The oracle's table of A (x) B from the constants of A and B."""
    dim, constants = oracle.tensor_constants([(dim, constants), (second_dim, second_constants)])
    return oracle.table(constants, dim)


@lru_cache(maxsize=4)
def tensor_algebra(A, B):
    """A (x) B, built once for the built-ins' repeated draws."""
    return tensor_product([A, B])


def unreduced(cls, space, view, k):
    """The value of class ``cls`` whose form is view's canonical one times k."""
    nums, den = oracle.int_form(oracle.flat(view) if isinstance(view[0], list) else view)
    return cls._of(space, ([k * v for v in nums], k * den))


def additive(o):
    """solve_additive's solution, or for a singular system its witness."""
    m, rhs = maps_of(o, o.system), [o.A.element(y) for y in o.b]
    if o.regular:
        return solve_additive(m, rhs)
    with pytest.raises(SingularSystem) as err:
        solve_additive(m, rhs)
    return err.value.witness


def maps_of(o, grid):
    return MapMatrix([[LinearMap(o.A, o.A, f) for f in band] for band in grid])


def grid_inverses(o):
    """inverse_map_matrix's entries, then the quasideterminant recursion's
    when every entry inverts, which its 1 x 1 minors need."""
    inverse = [f for band in inverse_map_matrix(o.M).entries for f in band]
    if o.minors:
        return inverse + [f for band in _recursive_inverse(o.M.entries) for f in band]
    with pytest.raises(MinorSingular):
        _recursive_inverse(o.M.entries)
    return inverse


def entry_text(p, q, r, s, k):
    return f"{k * p}/{k * q} {'-' if r < 0 else '+'} {k * abs(r)}/{k * s}*I"


def entry_view(p, q, r, s, k):
    a, b = Fraction(p, q), Fraction(r, s)
    return [[a + b, 0], [0, a - b]]


Row = namedtuple("Row", "name covers families kind value view refusal examples",
                 defaults=(None, {}))
ALL = (*BUILTINS, "random")
ORBITS = ("C", "H", "O", "random")  # H (x) H's 256 x 256 reference solve takes minutes
SMALLER = ("C", "H", "random")  # for rows whose references are costly on O and H (x) H
EXAMPLES = 25  # per family: a row on four families has 100

# One row per operation that returns a value: the functions it is the home of,
# the families it runs on, the kinds of its values ("element A": an element of
# o.A; "map", "tensor"), taken in turn, how a draw o builds the values, their
# views from the raw operands o.raw through the oracle alone, the exception
# the library raises where the view is None, and the examples of the families
# whose budget is not EXAMPLES: 100 for the tensor arithmetic on H, which ran
# on H alone before, fewer where the reference solves O's 64 x 64 systems.
CONTRACT = [
    Row("elements from coordinates",
        (AlgElement.__init__, FreeAlgebra.element, FreeAlgebra.zero, FreeAlgebra.basis_element,
         FreeAlgebra.unit, FreeAlgebra.basis, random_element), ALL, ["element A"],
        value=lambda o: [o.X, o.A.zero(), o.A.basis_element(o.i), *o.A.basis(),
                         random_element(o.A, Random(o.seed)),
                         *([o.A.unit()] if o.A.unit_index is not None else [])],
        view=lambda o: [o.x, [0] * o.n, unit_vector(o.n, o.i),
                        *(unit_vector(o.n, j) for j in range(o.n)),
                        random_coordinates(o.seed, o.n),
                        *([unit_vector(o.n, o.unit)] if o.unit is not None else [])]),
    Row("maps from coordinates",
        (LinearMap.__init__, LinearMap.identity, LinearMap.zero, MapMatrix.identity), ALL,
        ["map A"],
        value=lambda o: [o.F, *(f for band in MapMatrix.identity(o.A, 2).entries for f in band),
                         LinearMap.identity(o.A), LinearMap.zero(o.A)],
        view=lambda o: [o.f, *identity_grid(o.n, 2), *identity_grid(o.n, 2)[:2]]),
    Row("tensors from components",
        (Tensor2.__init__, Tensor2.basis_tensor, Tensor2.unit), ALL, ["tensor A"],
        value=lambda o: [o.S, Tensor2.basis_tensor(o.A, o.i, o.j),
                         *([Tensor2.unit(o.A)] if o.A.unit_index is not None else [])],
        view=lambda o: [o.s, unit_grid(o.n, o.i, o.j),
                        *([unit_grid(o.n, o.unit, o.unit)] if o.unit is not None else [])]),
    Row("forms of any scale", (IntForm._of,), ALL, ["element A", "map A", "tensor A"],
        value=lambda o: [unreduced(AlgElement, (o.A,), o.x, o.k),
                         unreduced(LinearMap, (o.A, o.A), o.f, o.k),
                         unreduced(Tensor2, (o.A,), o.s, o.k)],
        view=lambda o: [o.x, o.f, o.s]),
    Row("element arithmetic",
        (IntForm.__add__, IntForm.__sub__, IntForm.__neg__, IntForm.scaled), ALL, ["element A"],
        value=lambda o: [(o.X + o.Y) - o.Y, o.X.scaled(o.q).scaled(1 / o.q), -(-o.X),
                         o.Y - o.Y],
        view=lambda o: [o.x, o.x, o.x, [0] * o.n]),
    Row("map arithmetic", (compose,), ALL, ["map A"],
        value=lambda o: [(o.F + o.G) - o.G, o.F.scaled(o.q).scaled(1 / o.q), -(-o.F),
                         compose(o.F, LinearMap.identity(o.A)),
                         compose(LinearMap.identity(o.A), o.F)],
        view=lambda o: [o.f] * 5),
    Row("tensor arithmetic", (twisted_mul,), ALL, ["tensor A"], examples={"H": 100},
        value=lambda o: [(o.S + o.T) - o.T, o.S.scaled(o.q).scaled(1 / o.q), -(-o.S),
                         *([twisted_mul(o.S, Tensor2.unit(o.A)),
                            twisted_mul(Tensor2.unit(o.A), o.S)]
                           if o.A.unit_index is not None else [])],
        view=lambda o: [o.s] * (3 if o.unit is None else 5)),
    Row("products", (multiply, associator, commutator, apply), ALL, ["element A"],
        value=lambda o: [multiply(o.X, o.Y), associator(o.X, o.Y, o.Z), commutator(o.X, o.Y),
                         apply(o.F, o.X), apply(LinearMap.identity(o.A), o.X)],
        view=lambda o: [o.xy, sub(oracle.mul(o.c, o.xy, o.z),
                                  oracle.mul(o.c, o.x, oracle.mul(o.c, o.y, o.z))),
                        sub(o.xy, o.yx),
                        matvec(o.f, o.x), o.x]),
    Row("shifts and compositions",
        (left_shift, right_shift, left_associator_map, right_associator_map), ALL, ["map A"],
        value=lambda o: [left_shift(o.X), right_shift(o.X), left_associator_map(o.X, o.Y),
                         right_associator_map(o.Y, o.X), compose(o.G, o.F)],
        view=lambda o: [
            columns(o.n, lambda e: oracle.mul(o.c, o.x, e)),
            columns(o.n, lambda e: oracle.mul(o.c, e, o.x)),
            columns(o.n, lambda e: sub(oracle.mul(o.c, o.xy, e),
                                       oracle.mul(o.c, o.x, oracle.mul(o.c, o.y, e)))),
            columns(o.n, lambda e: sub(oracle.mul(o.c, oracle.mul(o.c, e, o.y), o.x),
                                       oracle.mul(o.c, e, o.yx))),
            oracle.matmul(o.g, o.f)]),
    Row("sandwiches", (sandwich,), SMALLER, ["map A"],
        value=lambda o: [sandwich(o.X, o.F, o.Y, "left"), sandwich(o.X, o.F, o.Y, "right")],
        view=lambda o: [
            columns(o.n, lambda e: oracle.mul(o.c, oracle.mul(o.c, o.x, matvec(o.f, e)), o.y)),
            columns(o.n, lambda e: oracle.mul(o.c, o.x, oracle.mul(o.c, matvec(o.f, e), o.y)))]),
    Row("twisted products and pure tensors", (Tensor2.pure,), ALL, ["tensor A"],
        value=lambda o: [twisted_mul(o.S, o.T), Tensor2.pure(o.X, o.Y)],
        view=lambda o: [oracle.twisted(o.c, o.s, o.t), outer(o.x, o.y)]),
    Row("tensor products", (freealg.TensorAlgebra.pure, tensor_mul), ALL, ["element AC"],
        value=lambda o: [o.AC.pure([o.X, o.second.element(o.u)]),
                         o.AC.pure([o.Z, o.second.element(o.v)]),
                         tensor_mul(o.AC.pure([o.X, o.second.element(o.u)]),
                                    o.AC.pure([o.Z, o.second.element(o.v)]))],
        view=lambda o: [oracle.flat(outer(o.x, o.u)), oracle.flat(outer(o.z, o.v)),
                        oracle.mul(o.ac, oracle.flat(outer(o.x, o.u)),
                                   oracle.flat(outer(o.z, o.v)))]),
    Row("maps of tensors acting on maps", (coords_from_standard,), SMALLER, ["map A"],
        value=lambda o: [coords_from_standard(o.S, o.F, o.order)],
        view=lambda o: [action(o.c, o.s, o.f, o.order)]),
    Row("inverse maps", (LinearMap.inverse,), ALL, ["map A"],
        value=lambda o: [o.F.inverse()],
        view=lambda o: listed(oracle.inverse(o.f)), refusal=ValueError),
    Row("inverse grids of maps", (inverse_map_matrix,), ALL, ["map A"],
        value=grid_inverses,
        view=lambda o: None if o.inverse is None
        else blocks_of(o.inverse, len(o.grid), o.n) * (1 + o.minors), refusal=SingularSystem),
    Row("quasideterminants", (quasideterminant,), ALL, ["map A"],
        value=lambda o: [quasideterminant(o.M, 0, 0)],
        view=lambda o: listed(quasideterminant_view(o.grid, o.inverses[-1])),
        refusal=MinorSingular),
    Row("products of grids of maps", (rc_product, cr_product, MapMatrix.transpose), SMALLER,
        ["map A"],
        value=lambda o: [f for m in (rc_product(o.M, o.M), cr_product(o.M, o.M),
                                     o.M.transpose()) for band in m.entries for f in band],
        view=lambda o: grid_products(o.grid)),
    Row("additive solutions and witnesses", (solve_additive,), ALL, ["element A"],
        value=additive,
        view=lambda o: cut(o.solved[1] if o.regular else oracle.solve(
            flatten_maps(o.system, o.n), [0] * len(o.system) * o.n)[2][0], o.n)),
    Row("complex entries", (cli.parse_complex_entry,), ALL, ["map C"],
        value=lambda o: [cli.parse_complex_entry(entry_text(*o.entry), C)],
        view=lambda o: [entry_view(*o.entry)]),
    Row("complex additive maps",
        (ComplexAdditiveMap.to_linear_map, ComplexAdditiveMap.__call__), ("C",),
        ["map A", "element A"],
        value=lambda o: [ComplexAdditiveMap(o.X, o.Y).to_linear_map(),
                         ComplexAdditiveMap(o.X, o.Y)(o.Z)],
        view=lambda o: [
            columns(2, lambda e: [v + w for v, w in zip(oracle.mul(o.c, o.x, e),
                                                          oracle.mul(o.c, o.y, conj(e)))]),
            [v + w for v, w in zip(oracle.mul(o.c, o.x, o.z), oracle.mul(o.c, o.y, conj(o.z)))]]),
    Row("conjugates", (conjugate,), ("C", "H", "O"), ["element A"],
        value=lambda o: [conjugate(o.X)],
        view=lambda o: [conj(o.x)]),
    Row("inverse elements", (inverse_element,), ("C", "H", "O"), ["element A"],
        value=lambda o: [inverse_element(o.X)],
        view=lambda o: [inverse(o.x)] if any(o.x) else None,
        refusal=freealg.ZeroNorm),
    Row("rotations", (rotate,), ("H",), ["element A"],
        value=lambda o: [rotate(o.X, o.A.element([0, *o.y[1:]]))],
        view=lambda o: [oracle.mul(o.c, oracle.mul(o.c, o.x, [0, *o.y[1:]]), inverse(o.x))]
        if any(o.x) else None,
        refusal=freealg.ZeroNorm),
    Row("generators of all maps", (representation_basis,), SMALLER, ["map A"],
        value=lambda o: representation_basis(o.A, o.order),
        view=lambda o: generators(o.c, o.unit, o.order), refusal=freealg.NoUnit),
    Row("loaded files", (cli.load_system, cli.load_matrix_file), ("C", "H", "O"),
        ["map L"] * 4 + ["element L"] * 2 + ["map A"],
        value=lambda o: [*(f for band in o.loaded[1].entries for f in band), *o.loaded[2],
                         o.loaded[3]],
        view=lambda o: [o.f, o.g, o.g, o.f, o.x, o.y, o.f]),
    Row("tensor maps", (tensor_map, table_map), ALL, ["map A"], examples=dict.fromkeys(ALL, 12),
        value=lambda o: [tensor_map(Tensor2(o.A, o.s).scaled(o.q).scaled(1 / o.q), o.order),
                         table_map(Tensor2(o.A, o.s).scaled(o.q).scaled(1 / o.q), o.order)],
        view=lambda o: [oracle.sandwich(o.c, o.s, o.order)] * 2),
    Row("standard components", (standard_from_coords,), ALL, ["tensor A"],
        examples=dict.fromkeys(ALL, 12),
        value=lambda o: [(solution := standard_from_coords(LinearMap(
            o.A, o.A, oracle.sandwich(o.c, o.s, o.order)), o.order)).particular,
            *solution.nullspace],
        view=lambda o: standard_components(o.c, o.s, o.order)),
    Row("orbit tensors", (orbit_contains,), ORBITS, ["tensor A"],
        examples=dict.fromkeys(ORBITS, 10),
        value=lambda o: [orbit_contains(LinearMap(o.A, o.A, action(o.c, o.ot, o.of, o.order)),
                                        LinearMap(o.A, o.A, o.of), o.order)],
        view=lambda o: [orbit_tensor(o.c, o.ot, o.of, o.order)]),
    Row("tensor inverses", (tensor_inverse,), ("C", "random"), ["tensor A"],
        value=lambda o: [tensor_inverse(o.T)] if o.A.unit_index is not None else [],
        view=lambda o: [] if o.unit is None else listed(two_sided_inverse(o.c, o.unit, o.t)),
        refusal=SingularTensor),
]


Expected = namedtuple("Expected", "value view ids hash form")


def expected(o, kind, view):
    """What a value of ``kind``, such as "map A" (an element, map or tensor over
    o.A, o.C, o.AC or o.L), reads as when its view is ``view``: the value
    a constructor makes from the view, the view as tuples, its algebras' ids,
    its hash and the oracle's canonical form, which that value holds."""
    shape, name = kind.split()
    algebra = getattr(o, name)
    if shape == "element":
        view, flat, ids = tuple(view), view, (id(algebra),)
        value = algebra.element(view)
    else:
        view, flat = tuple(map(tuple, view)), oracle.flat(view)
        if shape == "map":
            ids, value = (id(algebra), id(algebra)), LinearMap(algebra, algebra, view)
        else:
            ids, value = (id(algebra),), Tensor2(algebra, view)
    want = Expected(value, view, ids, hash((*ids, view)), oracle.int_form(flat))
    assert hash(value) == want.hash and value.ints == want.form
    return want


def assert_deferred(value, want):
    """``value``, made by int operations that leave its form unreduced, reads
    as ``want`` says: its hash, view and ``is_zero`` before its first ``.ints``
    read, then the oracle's canonical form and ``==`` with the constructor's."""
    assert hash(value) == want.hash
    assert (value.components if isinstance(value, Tensor2) else value.coords) == want.view
    assert value.is_zero() == (not any(want.form[0]))
    assert value.ints == want.form
    assert value == want.value and want.value == value


def cases(o, row):
    """(value, expected) pairs of a row on the draw o, or None after checking
    the refusal where the oracle has no answer; a view repeated in a row is
    read once."""
    views = row.view(o.raw)
    if views is None:
        with pytest.raises(row.refusal):
            row.value(o)
        return None
    values = row.value(o)
    assert len(values) == len(views) and len(views) % len(row.kind) == 0
    wants = {}
    for kind, view in zip(cycle(row.kind), views):
        if (kind, id(view)) not in wants:
            wants[kind, id(view)] = expected(o, kind, view)
    return [(value, wants[kind, id(view)])
            for value, kind, view in zip(values, cycle(row.kind), views)]


def budget(row, name):
    return row.examples.get(name, EXAMPLES)


@pytest.mark.parametrize("examples, name", sorted(
    {(budget(row, name), name) for row in CONTRACT for name in row.families}, reverse=True))
def test_every_value_holds_the_canonical_int_form(examples, name):
    rows = [row for row in CONTRACT if name in row.families and budget(row, name) == examples]

    @settings(max_examples=examples)
    @given(st.data())
    def contract(data):
        o = Draw(data.draw, name)
        for row in rows:
            for value, want in cases(o, row) or ():
                assert_deferred(value, want)

    contract()


def read_from_eight_threads(values):
    """Each thread's list of the values' ``ints``, all eight started at once."""
    start, forms = threading.Barrier(8, timeout=10), [None] * 8

    def read(k):
        start.wait()
        forms[k] = [value.ints for value in values]

    threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the first read's gcd and stores
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return forms


@pytest.mark.parametrize("row", CONTRACT, ids=lambda row: row.name)
def test_threads_reading_a_row_s_values_first_all_get_the_canonical_form(row):
    # on H where the row runs there, H (x) O for the tensor products: eight
    # threads read every value of one draw whose coordinates are p/q, p and
    # q uniform 40-bit ints from Random(49), and of which some nonzero value
    # has not been read
    name = next(name for name in ("H", "O", "C", "H(x)H", "random") if name in row.families)

    @settings(max_examples=1)
    @given(st.data())
    def first_read(data):
        rng = Random(49)
        values = st.builds(lambda: Fraction(rng.randint(-2**40, 2**40), rng.randint(1, 2**40)))
        pairs = cases(Draw(data.draw, name, values, BUILTINS["O"]), row) or []
        assume(any(value._ints is None and not value.is_zero() for value, _ in pairs))
        for form in read_from_eight_threads([value for value, _ in pairs]):
            assert form == [want.form for _, want in pairs]
        for value, want in pairs:
            assert value == want.value

    first_read()


VALUE_TYPES = re.compile(r"\b(AlgElement|LinearMap|Tensor2|StandardSolution|MapMatrix)\b")


def value_builders():
    """The functions whose return annotation names a value type (a list,
    grid or ``StandardSolution`` of them too): in ``freealg.__all__``, public
    in its modules or on their classes, and the CLI's builders; with the value
    types' constructors and arithmetic, which carry no annotation."""
    members = [getattr(freealg, name) for name in freealg.__all__]
    for module in (freealg.core, freealg.algebras, freealg.exact, freealg.linmap,
                   freealg.solver, freealg.tensor, freealg.golden, cli):
        members += [member for name, member in vars(module).items()
                    if not name.startswith("_") and getattr(member, "__module__", None)
                    == module.__name__]
    members += [cli._form, cli.parse_complex_entry, cli.load_system]
    functions = set()
    for member in members:
        for item in vars(member).values() if inspect.isclass(member) else [member]:
            item = getattr(item, "__func__", item)
            if inspect.isfunction(item) and VALUE_TYPES.search(
                    str(item.__annotations__.get("return", ""))):
                functions.add(item)
    return functions | {AlgElement.__init__, LinearMap.__init__, Tensor2.__init__,
                        IntForm._of.__func__, IntForm.__add__, IntForm.__sub__,
                        IntForm.__neg__, IntForm.scaled}


def test_every_function_that_returns_a_value_has_one_row():
    # a function's row is its home; a dropped row leaves functions homeless
    homes = Counter(getattr(f, "__func__", f) for row in CONTRACT for f in row.covers)
    assert all(row.covers for row in CONTRACT)

    def names(functions):
        return sorted(f"{f.__module__}.{f.__qualname__}" for f in functions)

    assert names(value_builders() - set(homes)) == []
    assert names(set(homes) - value_builders()) == []
    assert names(f for f, count in homes.items() if count > 1) == []
    assert len({row.name for row in CONTRACT}) == len(CONTRACT)
