"""How an algebra holds its structure constants, and the readers of them.

An algebra keeps one copy of its constants, laid out as two flat tables:
row i lists e_i e_j as (j, k, v) and column j lists it as (i, k, v).  So
the tuples reachable from the slots that hold constants number 2 per
nonzero constant, plus one per row and column and one per table.

``is_commutative``, ``is_associative``, ``constants`` and the unit check
read those tables directly; here they are checked against oracles built
from ``multiply`` on basis elements and against the quadruples the
algebra was built from, over random algebras of dimension 1 to 5,
square-zero algebras of dimension 2 to 6 and twisted group algebras of
Z_n, n = 1 to 5.  The runs use the derandomized profile of
``conftest.py``.
"""

import gc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from freealg import (FreeAlgebra, InvalidAlgebra, is_associative, is_commutative, multiply,
                     octonion_algebra, quaternion_algebra, tensor_product)
from conftest import square_zero_constants
from test_kernel_properties import NONZERO, algebras, build, definitions

# the slots of FreeAlgebra that do not hold constants
OTHER_SLOTS = {"labels", "tag", "params", "_cache", "_lock", "_basis"}
SQUARE_ZERO = st.integers(2, 6).map(lambda n: (n, square_zero_constants(n), 0))


@st.composite
def twisted_group_algebras(draw):
    """(dim, constants, no unit) of the group algebra of Z_n twisted by the
    coboundary w(i, j) = f(i) f(j) / f(i + j), e_i e_j = w(i, j) e_{i+j}: it
    is associative and commutative, and with one w(i, j) redrawn it has the
    same nonzero cells but is as a rule neither, which sparse random
    constants seldom give."""
    n = draw(st.integers(1, 5))
    f = draw(st.lists(NONZERO, min_size=n, max_size=n))
    w = {(i, j): f[i] * f[j] / f[(i + j) % n] for i in range(n) for j in range(n)}
    if draw(st.booleans()):
        w[draw(st.sampled_from(sorted(w)))] = draw(NONZERO)
    return n, [(i, j, (i + j) % n, v) for (i, j), v in w.items()], None


DEFINITIONS = definitions() | SQUARE_ZERO | twisted_group_algebras()
UNITAL = definitions(unital=True) | SQUARE_ZERO


def tuples_held(algebra) -> int:
    """The tuples reachable from the constant-holding slots, each counted once."""
    seen, todo = set(), [getattr(algebra, s) for s in FreeAlgebra.__slots__
                         if s not in OTHER_SLOTS]
    count = 0
    while todo:
        x = todo.pop()
        if id(x) not in seen:
            seen.add(id(x))
            count += type(x) is tuple
            todo.extend(gc.get_referents(x))
    return count


def assert_held_once(algebra):
    assert tuples_held(algebra) <= 2 * len(algebra.constants) + 2 * algebra.dim + 2


def test_the_builtins_hold_two_tuples_per_constant():
    H = quaternion_algebra()
    for algebra in (octonion_algebra(), tensor_product([H, H])):
        assert_held_once(algebra)


@given(algebras())
def test_random_algebras_hold_two_tuples_per_constant(algebra):
    assert_held_once(algebra)


@given(DEFINITIONS)
def test_readers_of_the_tables_match_products_of_basis_elements(definition):
    algebra = build(definition)
    e = algebra.basis()
    assert is_commutative(algebra) == all(multiply(x, y) == multiply(y, x) for x in e for y in e)
    assert is_associative(algebra) == all(multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
                                          for x in e for y in e for z in e)


@given(DEFINITIONS)
def test_constants_are_the_nonzero_input_sorted(definition):
    _, constants, _ = definition
    assert build(definition).constants == tuple(sorted(
        (i, j, k, Fraction(v)) for i, j, k, v in constants if v))


@given(UNITAL, st.data())
def test_a_unit_broken_at_one_basis_vector_is_named(definition, data):
    n, constants, unit = definition
    b = data.draw(st.integers(0, n - 1))
    cell = data.draw(st.sampled_from([(unit, b, b), (b, unit, b)]))  # e_u e_b or e_b e_u
    broken = [c for c in constants if c[:3] != cell]
    how = data.draw(st.sampled_from(["drop", "scale", "extra"] if n > 1 else ["drop", "scale"]))
    if how == "scale":
        broken.append((*cell, data.draw(NONZERO.filter(lambda v: v != 1))))
    elif how == "extra":
        k = data.draw(st.integers(0, n - 1).filter(lambda k: k != b))
        broken += [(*cell, 1), (*cell[:2], k, data.draw(NONZERO))]
    with pytest.raises(InvalidAlgebra, match=rf"^basis vector {unit} is not a two-sided unit: "
                                             rf"fails on basis vector {b}$"):
        FreeAlgebra(n, [f"e{i}" for i in range(n)], broken, unit_index=unit)
