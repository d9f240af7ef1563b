import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import freealg
from freealg import (AlgElement, AlgebraMismatch, FreeAlgebra, InvalidAlgebra, NoUnit,
                     associator, commutator, core, in_center, in_nucleus,
                     is_associative, is_commutative, multiply, opposite,
                     random_element)


def test_quaternion_table_entry(H):
    i, j, k = H.basis_element(1), H.basis_element(2), H.basis_element(3)
    assert multiply(i, j) == k
    assert multiply(j, i) == -k


def test_unit_axiom(H, O):
    rng = random.Random(1)
    for algebra in (H, O):
        x = random_element(algebra, rng)
        one = algebra.unit()
        assert multiply(one, x) == x
        assert multiply(x, one) == x


def test_octonion_products(O):
    e = O.basis_element
    assert multiply(e(1), e(4)) == e(5)
    assert multiply(e(5), e(6)) == -e(3)
    assert multiply(e(4), e(4)) == -e(0)


def test_commutator(H, C):
    i, j, k = H.basis_element(1), H.basis_element(2), H.basis_element(3)
    assert commutator(i, j) == k.scaled(2)
    x = H.element([1, 2, 3, 4])
    assert commutator(x, x).is_zero()
    z1 = C.element([1, 1])
    z2 = C.element([3, -2])
    assert commutator(z1, z2).is_zero()


def test_associator(H, O):
    i, j, k = H.basis_element(1), H.basis_element(2), H.basis_element(3)
    assert associator(i, j, k).is_zero()
    e = O.basis_element
    assert associator(e(1), e(2), e(4)) == e(7).scaled(2)
    rng = random.Random(2)
    x, y = random_element(O, rng), random_element(O, rng)
    assert associator(O.unit(), x, y).is_zero()


def test_predicates(C, H, O):
    assert is_commutative(C)
    assert not is_commutative(H)
    assert not is_commutative(O)
    assert is_associative(C)
    assert is_associative(H)
    assert not is_associative(O)


def test_associativity_predicate_matches_basis_associators(C, H, O):
    for algebra in (C, H, O):
        basis = algebra.basis()
        vanish = all(associator(a, b, c).is_zero()
                     for a in basis for b in basis for c in basis)
        assert is_associative(algebra) == vanish


def test_associativity_is_contracted_once_per_algebra(H, monkeypatch):
    # a fact of the immutable table, cached on the algebra
    calls = []
    contract = core._associative
    monkeypatch.setattr(core, "_associative", lambda a: calls.append(a) or contract(a))
    algebra = opposite(H)  # fresh: nothing cached yet
    assert is_associative(algebra) and is_associative(algebra)
    assert calls == [algebra]


def test_nucleus(H, O):
    assert in_nucleus(O.basis_element(0))
    assert not in_nucleus(O.basis_element(1))
    rng = random.Random(3)
    assert in_nucleus(random_element(H, rng))


def test_center(C, H):
    assert in_center(H.basis_element(0).scaled(7))
    assert not in_center(H.basis_element(1))
    rng = random.Random(4)
    assert in_center(random_element(C, rng))
    for scalar in (Fraction(3, 7), Fraction(-12), Fraction(0)):
        assert in_center(H.unit().scaled(scalar))


def test_distributivity(O):
    rng = random.Random(5)
    for _ in range(25):
        x, y, z = (random_element(O, rng) for _ in range(3))
        assert multiply(x + y, z) == multiply(x, z) + multiply(y, z)
        assert multiply(z, x + y) == multiply(z, x) + multiply(z, y)


def test_four_term_associator_identity(O):
    # a(b,c,d) + (a,b,c)d = (ab,c,d) - (a,bc,d) + (a,b,cd), exactly
    rng = random.Random(6)
    for _ in range(25):
        a, b, c, d = (random_element(O, rng) for _ in range(4))
        lhs = multiply(a, associator(b, c, d)) + multiply(associator(a, b, c), d)
        rhs = (associator(multiply(a, b), c, d)
               - associator(a, multiply(b, c), d)
               + associator(a, b, multiply(c, d)))
        assert lhs == rhs


def test_results_are_reduced_fractions(H):
    rng = random.Random(7)
    x, y = random_element(H, rng), random_element(H, rng)
    for coeff in multiply(x, y).coords:
        assert coeff.denominator > 0
        from math import gcd
        assert gcd(coeff.numerator, coeff.denominator) == 1


def test_algebra_mismatch(C, H):
    with pytest.raises(AlgebraMismatch):
        multiply(C.basis_element(0), H.basis_element(0))
    # equal tables, distinct instances: still distinct algebras
    other = FreeAlgebra(2, ("1", "i"), C.constants, unit_index=0)
    with pytest.raises(AlgebraMismatch):
        multiply(C.basis_element(1), other.basis_element(1))


def test_duplicate_constants_rejected():
    with pytest.raises(InvalidAlgebra):
        FreeAlgebra(2, ("a", "b"), [(0, 0, 0, 1), (0, 0, 0, 2)])


def test_bad_unit_rejected():
    # e_0 * e_1 = 0 breaks the unit axiom
    with pytest.raises(InvalidAlgebra):
        FreeAlgebra(2, ("a", "b"), [(0, 0, 0, 1)], unit_index=0)


def test_unitless_algebra():
    algebra = FreeAlgebra(2, ("x", "y"), [(0, 1, 0, 1)])
    assert algebra.unit_index is None
    with pytest.raises(NoUnit):
        algebra.unit()


def test_index_out_of_range_rejected():
    with pytest.raises(InvalidAlgebra):
        FreeAlgebra(2, ("a", "b"), [(0, 0, 5, 1)])


def test_element_validation(C):
    with pytest.raises(InvalidAlgebra):
        C.element([1, 2, 3])
    with pytest.raises(TypeError):
        C.element([0.5, 1])


def test_element_constructor_checks_and_coerces_like_element(C, H):
    for coords in ((1, 2), (1, 2, 3, 4, 5)):
        with pytest.raises(InvalidAlgebra, match=f"^expected 4 coordinates, got {len(coords)}$"):
            AlgElement(H, coords)
    with pytest.raises(InvalidAlgebra, match="^expected 2 coordinates, got 3$"):
        C.element([1, 2, 3])
    x = AlgElement(C, (1, "-3/5"))
    assert x.coords == (Fraction(1), Fraction(-3, 5))
    assert all(type(v) is Fraction for v in x.coords)
    assert x == C.element([1, "-3/5"])
    with pytest.raises(TypeError):
        AlgElement(C, (0.5, 1))


def test_opposite_reverses_products(H, O):
    rng = random.Random(7)
    for algebra in (H, O):
        op = opposite(algebra)
        assert op.unit_index == algebra.unit_index
        for _ in range(5):
            x, y = random_element(algebra, rng), random_element(algebra, rng)
            assert multiply(op.element(x.coords), op.element(y.coords)).coords \
                == multiply(y, x).coords


def test_opposite_reads_the_tables_without_fractions(O, H, monkeypatch):
    E = freealg.quaternion_algebra(freealg.QuaternionParams(Fraction(1, 2), -3))
    assert E.denominator == 2
    with monkeypatch.context() as refused:
        def refuse(*args):
            raise AssertionError("a Fraction was made")
        refused.setattr(core, "Fraction", refuse)
        built = [(algebra, opposite(algebra))
                 for algebra in (O, freealg.tensor_product([H, H]))]
    built.append((E, opposite(E)))  # over den 2: Fractions on the way in
    for algebra, op in built:
        assert op.terms() == algebra.terms(opposite=True)
        assert op.terms(opposite=True) == algebra.terms()
        assert (op.denominator, op.unit_index) == (algebra.denominator, algebra.unit_index)


def test_only_core_reads_the_constants_table():
    # the layout of FreeAlgebra's flat row and column tables, and of a
    # per-cell ``_table`` should one come back, is core's to change; every
    # other module reads the constants through terms or constants, and
    # products through the kernel
    tables = {"_table", "_row_terms", "_col_terms"}
    readers = set()
    for path in Path(freealg.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.Attribute) and node.attr in tables
               for node in ast.walk(tree)):
            readers.add(path.name)
    assert readers == {"core.py"}
