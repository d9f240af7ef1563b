import random
from fractions import Fraction

import pytest

from freealg import (DegenerateParams, NotPureVector, QuaternionParams,
                     UnsupportedAlgebra, ZeroNorm, conjugate, inverse_element,
                     is_associative, is_commutative, multiply, norm_sq,
                     quaternion_algebra, random_element, rotate)
from freealg.core import FreeAlgebra


def test_complex_constants(C):
    assert C.dim == 2
    assert C.unit_index == 0
    assert set(C.constants) == {
        (0, 0, 0, Fraction(1)), (0, 1, 1, Fraction(1)),
        (1, 0, 1, Fraction(1)), (1, 1, 0, Fraction(-1)),
    }
    i = C.basis_element(1)
    assert multiply(i, i) == -C.unit()
    assert is_commutative(C) and is_associative(C)


def test_quaternion_default_is_division_table(H):
    i, j, k = H.basis_element(1), H.basis_element(2), H.basis_element(3)
    table = {
        (1, 1): -H.unit(), (1, 2): k, (1, 3): -j,
        (2, 1): -k, (2, 2): -H.unit(), (2, 3): i,
        (3, 1): j, (3, 2): -i, (3, 3): -H.unit(),
    }
    for (a, b), expected in table.items():
        assert multiply(H.basis_element(a), H.basis_element(b)) == expected


def test_quaternion_general_params():
    E = quaternion_algebra(QuaternionParams(1, 1))
    i, j, k = E.basis_element(1), E.basis_element(2), E.basis_element(3)
    assert multiply(i, k) == j           # ik = a j with a = 1
    assert multiply(i, i) == E.unit()    # i^2 = a
    assert multiply(k, k) == -E.unit()   # k^2 = -ab
    with pytest.raises(DegenerateParams):
        QuaternionParams(0, 3)


def test_octonion_structure(O):
    assert O.dim == 8
    assert not is_associative(O)
    assert not is_commutative(O)
    # every imaginary product is a signed basis vector
    for i in range(1, 8):
        for j in range(1, 8):
            prod = multiply(O.basis_element(i), O.basis_element(j))
            assert sum(1 for c in prod.coords if c != 0) == 1
            assert {abs(c) for c in prod.coords if c} == {1}


def test_conjugate(H, C):
    x = H.element([1, 2, 3, 4])
    assert conjugate(x) == H.element([1, -2, -3, -4])
    assert conjugate(conjugate(x)) == x
    assert conjugate(C.basis_element(1)) == -C.basis_element(1)


def test_conjugate_user_algebra_unsupported():
    user = FreeAlgebra(1, ("u",), [(0, 0, 0, 1)], unit_index=0)
    with pytest.raises(UnsupportedAlgebra):
        conjugate(user.basis_element(0))
    with pytest.raises(UnsupportedAlgebra):
        norm_sq(user.basis_element(0))
    with pytest.raises(UnsupportedAlgebra):
        inverse_element(user.basis_element(0))


def quaternion_norm(x, a, b):
    """The closed form (x^0)^2 - a (x^1)^2 - b (x^2)^2 + ab (x^3)^2 of the norm in E(a, b)."""
    x0, x1, x2, x3 = x.coords
    return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


def test_norm_sq(H):
    assert norm_sq(H.element([1, 1, 1, 1])) == 4
    assert norm_sq(H.unit()) == 1
    E = quaternion_algebra(QuaternionParams(1, 1))
    assert norm_sq(E.basis_element(1)) == quaternion_norm(E.basis_element(1), 1, 1) == -1
    # the norm is read off the element's own algebra: i has norm 1 in H
    with pytest.raises(TypeError):
        norm_sq(H.basis_element(1), QuaternionParams(1, 1))
    assert norm_sq(H.basis_element(1)) == 1


def test_norm_matches_conjugate_product(C, H, O):
    rng = random.Random(10)
    for algebra in (C, H, O):
        for _ in range(10):
            x = random_element(algebra, rng)
            prod = multiply(x, conjugate(x))
            assert prod == algebra.unit().scaled(norm_sq(x))
    for a, b in [(2, 3), (-1, 5), (Fraction(1, 2), -2)]:
        params = QuaternionParams(a, b)
        E = quaternion_algebra(params)
        for _ in range(10):
            x = random_element(E, rng)
            assert multiply(x, conjugate(x)) == E.unit().scaled(quaternion_norm(x, a, b))


def test_conjugate_antihomomorphism(H):
    rng = random.Random(11)
    for _ in range(15):
        x, y = random_element(H, rng), random_element(H, rng)
        assert conjugate(multiply(x, y)) == multiply(conjugate(y), conjugate(x))
        assert conjugate(x + y) == conjugate(x) + conjugate(y)


def test_inverse_element(H):
    one_plus_i = H.element([1, 1, 0, 0])
    assert inverse_element(one_plus_i) == H.element(
        [Fraction(1, 2), Fraction(-1, 2), 0, 0])
    assert inverse_element(H.basis_element(1)) == -H.basis_element(1)
    with pytest.raises(ZeroNorm):
        inverse_element(H.zero())


def test_inverse_element_two_sided(C, H, O):
    rng = random.Random(12)
    for algebra in (C, H, O):
        for _ in range(10):
            x = random_element(algebra, rng)
            if norm_sq(x) == 0:
                continue
            inv = inverse_element(x)
            assert multiply(x, inv) == algebra.unit()
            assert multiply(inv, x) == algebra.unit()


def test_zero_norm_in_split_algebra():
    E = quaternion_algebra(QuaternionParams(1, 1))
    # 1 + i has norm 1 - 1 = 0 when a = 1
    with pytest.raises(ZeroNorm):
        inverse_element(E.element([1, 1, 0, 0]))


def test_rotate(H):
    i, j, k = H.basis_element(1), H.basis_element(2), H.basis_element(3)
    v = H.element([0, 2, -1, 5])
    assert rotate(H.unit(), v) == v
    q = H.element([1, 1, 0, 0])
    assert rotate(q, j) == k
    assert rotate(q.scaled(2), j) == k  # the norm of q is irrelevant
    rotated = rotate(q, v)
    assert rotated.coords[0] == 0
    assert norm_sq(rotated) == norm_sq(v)
    # axis of q is fixed
    assert rotate(q, i) == i


def test_rotate_random_properties(H):
    rng = random.Random(14)
    for _ in range(15):
        q = random_element(H, rng)
        if norm_sq(q) == 0:
            continue
        v = H.element([0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(3)])
        rotated = rotate(q, v)
        assert rotated.coords[0] == 0
        assert norm_sq(rotated) == norm_sq(v)
        # the vector part of q is on the rotation axis
        axis = H.element([0, q.coords[1], q.coords[2], q.coords[3]])
        assert rotate(q, axis) == axis


def test_rotate_errors(H):
    with pytest.raises(NotPureVector):
        rotate(H.unit(), H.element([1, 0, 0, 1]))
    with pytest.raises(ZeroNorm):
        rotate(H.zero(), H.element([0, 1, 0, 0]))
    E = quaternion_algebra(QuaternionParams(1, 1))
    with pytest.raises(UnsupportedAlgebra):
        rotate(E.unit(), E.element([0, 1, 0, 0]))


def test_octonion_alternative_law(O):
    rng = random.Random(13)
    for _ in range(25):
        x, y = random_element(O, rng), random_element(O, rng)
        assert multiply(x, multiply(x, y)) == multiply(multiply(x, x), y)
        assert multiply(multiply(y, x), x) == multiply(y, multiply(x, x))
