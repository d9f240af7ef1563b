"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest -s tests/test_acceptance.py` to see them all),
and a check of the golden derivation that criterion 3 relies on.
Every comparison is exact rational equality; the stated runtime budgets
are asserted with a wall clock.
"""

import random
import time
from fractions import Fraction

from freealg import (ComplexAdditiveMap, LinearMap, MapMatrix, MinorSingular,
                     NotRepresentable, SingularSystem, SingularTensor,
                     Tensor2, b_matrix, compose, conjugate, exact,
                     inverse_map_matrix, left_shift, multiply, orbit_contains,
                     quasideterminant, random_element, representation_basis,
                     right_shift, solve_additive, standard_from_coords,
                     tensor_inverse, tensor_mul, tensor_product, twisted_mul)
from freealg import golden
from freealg.algebras import conjugation_coords
from freealg.core import associator
from freealg.linmap import (coords_from_standard, left_associator_map,
                            right_associator_map)


def report(number, ok, text):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def cadd(C, a0, a1, b0, b1):
    return ComplexAdditiveMap(C.element([a0, a1]), C.element([b0, b1]))


def bm_relation(bm, k, m):
    n = bm.algebra.dim
    row = bm.entries[k * n + m]
    return {(i, j): row[i * n + j]
            for i in range(n) for j in range(n) if row[i * n + j]}


def inverse_relation(inv, n, i, j):
    row = inv[i * n + j]
    return {(k, m): row[k * n + m]
            for k in range(n) for m in range(n) if row[k * n + m]}


def test_criterion_1_worked_complex_system(C):
    started = time.perf_counter()
    one = cadd(C, 1, 0, 0, 0).to_linear_map()
    two_conj = cadd(C, 0, 0, 2, 0).to_linear_map()
    minus3 = cadd(C, -3, 0, 0, 0).to_linear_map()
    system = MapMatrix([[one, two_conj], [one, minus3]])
    rhs = [C.element([1, 0]), C.element([0, 1])]

    z, w = solve_additive(system, rhs)
    ok = z == C.element([Fraction(3, 5), -2]) and w == C.element([Fraction(1, 5), -1])

    quasidets = {
        (0, 0): cadd(C, 1, 0, Fraction(2, 3), 0),
        (1, 0): cadd(C, 1, 0, Fraction(3, 2), 0),
        (0, 1): cadd(C, 3, 0, 2, 0),
        (1, 1): cadd(C, -3, 0, -2, 0),
    }
    for (row, col), expected in quasidets.items():
        ok &= quasideterminant(system, row, col) == expected.to_linear_map()

    inverse = inverse_map_matrix(system)
    expected_inverse = [
        [cadd(C, Fraction(9, 5), 0, Fraction(-6, 5), 0),
         cadd(C, Fraction(-4, 5), 0, Fraction(6, 5), 0)],
        [cadd(C, Fraction(3, 5), 0, Fraction(-2, 5), 0),
         cadd(C, Fraction(-3, 5), 0, Fraction(2, 5), 0)],
    ]
    for r in range(2):
        for c in range(2):
            ok &= inverse.entries[r][c] == expected_inverse[r][c].to_linear_map()

    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    report(1, ok, f"worked complex system end-to-end, exact ({elapsed:.3f}s < 1s)")


def test_criterion_2_quaternion_tables(H):
    bm = b_matrix(H)
    ok = True
    for (k, m), expected in golden.quaternion_coord_relations().items():
        ok &= bm_relation(bm, k, m) == expected
    inv = exact.invert(bm.entries)
    for (i, j), expected in golden.quaternion_standard_relations().items():
        ok &= inverse_relation(inv, 4, i, j) == expected
    sign = [[bm.entries[k * 4 + k][i * 4 + i]
             for i in range(4)] for k in range(4)]
    ok &= sign == [[Fraction(v) for v in row]
                   for row in golden.QUATERNION_SIGN_MATRIX]
    sign_inv = [[Fraction(v, golden.QUATERNION_SIGN_MATRIX_DEN) for v in row]
                for row in golden.QUATERNION_SIGN_MATRIX_INVERSE_NUM]
    ok &= exact.mat_mul(sign, sign_inv) == [[int(r == c) for c in range(4)] for r in range(4)]
    report(2, ok, "16 + 16 quaternion conversion relations and the sign-matrix "
                  "pair with its 1/4 factor")


def test_criterion_3_octonion_tables(O):
    started = time.perf_counter()
    bm = b_matrix(O)
    ok = True
    forward = golden.octonion_coord_relations()
    assert len(forward) == 64
    for (k, m), expected in forward.items():
        ok &= bm_relation(bm, k, m) == expected
    inv = exact.invert(bm.entries)
    backward = golden.octonion_standard_relations()
    assert len(backward) == 64
    for (i, j), expected in backward.items():
        ok &= inverse_relation(inv, 8, i, j) == expected
    # the transcribed diagonal group agrees with the derived relations
    for key, expected in golden.octonion_diagonal_standard_relations().items():
        ok &= backward[key] == expected
    sign = [[bm.entries[k * 8 + k][i * 8 + i]
             for i in range(8)] for k in range(8)]
    ok &= sign == [[Fraction(v) for v in row] for row in golden.OCTONION_SIGN_MATRIX]
    sign_inv = [[Fraction(v, golden.OCTONION_SIGN_MATRIX_DEN) for v in row]
                for row in golden.OCTONION_SIGN_MATRIX_INVERSE_NUM]
    ok &= exact.mat_mul(sign, sign_inv) == [[int(r == c) for c in range(8)] for r in range(8)]
    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    report(3, ok, f"64 + 64 octonion conversion relations and the sign-matrix "
                  f"pair with its 1/12 factor ({elapsed:.2f}s < 5s)")


def test_block_layouts_derive_the_transcribed_quaternion_relations():
    # criterion 3 takes 56 of O's 64 inverse relations from the block
    # layouts; on H the layouts and all 16 relations are transcribed, so
    # the derivation itself is checked against the published tables here
    derived = golden.derive_standard_relations(
        golden.QUATERNION_BLOCK_A, golden.QUATERNION_BLOCK_B,
        golden.QUATERNION_SIGN_MATRIX_INVERSE_NUM, golden.QUATERNION_SIGN_MATRIX_DEN)
    assert derived == golden.quaternion_standard_relations()


def test_criterion_4_conjugation_identities(H, O):
    ok = True
    solution_o = standard_from_coords(LinearMap(O, O, conjugation_coords(O)))
    ok &= solution_o.particular == Tensor2(
        O, [[Fraction(-1, 6) if a == b else 0 for b in range(8)] for a in range(8)])
    ok &= solution_o.is_unique()
    solution_h = standard_from_coords(LinearMap(H, H, conjugation_coords(H)))
    ok &= solution_h.particular == Tensor2(
        H, [[Fraction(-1, 2) if a == b else 0 for b in range(4)] for a in range(4)])
    ok &= solution_h.is_unique()

    rng = random.Random(4444)
    for algebra, coeff in ((O, Fraction(-1, 6)), (H, Fraction(-1, 2))):
        for _ in range(100):
            z = random_element(algebra, rng)
            acc = algebra.zero()
            for t in range(algebra.dim):
                e_t = algebra.basis_element(t)
                acc = acc + multiply(multiply(e_t, z), e_t)
            ok &= acc.scaled(coeff) == conjugate(z)
    report(4, ok, "conjugation components -1/6 (octonion) and -1/2 (quaternion); "
                  "sandwich-sum identity on 100 random elements each")


def test_criterion_5_representation_bases(C, H, O):
    ok = True
    gens_c = representation_basis(C)
    ok &= len(gens_c) == 2
    conj_c = LinearMap(C, C, conjugation_coords(C))
    ok &= orbit_contains(conj_c, gens_c[1]) is not None
    gens_h = representation_basis(H)
    ok &= gens_h == [LinearMap.identity(H)]
    ok &= b_matrix(C).rank() == 2
    ok &= b_matrix(H).rank() == 16
    ok &= b_matrix(O).rank() == 64
    report(5, ok, "2 generators for C (conjugation in the second orbit), "
                  "1 for H; component-matrix ranks 2 / 16 / 64")


def test_criterion_6_property_suites(C, H, O):
    started = time.perf_counter()
    ok = True

    # four-term associator identity, 200 random octonion quadruples
    rng = random.Random(6001)
    for _ in range(200):
        a, b, c, d = (random_element(O, rng) for _ in range(4))
        lhs = multiply(a, associator(b, c, d)) + multiply(associator(a, b, c), d)
        rhs = (associator(multiply(a, b), c, d)
               - associator(a, multiply(b, c), d)
               + associator(a, b, multiply(c, d)))
        ok &= lhs == rhs

    # shift laws, 200 random octonion pairs
    rng = random.Random(6002)
    for _ in range(200):
        a, b = random_element(O, rng), random_element(O, rng)
        ok &= (compose(left_shift(a), left_shift(b)) + left_associator_map(a, b)
               == left_shift(multiply(a, b)))
        ok &= (compose(right_shift(a), right_shift(b))
               == right_shift(multiply(b, a)) + right_associator_map(b, a))

    # quasideterminant recursion vs flattening-inverse oracle,
    # 100 invertible conjugation-bearing matrices (50 each of 2x2, 3x3)
    rng = random.Random(6003)
    for size in (2, 3):
        done = 0
        while done < 50:
            m = MapMatrix([[ComplexAdditiveMap(random_element(C, rng, 5),
                                               random_element(C, rng, 5))
                            .to_linear_map()
                            for _ in range(size)] for _ in range(size)])
            try:
                inverse = inverse_map_matrix(m)
                for i in range(size):
                    for j in range(size):
                        q = quasideterminant(m, j, i)
                        ok &= (LinearMap(C, C, exact.invert(q.coords))
                               == inverse.entries[i][j])
            except (SingularSystem, MinorSingular, ValueError):
                continue
            done += 1

    # tensor structure constants vs componentwise product, all basis pairs
    for algebra in (C, H):
        squared = tensor_product([algebra, algebra])
        n = algebra.dim
        for k1 in range(n):
            for k2 in range(n):
                for l1 in range(n):
                    for l2 in range(n):
                        via_constants = tensor_mul(
                            squared.pure([algebra.basis_element(k1),
                                          algebra.basis_element(k2)]),
                            squared.pure([algebra.basis_element(l1),
                                          algebra.basis_element(l2)]))
                        factorwise = squared.pure([
                            multiply(algebra.basis_element(k1), algebra.basis_element(l1)),
                            multiply(algebra.basis_element(k2), algebra.basis_element(l2))])
                        ok &= via_constants == factorwise

    # twisted-product homomorphism law, 100 random tensor pairs over H
    rng = random.Random(6004)
    delta_h = LinearMap.identity(H)
    for _ in range(100):
        s = Tensor2(H, [[Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                         for _ in range(4)] for _ in range(4)])
        t = Tensor2(H, [[Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                         for _ in range(4)] for _ in range(4)])
        ok &= (coords_from_standard(twisted_mul(s, t), delta_h)
               == coords_from_standard(s, coords_from_standard(t, delta_h)))

    # orbit invariance under nonsingular tensors, 50 random cases over H
    rng = random.Random(6005)
    done = 0
    while done < 50:
        t = Tensor2(H, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(4)] for _ in range(4)])
        try:
            tensor_inverse(t)
        except SingularTensor:
            continue
        f = LinearMap(H, H, [[Fraction(rng.randint(-3, 3)) for _ in range(4)]
                             for _ in range(4)])
        g = coords_from_standard(t, f)
        ok &= orbit_contains(g, f) is not None
        ok &= orbit_contains(f, g) is not None
        done += 1

    elapsed = time.perf_counter() - started
    ok &= elapsed < 30.0
    report(6, ok, f"associator identity x200, shift laws x200, quasideterminant "
                  f"oracle x100, tensor constants on all basis pairs, twisted "
                  f"homomorphism x100, orbit invariance x50 ({elapsed:.1f}s < 30s)")


def test_criterion_7_cauchy_riemann(C):
    ok = True
    bm = b_matrix(C)
    # every column of the component matrix is a map satisfying the
    # plane relations; so does every rational combination
    for col in range(4):
        m = [[bm.entries[r * 2 + c][col] for c in range(2)] for r in range(2)]
        ok &= m[0][0] == m[1][1]
        ok &= m[1][0] == -m[0][1]
    try:
        standard_from_coords(LinearMap(C, C, conjugation_coords(C)))
        ok = False
    except NotRepresentable:
        pass
    report(7, ok, "image of the complex component matrix is the "
                  "rotation-scaling plane; conjugation reported not representable")
