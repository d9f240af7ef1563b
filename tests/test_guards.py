"""The public behaviour that the other tests never reach: the library's
input guards, ``AlgElement``'s ``*``, the zero element's text and the
``repr`` of the public value types.

Each guard is called on the smallest input that trips it, and the test
holds it to its error class and its whole message.  "Two algebras" are
two calls of ``complex_algebra()``: equal tables, distinct algebras.
"""

import re
from fractions import Fraction

import pytest

from freealg import (AlgebraMismatch, ComplexAdditiveMap, FreeAlgebra, InvalidAlgebra,
                     LinearMap, MapMatrix, NoUnit, ShapeMismatch, StandardSolution, Tensor2,
                     UnsupportedAlgebra, cadd_product, complex_algebra, cr_product,
                     format_element, multiply, quasideterminant, quaternion_algebra,
                     rc_product, rotate, solve_additive, tensor_mul, tensor_product)
from freealg.cli import make_builtin

C, C2, H = complex_algebra(), complex_algebra(), quaternion_algebra()
UNITLESS = FreeAlgebra(2, ("x", "y"), [(0, 1, 0, 1)])


def maps(algebra, cols=1):
    """The 1 x cols matrix of identity maps of ``algebra``."""
    return MapMatrix([[LinearMap.identity(algebra)] * cols])


GUARDS = {
    "core.dim_0": (lambda: FreeAlgebra(0, (), []),
                   InvalidAlgebra, "dimension must be positive, got 0"),
    "core.basis_element": (lambda: C.basis_element(2),
                           InvalidAlgebra, "basis index 2 out of range"),
    "exact.add_across": (lambda: C.unit() + C2.unit(),
                         AlgebraMismatch, "operands belong to different algebras"),
    "algebras.rotate_across": (lambda: rotate(H.unit(), C.basis_element(1)),
                               AlgebraMismatch, "q and v must live in the same algebra"),
    "linmap.map_shape": (lambda: LinearMap(C, C, [[1, 0]]),
                         ValueError, "coordinate matrix must be 2x2"),
    "linmap.tensor_shape": (lambda: Tensor2(C, [[1, 0]]),
                            ValueError, "components must form an 2x2 grid"),
    "linmap.pure_across": (lambda: Tensor2.pure(C.unit(), C2.unit()),
                           AlgebraMismatch, "both parts must share one algebra"),
    "linmap.unit_tensor": (lambda: Tensor2.unit(UNITLESS),
                           NoUnit, "unit tensor needs a unital algebra"),
    "solver.rc_across": (lambda: rc_product(maps(C), maps(C2)),
                         AlgebraMismatch, "matrices over different algebras"),
    "solver.cr_across": (lambda: cr_product(maps(C), maps(C2)),
                         AlgebraMismatch, "matrices over different algebras"),
    "solver.quasidet_square": (lambda: quasideterminant(maps(C, 2), 0, 0),
                               ShapeMismatch, "quasideterminants need a square matrix"),
    "solver.quasidet_index": (lambda: quasideterminant(maps(C), 0, 1),
                              ShapeMismatch, "quasideterminant index out of range"),
    "solver.solve_square": (lambda: solve_additive(maps(C, 2), [C.unit()]),
                            ShapeMismatch, "system matrix must be square"),
    "solver.solve_rhs_across": (lambda: solve_additive(maps(C), [C2.unit()]),
                                AlgebraMismatch, "right side must live in the system's algebra"),
    "solver.cadd_across": (lambda: ComplexAdditiveMap(C.unit(), C2.zero()),
                           AlgebraMismatch, "a and b must share one complex algebra"),
    "solver.cadd_off_c": (lambda: ComplexAdditiveMap(H.unit(), H.zero()),
                          UnsupportedAlgebra, "defined over the built-in complex algebra"),
    "solver.from_linear_map_off_c": (
        lambda: ComplexAdditiveMap.from_linear_map(LinearMap.identity(H)),
        UnsupportedAlgebra, "expected an endomorphism of the complex algebra"),
    "solver.cadd_product_across": (
        lambda: cadd_product(ComplexAdditiveMap.identity(C), ComplexAdditiveMap.identity(C2)),
        AlgebraMismatch, "maps over different complex algebras"),
    "tensor.pure_count": (lambda: tensor_product([C, H]).pure([C.unit()]),
                          AlgebraMismatch, "need one element per factor"),
    "tensor.pure_factor": (lambda: tensor_product([C, H]).pure([H.unit(), C.unit()]),
                           AlgebraMismatch, "element does not belong to its factor"),
    "cli.builtin_name": (lambda: make_builtin("sedenion"),  # argv's names are bounded before
                         InvalidAlgebra, "unknown builtin algebra 'sedenion'"),
    "tensor.mul_off_tensor": (lambda: tensor_mul(C.unit(), C.unit()),
                              AlgebraMismatch, "tensor_mul applies to TensorAlgebra elements"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_each_guard_raises_its_class_and_message(case):
    call, error, message = GUARDS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_star_is_the_product_or_a_scaling():
    x, y = H.element([1, 2, "-1/3", 0]), H.element([0, 1, 1, 5])
    assert x * y == multiply(x, y) != multiply(y, x)
    assert 2 * x == x * 2 == H.element([2, 4, "-2/3", 0])
    assert x * "1/2" == x.scaled(Fraction(1, 2)) == H.element(["1/2", 1, "-1/6", 0])
    with pytest.raises(TypeError, match="^floats are not exact"):
        x * 1.5


def test_the_zero_element_reads_0():
    assert format_element(C.zero()) == format_element(H.zero()) == "0"


def test_reprs():
    solution = StandardSolution(Tensor2.unit(C), [Tensor2.basis_tensor(C, 0, 1)])
    assert [repr(v) for v in (
        C.element(["3/5", -2]), LinearMap(C, H, [[1, 0]] * 4), Tensor2.unit(C), solution,
        maps(C, 2), ComplexAdditiveMap(C.element([1, -1]), C.zero()))] == [
        "<3/5 - 2*i>", "LinearMap(4x2)", "Tensor2(dim=2)",
        "StandardSolution(rank=3, nullity=1)",
        "MapMatrix(1x2 over FreeAlgebra(complex, dim=2))", "(1 - i) + (0)*conj"]
