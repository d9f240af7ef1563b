"""freealg: exact arithmetic in free finite-dimensional algebras over Q.

Structure-constant algebras and their elements, the built-in complex /
quaternion / octonion algebras, tensor products with the twisted
product (the product in A (x) A^op), linear maps with
standard-component conversion, and the solver for systems of additive
equations via matrices of mappings (grids of linear maps) and
quasideterminants.
"""

from . import exact
from .algebras import (QuaternionParams, complex_algebra, conjugate,
                       inverse_element, norm_sq, octonion_algebra,
                       quaternion_algebra, rotate)
from .core import (AlgElement, FreeAlgebra, associator, commutator,
                   format_element, in_center, in_nucleus, is_associative,
                   is_commutative, multiply, opposite, random_element)
from .errors import (AlgebraMismatch, DegenerateParams, EmptyFactorList,
                     FreeAlgebraError, InvalidAlgebra, MinorSingular, NoUnit,
                     NotPureVector, NotRepresentable, ShapeMismatch,
                     SingularMap, SingularSystem, SingularTensor,
                     SubstitutionCheckFailed, UnsupportedAlgebra, ZeroNorm)
from .linmap import (BMatrix, LinearMap, StandardSolution, Tensor2, apply,
                     b_matrix, compose, coords_from_standard, left_shift,
                     orbit_contains, representation_basis, right_shift,
                     sandwich, standard_from_coords)
from .solver import (ComplexAdditiveMap, MapMatrix, cadd_inverse,
                     cadd_product, cr_product, flatten, inverse_map_matrix,
                     quasideterminant, rc_product, solve_additive)
from .tensor import (TensorAlgebra, tensor_inverse, tensor_mul, tensor_product,
                     twisted_mul)

__version__ = "0.1.0"

__all__ = [
    "AlgElement", "AlgebraMismatch", "BMatrix", "ComplexAdditiveMap",
    "DegenerateParams", "EmptyFactorList", "FreeAlgebra", "FreeAlgebraError",
    "InvalidAlgebra", "LinearMap", "MapMatrix", "MinorSingular", "NoUnit",
    "NotPureVector", "NotRepresentable", "QuaternionParams", "ShapeMismatch",
    "SingularMap", "SingularSystem", "SingularTensor", "StandardSolution",
    "SubstitutionCheckFailed", "Tensor2", "TensorAlgebra",
    "UnsupportedAlgebra", "ZeroNorm", "apply", "associator", "b_matrix",
    "cadd_inverse", "cadd_product", "commutator", "complex_algebra",
    "compose", "conjugate", "coords_from_standard", "cr_product", "flatten",
    "format_element", "in_center", "in_nucleus", "inverse_element",
    "inverse_map_matrix", "is_associative", "is_commutative", "left_shift",
    "multiply", "norm_sq", "octonion_algebra", "opposite", "orbit_contains",
    "quasideterminant", "quaternion_algebra", "random_element", "rc_product",
    "representation_basis", "right_shift", "rotate", "sandwich",
    "solve_additive", "standard_from_coords", "tensor_inverse", "tensor_mul",
    "tensor_product", "twisted_mul",
]
