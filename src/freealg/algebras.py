"""The built-in algebras: complex numbers, the quaternion family
E(a, b), and the octonions, plus conjugation, norm, inverse, and
quaternion rotation.

Conjugation negates every non-unit coordinate and is defined only for
algebras built here; there is no canonical conjugation on an arbitrary
user-defined algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import AlgElement, FreeAlgebra, multiply
from .errors import AlgebraMismatch, DegenerateParams, NotPureVector, UnsupportedAlgebra, ZeroNorm
from .exact import ZERO, as_fractions, frac

COMPLEX_TAG = "complex"
QUATERNION_TAG = "quaternion"
OCTONION_TAG = "octonion"

# Signed products of the seven imaginary octonion units: row i, column j
# holds (sign, k) with e_i e_j = sign * e_k  (indices 1..7).
_OCTONION_IMAGINARY_TABLE = (
    ((-1, 0), (+1, 3), (-1, 2), (+1, 5), (-1, 4), (-1, 7), (+1, 6)),
    ((-1, 3), (-1, 0), (+1, 1), (+1, 6), (+1, 7), (-1, 4), (-1, 5)),
    ((+1, 2), (-1, 1), (-1, 0), (+1, 7), (-1, 6), (+1, 5), (-1, 4)),
    ((-1, 5), (-1, 6), (-1, 7), (-1, 0), (+1, 1), (+1, 2), (+1, 3)),
    ((+1, 4), (-1, 7), (+1, 6), (-1, 1), (-1, 0), (-1, 3), (+1, 2)),
    ((+1, 7), (+1, 4), (-1, 5), (-1, 2), (+1, 3), (-1, 0), (-1, 1)),
    ((-1, 6), (+1, 5), (+1, 4), (-1, 3), (-1, 2), (+1, 1), (-1, 0)),
)


@dataclass(frozen=True)
class QuaternionParams:
    """Parameters (a, b) of the quaternion algebra E(a, b); a*b != 0."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", frac(self.a))
        object.__setattr__(self, "b", frac(self.b))
        if self.a * self.b == 0:
            raise DegenerateParams(f"need a*b != 0, got a={self.a}, b={self.b}")


def _unit_constants(dim):
    """Constants for a two-sided unit at index 0."""
    yield (0, 0, 0, 1)
    for i in range(1, dim):
        yield (0, i, i, 1)
        yield (i, 0, i, 1)


def complex_algebra() -> FreeAlgebra:
    """The complex numbers as a 2-dimensional algebra: i^2 = -1."""
    constants = list(_unit_constants(2)) + [(1, 1, 0, -1)]
    return FreeAlgebra(2, ("1", "i"), constants, unit_index=0, tag=COMPLEX_TAG)


def quaternion_algebra(params: QuaternionParams | None = None) -> FreeAlgebra:
    """The quaternion algebra E(a, b) on basis 1, i, j, k:

        i^2 = a,  j^2 = b,  ij = k = -ji,  ik = aj,  jk = -bi,  k^2 = -ab.

    Defaults to a = b = -1, the division algebra H.
    """
    if params is None:
        params = QuaternionParams(Fraction(-1), Fraction(-1))
    a, b = params.a, params.b
    constants = list(_unit_constants(4)) + [
        (1, 1, 0, a), (1, 2, 3, 1), (1, 3, 2, a),
        (2, 1, 3, -1), (2, 2, 0, b), (2, 3, 1, -b),
        (3, 1, 2, -a), (3, 2, 1, b), (3, 3, 0, -a * b),
    ]
    return FreeAlgebra(4, ("1", "i", "j", "k"), constants,
                       unit_index=0, tag=QUATERNION_TAG, params=(a, b))


def octonion_algebra() -> FreeAlgebra:
    """The octonions on basis e_0 .. e_7 (nonassociative, alternative)."""
    constants = list(_unit_constants(8))
    for i in range(1, 8):
        for j in range(1, 8):
            sign, k = _OCTONION_IMAGINARY_TABLE[i - 1][j - 1]
            constants.append((i, j, k, sign))
    labels = tuple(f"e{i}" for i in range(8))
    return FreeAlgebra(8, labels, constants, unit_index=0, tag=OCTONION_TAG)


def _require_builtin(algebra: FreeAlgebra) -> None:
    if algebra.tag not in (COMPLEX_TAG, QUATERNION_TAG, OCTONION_TAG):
        raise UnsupportedAlgebra(
            "operation is defined only for the built-in algebras")


def conjugate(x: AlgElement) -> AlgElement:
    """Negate all non-unit coordinates: the built-in involution."""
    _require_builtin(x.algebra)
    nums, den = x._form
    return AlgElement._of((x.algebra,), ((nums[0], *(-c for c in nums[1:])), den))


def norm_sq(x: AlgElement) -> Fraction:
    """Squared norm |x|^2: coordinate 0 of x * conj(x) in x's own algebra (C, E(a, b) or O),
    alone: the sum of x^i v conj(x)^j over the terms e_i e_j = v e_0 + ... of the table."""
    _require_builtin(x.algebra)
    nums, den = x._form
    total = sum(xi * v * (-nums[j] if j else nums[j])
                for xi, row in zip(nums, x.algebra.terms()) if xi for j, k, v in row if not k)
    return as_fractions([total], den * den * x.algebra.denominator)[0]


def inverse_element(x: AlgElement) -> AlgElement:
    """Multiplicative inverse conj(x) / |x|^2; raises ZeroNorm at norm 0."""
    _require_builtin(x.algebra)
    n = norm_sq(x)
    if n == 0:
        raise ZeroNorm("element has zero norm and no inverse")
    return conjugate(x).scaled(Fraction(1) / n)


def rotate(q: AlgElement, v: AlgElement) -> AlgElement:
    """Conjugation v -> q v q^{-1} in H: rotates the pure vector v.

    Requires the division quaternions (a = b = -1), a nonzero q, and a
    pure v (zero scalar part).  The norm of q is irrelevant.
    """
    algebra = q.algebra
    if algebra.tag != QUATERNION_TAG or algebra.params != (Fraction(-1), Fraction(-1)):
        raise UnsupportedAlgebra("rotation is defined in the division quaternions")
    if v.algebra is not algebra:
        raise AlgebraMismatch("q and v must live in the same algebra")
    if v.coords[0] != 0:
        raise NotPureVector("v must have zero scalar coordinate")
    return multiply(multiply(q, v), inverse_element(q))


def conjugation_coords(algebra: FreeAlgebra):
    """Coordinate matrix of the conjugation map, diag(1, -1, ..., -1)."""
    _require_builtin(algebra)
    n = algebra.dim
    return [[(Fraction(1) if i == 0 else Fraction(-1)) if i == j else ZERO
             for j in range(n)] for i in range(n)]
