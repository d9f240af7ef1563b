"""Exception hierarchy for the freealg package."""


class FreeAlgebraError(Exception):
    """Base class for all errors raised by freealg."""


class InvalidAlgebra(FreeAlgebraError):
    """An algebra definition violates its invariants (bad indices,
    duplicate structure constants, broken unit axiom, ...)."""


class AlgebraMismatch(FreeAlgebraError):
    """Operands belong to different algebras."""


class ShapeMismatch(FreeAlgebraError):
    """Matrix shapes are incompatible for the requested operation."""


class DegenerateParams(FreeAlgebraError):
    """Quaternion-family parameters with a*b = 0."""


class UnsupportedAlgebra(FreeAlgebraError):
    """Operation defined only for the built-in algebras."""


class ZeroNorm(FreeAlgebraError):
    """Element has zero norm and therefore no inverse."""


class NotPureVector(FreeAlgebraError):
    """A pure (scalar-free) vector was required."""


class NoUnit(FreeAlgebraError):
    """Operation requires a unital algebra."""


class EmptyFactorList(FreeAlgebraError):
    """Tensor product of an empty list of factors."""


class SingularTensor(FreeAlgebraError):
    """Tensor has no two-sided inverse under the twisted product.

    ``one_sided`` is True when a right inverse exists but fails to be a
    left inverse; this is surfaced distinctly from plain rank deficiency.
    """

    def __init__(self, message, one_sided=False):
        super().__init__(message)
        self.one_sided = one_sided


class NotRepresentable(FreeAlgebraError):
    """Coordinate matrix lies outside the image of the component map."""


class SingularSystem(FreeAlgebraError):
    """Matrix of mappings has no inverse (its flattening is singular).
    ``witness``, from ``solve_additive``: w of [M | -b]'s null vector (w, 0), w != 0, M w = 0."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class MinorSingular(FreeAlgebraError):
    """A minor needed by the quasideterminant recursion is not invertible."""


class SubstitutionCheckFailed(FreeAlgebraError):
    """Internal consistency guard: a computed solution did not satisfy
    the original system on substitution.  Should be unreachable."""


class SingularMap(FreeAlgebraError):
    """Additive mapping of the complex field is not invertible."""
