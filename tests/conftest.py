import pytest
from hypothesis import settings

from freealg import complex_algebra, octonion_algebra, quaternion_algebra
from freealg.core import FreeAlgebra

# every property test is derandomized with a fixed example budget, so
# tier-1 stays deterministic
settings.register_profile("freealg", derandomize=True, database=None, deadline=None,
                          max_examples=100)
settings.load_profile("freealg")


def square_zero_constants(n):
    """The constants of ``square_zero(n)``: e_0 e_j = e_j = e_j e_0."""
    return [(0, j, j, 1) for j in range(n)] + [(j, 0, j, 1) for j in range(1, n)]


def square_zero(n):
    """A fresh algebra of dimension n with e_0 the unit and e_i e_j = 0 for
    i, j >= 1, labelled e0 .. e{n-1}: commutative and associative, with a
    component matrix of rank n < n^2 for n > 1, so ``basis`` runs passes."""
    return FreeAlgebra(n, [f"e{i}" for i in range(n)], square_zero_constants(n), unit_index=0)


@pytest.fixture(scope="session")
def C():
    return complex_algebra()


@pytest.fixture(scope="session")
def H():
    return quaternion_algebra()


@pytest.fixture(scope="session")
def O():
    return octonion_algebra()


def block_grids(bm):
    """Per block of the component matrix bm, (rows, cols, D_r F D_c): its int
    grid over ``bm.den``, its class grid F under its row and column signs."""
    return [(rows, cols, [[r * c * v for c, v in zip(cs, row)]
                          for r, row in zip(rs, bm.classes[k][0])])
            for rows, cols, rs, cs, k in bm.blocks]
