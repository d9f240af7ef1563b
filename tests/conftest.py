import pytest
from hypothesis import settings

from freealg import complex_algebra, octonion_algebra, quaternion_algebra

# every property test is derandomized with a fixed example budget, so
# tier-1 stays deterministic
settings.register_profile("freealg", derandomize=True, database=None, deadline=None,
                          max_examples=100)
settings.load_profile("freealg")


@pytest.fixture(scope="session")
def C():
    return complex_algebra()


@pytest.fixture(scope="session")
def H():
    return quaternion_algebra()


@pytest.fixture(scope="session")
def O():
    return octonion_algebra()
