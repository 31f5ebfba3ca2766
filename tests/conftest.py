import pathlib

import pytest

import xiverify
from xiverify import identities
from xiverify.specfun import mobius_sieve

SAMPLE_ZEROS = pathlib.Path(xiverify.__file__).parent / "data" / "zeros_sample.txt"


@pytest.fixture(scope="session")
def sample_zeros_path():
    return str(SAMPLE_ZEROS)


@pytest.fixture(scope="session")
def zero_records(sample_zeros_path):
    """First 100 ordinates, refined with zeta derivatives attached.

    Session-scoped: refinement costs about half a second and several
    modules want the same records.
    """
    return xiverify.prepare_zeros(sample_zeros_path, max_count=100)


@pytest.fixture
def fresh_caches():
    """Every per-process cache emptied before and after the test, as in a
    fresh process; the test may call the returned reset again."""
    identities.reset_caches()
    yield identities.reset_caches
    identities.reset_caches()


@pytest.fixture(scope="session")
def mobius_100k():
    return mobius_sieve(100000)


@pytest.fixture(scope="session")
def mobius_10k():
    return mobius_sieve(10000)
