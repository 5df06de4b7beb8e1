import pytest

import semilat as sl
from oracles import brute_force_subsemilattices


@pytest.fixture(scope="session")
def oracle_by_n():
    """All subsemilattices of T(n) for n <= 3, straight from the brute-force
    subset filter."""
    return {n: brute_force_subsemilattices(n) for n in (1, 2, 3)}


@pytest.fixture(scope="session")
def maximal_by_n():
    """Every maximal subsemilattice for n = 1..5, built once for the session."""
    return {n: tuple(sl.enumerate_maximal_semilattices(n)) for n in range(1, 6)}
