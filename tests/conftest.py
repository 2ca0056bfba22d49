import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def schema22():
    from psalience import generic_schema

    return generic_schema(2, 2)


@pytest.fixture
def schema32():
    from psalience import generic_schema

    return generic_schema(3, 2)


@pytest.fixture
def schema33():
    from psalience import generic_schema

    return generic_schema(3, 3)


@pytest.fixture
def floor_table():
    """An adjusted table with one cell a little under 1, inside the adjusted tolerance."""
    from psalience import ContingencyTable, generic_schema

    counts = np.random.default_rng(8).uniform(1.0, 9.0, 27)
    counts[5] = 1.0 - 1e-10
    return ContingencyTable(generic_schema(3, 3), counts, float(counts.sum()), adjusted=True)
