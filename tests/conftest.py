import random

import pytest

from switchnet.cuts import CutFunction, random_sparse_function  # noqa: F401  (tests import it from here)


def pointwise_product(f, g):
    return CutFunction.from_values(f.n, [a * b for a, b in zip(f.values, g.values)])


@pytest.fixture
def rng():
    return random.Random(20240811)
