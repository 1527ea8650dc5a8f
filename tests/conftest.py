import random

import pytest
from hypothesis import settings

from qeuclid.verify import rand_coord_poly

# Property tests draw the same examples on every machine and run, with no
# per-example deadline: cold q-function caches and machine load vary.
settings.register_profile("qeuclid", derandomize=True, deadline=None)
settings.load_profile("qeuclid")


@pytest.fixture
def rnd():
    return random.Random(20240817)


@pytest.fixture
def rand_poly(rnd):
    def make(deg=3, nterm=4, with_t=True, sector="x", conv="W"):
        return rand_coord_poly(rnd, deg, nterm, with_t, sector, conv)

    return make
