import os

# one BLAS thread per test process, set before numpy is first imported: the
# learners' small matrices gain nothing from a pool, and a default pool
# oversubscribes a host that runs anything else
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ris_detnet.channel import FadingParams, Topology


@pytest.fixture
def topo():
    """Reference geometry: AP (0,20), RIS (50,20), Eve (50,0), two users
    inside the 2 m circle around Eve."""
    return Topology(ap_pos=(0.0, 20.0), ris_pos=(50.0, 20.0), eve_pos=(50.0, 0.0),
                    user_pos=[(50.6, 1.1), (49.2, -0.8)], n_elements=8)


@pytest.fixture
def fading():
    return FadingParams()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
