import numpy as np
import pytest

from sqzbath import SystemParams


def contract_normals(seed, indices, *shapes):
    """Reference for ``sampling.trajectory_rng`` from the sampling contract:
    row r of each array holds the ``standard_normal`` draws of trajectory
    ``indices[r]``'s own generator, taken in argument order."""
    outs = [np.empty((len(indices),) + tuple(shape)) for shape in shapes]
    for row, index in enumerate(indices):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))
        for out in outs:
            out[row] = rng.standard_normal(out.shape[1:])
    return outs


@pytest.fixture
def paper_system():
    """Reference parameter set used throughout the numerical experiments."""
    return SystemParams(mass=1.0, spring_k=1.25, coupling_amp=2.5, drive_freq=0.45)


@pytest.fixture
def rng():
    return np.random.default_rng(20140)
