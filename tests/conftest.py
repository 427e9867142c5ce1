import functools

import numpy as np
import pytest

from sqzbath import SystemParams, coupling_freq_sq


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


def row_ordered_moments(values):
    """Reference for ``VarianceAccumulator.add_block``'s block moments: the
    mean and m2 over the first axis of ``values``, summed one row after the
    other."""
    mean = functools.reduce(np.add, values) / len(values)
    return mean, functools.reduce(np.add, ((row - mean) ** 2 for row in values))


def row_dots(pos, couplings):
    """Reference for the bath pull sum_j c_j R_j: one ``np.dot`` per row of
    ``pos``, (N,) or (rows, N), so that no row's sum sees another row."""
    rows = [np.dot(row, couplings) for row in np.reshape(pos, (-1, np.shape(pos)[-1]))]
    return np.reshape(rows, np.shape(pos)[:-1])


def plain_force(k_rel, q1, q2, sys):
    """Reference for ``system.coupled_force`` from its formula, into fresh
    arrays: f1 = -m w^2 q1 + k_rel (q2 - q1), f2 = -m w^2 q2 - k_rel (q2 - q1)."""
    k_own = sys.mass * sys.freq ** 2
    rel = q2 - q1
    return -k_own * q1 + k_rel * rel, -k_own * q2 - k_rel * rel


def reference_leapfrog(phase, sys, dt, n_steps, stride, bath=None, bath_phase=None):
    """Reference for ``integrate`` without a thermostat, from the plain
    formulas into fresh arrays: kick-drift-kick steps with the drive
    coefficient m w(t)^2 at each midpoint, where the closing half-kick of a
    step that is neither a multiple of ``stride`` nor the last and the
    opening half-kick of the next are one kick of dt at the mean of the two
    coefficients. ``bath`` is an Ohmic bath or None. Returns the final time,
    (q1, q2, p1, p2) and (R, P)."""
    q1, q2, p1, p2 = (np.array(v, dtype=float) for v in vars(phase).values())
    pos = mom = None
    if bath is not None:
        pos, mom = bath_phase.pos.copy(), bath_phase.mom.copy()
    h, t = 0.5 * dt, 0.0

    def kick(k, scale):
        nonlocal p1, p2, mom
        f1, f2 = plain_force(k, q1, q2, sys)
        if bath is not None:
            pull = row_dots(pos, bath.couplings)
            f1, f2 = f1 + pull, f2 + pull
            mom = mom + scale * (np.multiply.outer(q1 + q2, bath.couplings)
                                 - bath.freqs ** 2 * pos)
        p1, p2 = p1 + scale * f1, p2 + scale * f2

    k = sys.mass * coupling_freq_sq(t + h, sys)
    if n_steps:
        kick(k, h)
    for i in range(1, n_steps + 1):
        q1, q2 = q1 + dt * p1 / sys.mass, q2 + dt * p2 / sys.mass
        if bath is not None:
            pos = pos + mom * dt
        t += dt
        k_next = sys.mass * coupling_freq_sq(t + h, sys)
        if i % stride and i < n_steps:
            kick(0.5 * (k + k_next), dt)
        else:
            kick(k, h)
            if i < n_steps:
                kick(k_next, h)
        k = k_next
    return t, (q1, q2, p1, p2), (pos, mom)


@pytest.fixture
def paper_system():
    """Reference parameter set used throughout the numerical experiments."""
    return SystemParams(mass=1.0, spring_k=1.25, coupling_amp=2.5, drive_freq=0.45)


@pytest.fixture
def rng():
    return np.random.default_rng(20140)
