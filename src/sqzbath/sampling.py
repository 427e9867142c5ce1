"""Initial-condition sampling from thermal phase-space distributions.

Quantum mode: the Gaussian widths carry the tanh(omega/2T) occupation factor
of the thermal Wigner function. Classical mode: plain equipartition widths.
Sampling happens in normal-mode coordinates, where the thermal state
factorizes, and is mapped back to the oscillator coordinates.

Reproducibility contract: trajectory ``i`` of a run with master seed ``s``
draws from ``numpy.random.Generator(Philox(SeedSequence((s, i))))`` using
``standard_normal``, in a fixed order: four normals for the system's
(qt1, qt2, pt1, pt2), then the bath's (R_1..R_N, P_1..P_N) for the Ohmic
bath or (R1, P1) for the NHC oscillator. Streams are independent of worker
scheduling.

Sampling is two passes. :func:`trajectory_rng` draws a chunk's standard
normals, one row per trajectory, bit for bit as those generators would;
the samplers only scale them by the thermal widths. The Philox keys come
from :func:`philox_keys`, a vectorized uint32 copy of numpy's
``SeedSequence`` mixing. That copy covers entropy that fits the pool of four
32-bit words; it falls back to numpy's own ``SeedSequence`` when an index is
>= 2**32 or the seed is >= 2**96.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baths import NHCBathParams, NHCBathPhase, OhmicBathParams, OhmicBathPhase
from .system import NormalModePhase, SystemParams, SystemPhase, from_normal_modes, normal_mode_freqs


class SamplingMode(enum.Enum):
    QUANTUM = "quantum"
    CLASSICAL = "classical"

    @classmethod
    def parse(cls, name: str) -> "SamplingMode":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown sampling mode {name!r}; "
                             f"expected 'quantum' or 'classical'") from None


@dataclass(frozen=True)
class ThermalWidths:
    """Variances of the thermal Gaussian for one mode; fields may be arrays."""

    var_q: float | np.ndarray
    var_p: float | np.ndarray

    @property
    def sigma_q(self):
        return np.sqrt(self.var_q)

    @property
    def sigma_p(self):
        return np.sqrt(self.var_p)


def thermal_widths(mass, freq, temperature, mode: SamplingMode) -> ThermalWidths:
    """Thermal Gaussian widths for a harmonic mode of given mass and frequency.

    Quantum: var_q = 1/(2 m w tanh(w/2T)), var_p = m w / (2 tanh(w/2T)).
    Classical: var_q = T/(m w^2), var_p = m T.
    """
    if not 0 < temperature < np.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    if mode is SamplingMode.QUANTUM:
        th = np.tanh(freq / (2.0 * temperature))
        return ThermalWidths(var_q=1.0 / (2.0 * mass * freq * th),
                             var_p=mass * freq / (2.0 * th))
    return ThermalWidths(var_q=temperature / (mass * freq ** 2),
                         var_p=mass * temperature)


def width_temperature(mass: float, freq: float, var_q: float,
                      mode: SamplingMode) -> Optional[float]:
    """Inverse of :func:`thermal_widths`: the temperature whose position
    variance is ``var_q``.

    Quantum: T = w / (2 artanh(1/(2 m w var_q))); None when var_q is at or
    below the zero-point width 1/(2 m w), which no temperature reaches.
    Classical: T = var_q m w^2.
    """
    if mode is SamplingMode.QUANTUM:
        ratio = 2.0 * mass * freq * var_q
        if not ratio > 1.0:
            return None
        return float(freq / (2.0 * math.atanh(1.0 / ratio)))
    return float(var_q * mass * freq ** 2)


# numpy.random.SeedSequence's hash constants, in its uint32 arithmetic
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _uint32_words(value: int) -> list:
    """Little-endian 32-bit words of a non-negative integer; [0] for 0."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def philox_keys(seed: int, indices) -> np.ndarray:
    """Philox keys of trajectories ``indices``, shape (len(indices), 2).

    Row r equals ``SeedSequence((seed, indices[r])).generate_state(2,
    np.uint64)``, the key ``Philox(SeedSequence((seed, indices[r])))`` uses.
    All rows are mixed at once while the entropy words (the seed's, then the
    index's) fit the pool of four; otherwise, for an index >= 2**32 or a seed
    >= 2**96, numpy's SeedSequence computes each row.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    idx = np.asarray(indices)
    if idx.size and idx.min() < 0:
        raise ValueError("trajectory indices must be non-negative")
    seed_words = _uint32_words(seed)
    if len(seed_words) >= _POOL_SIZE or (idx.size and idx.max() > _MASK32):
        return np.array([np.random.SeedSequence((seed, int(i))).generate_state(2, np.uint64)
                         for i in indices], dtype=np.uint64).reshape(-1, 2)

    n = idx.size
    entropy = [np.full(n, w, dtype=np.uint32) for w in seed_words]
    entropy.append(idx.astype(np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(_XSHIFT))

    # SeedSequence.mix_entropy: hash the entropy into the pool, padding with
    # zeros, then mix every pool word into every other one
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(n, np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = (np.uint32(_MIX_MULT_L) * pool[dst]
                         - np.uint32(_MIX_MULT_R) * hashmix(pool[src]))
                pool[dst] = mixed ^ (mixed >> np.uint32(_XSHIFT))

    # SeedSequence.generate_state(2, np.uint64): one uint32 word per pool
    # word, read in pairs as two little-endian uint64
    state = np.empty((n, _POOL_SIZE), dtype="<u4")
    hash_const = _INIT_B
    for i in range(_POOL_SIZE):
        value = pool[i] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(_XSHIFT))
    return state.view("<u8").astype(np.uint64)


def trajectory_rng(seed: int, indices, *shapes) -> list:
    """Standard normals of trajectories ``indices``: one array of shape
    ``(len(indices),) + shape`` per entry of ``shapes``.

    Row r holds the first draws of trajectory ``indices[r]``'s stream,
    ``Generator(Philox(SeedSequence((seed, indices[r]))))``, filling the
    arrays in argument order. Each row is one draw into one (rows, total
    size) buffer, and the arrays are views of its consecutive column blocks,
    so their rows are strided. One Philox generator serves all rows: it is
    re-keyed for each row from one state dict of Python ints, which the
    state setter reads faster than numpy arrays.
    """
    keys = philox_keys(seed, indices).tolist()
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state        # a just-keyed Philox; the key is set per row
    fresh["state"]["counter"] = fresh["state"]["counter"].tolist()
    fresh["buffer"] = fresh["buffer"].tolist()
    sizes = [math.prod(shape) for shape in shapes]
    draws = np.empty((len(keys), sum(sizes)))
    for row, key in zip(draws, keys):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        gen.standard_normal(out=row)
    ends = list(itertools.accumulate(sizes))
    return [draws[:, end - size:end].reshape((len(keys),) + tuple(shape))
            for shape, size, end in zip(shapes, sizes, ends)]


def sample_system(z, sys: SystemParams, temperature: float,
                  mode: SamplingMode) -> SystemPhase:
    """Thermal (q1, q2, p1, p2) of the undriven system from standard normals.

    ``z`` has shape (rows, 4): its columns scale (qt1, qt2, pt1, pt2). The
    mode frequencies are evaluated at t=0, where the drive vanishes.
    """
    w1, w2 = normal_mode_freqs(0.0, sys)
    wid1 = thermal_widths(sys.mass, w1, temperature, mode)
    wid2 = thermal_widths(sys.mass, w2, temperature, mode)
    modes = NormalModePhase(qt1=z[..., 0] * wid1.sigma_q, qt2=z[..., 1] * wid2.sigma_q,
                            pt1=z[..., 2] * wid1.sigma_p, pt2=z[..., 3] * wid2.sigma_p)
    return from_normal_modes(modes)


def sample_ohmic_bath(pos, mom, bath: OhmicBathParams, temperature: float,
                      mode: SamplingMode) -> OhmicBathPhase:
    """Thermal bath oscillators from standard normals, each drawn
    independently at its own width.

    ``pos`` and ``mom`` have shape (rows, N) and scale (R_1..R_N) and
    (P_1..P_N); they are scaled in place and become the phase's arrays.
    """
    wid = thermal_widths(1.0, bath.freqs, temperature, mode)
    pos *= wid.sigma_q
    mom *= wid.sigma_p
    return OhmicBathPhase(pos=pos, mom=mom)


def init_nhc_bath(z, bath: NHCBathParams, temperature: float,
                  mode: SamplingMode) -> NHCBathPhase:
    """Thermal bath oscillator from standard normals; the chain variables
    start at (eta1, eta2, p_eta1, p_eta2) = (0, 0, 0, 1).

    ``z`` has shape (rows, 2): its columns scale (R1, P1).
    """
    wid = thermal_widths(1.0, bath.osc_freq, temperature, mode)
    eta1, eta2, p_eta1, p_eta2 = (np.full(z.shape[:-1], value)
                                  for value in (0.0, 0.0, 0.0, 1.0))
    return NHCBathPhase(osc_q=z[..., 0] * wid.sigma_q, osc_p=z[..., 1] * wid.sigma_p,
                        eta1=eta1, eta2=eta2, p_eta1=p_eta1, p_eta2=p_eta2)
