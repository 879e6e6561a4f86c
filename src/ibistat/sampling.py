"""Random generation of configurations and grouped datasets.

Every stochastic routine in the package draws from a counter-based
generator (Philox) keyed by a user seed plus a stream id, so each
bootstrap replicate, permutation, or simulation run owns an independent
stream and results never depend on execution order or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .shape import (
    Configuration,
    ShapePoint,
    _centroid_shape_stats,
    configuration_from_sides,
    sides_from_shape,
)

__all__ = [
    "GroupSpec",
    "stream_generator",
    "stream_keys",
    "rekeyed_streams",
    "sample_null_configuration",
    "sample_null_shapes",
    "mean_configuration_from_shape",
    "sample_grouped_dataset",
]

# Stream-id domains keep the streams of unrelated subsystems disjoint
# even when they share a user seed.
DOMAIN_BOOTSTRAP = 0
DOMAIN_PERMUTATION = 1
DOMAIN_SIMULATION = 2
DOMAIN_NULL = 3


def stream_generator(seed: int, *stream_id: int) -> np.random.Generator:
    """Independent generator for (seed, stream-id).

    Identical arguments reproduce identical draws bit for bit on every
    platform (Philox is counter based; the seed-sequence expansion is
    part of numpy's stability contract).
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream_id))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), part of its
# stability contract: a 4-word uint32 pool, hashed and mixed with these
# multipliers.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list:
    """Little-endian 32-bit words of n, as SeedSequence reads an int."""
    if n < 0:
        raise ValueError(f"stream seeds and ids must be non-negative, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix: each call advances the shared multiplier."""

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def stream_keys(seed: int, domain: int, k: int) -> np.ndarray:
    """Philox keys of the streams (seed, domain, j) for j < k, as (k, 2) uint64.

    Row j equals ``SeedSequence(entropy=seed, spawn_key=(domain, j))
    .generate_state(2, np.uint64)``, the key ``stream_generator(seed,
    domain, j)`` gives its Philox.  The hash runs in Python ints, masked
    to 32 bits, until the j word is mixed in last; that step and the
    output hash run over all rows at once as uint64 arrays, also masked
    (a 32-bit product fits, so no step depends on numpy's overflow or
    integer promotion rules).  j must fit in one word, hence k <= 2**32.
    """
    if not 0 <= k <= 2**32:
        raise ValueError(f"need 0 <= k <= 2**32 replicate streams, got {k}")
    run = _uint32_words(int(seed))
    run += [0] * (_POOL_SIZE - len(run))
    entropy = run + _uint32_words(int(domain)) + [np.arange(k, dtype=np.uint64)]

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    output = _hasher(_INIT_B, _MULT_B)
    w = [output(value) for value in pool]
    return np.column_stack([w[0] | w[1] << 32, w[2] | w[3] << 32])


def rekeyed_streams(rng: np.random.Generator, seed: int, domain: int, k: int):
    """Yield ``rng`` re-keyed to the stream (seed, domain, j), for j < k.

    ``rng`` must be Philox based.  Each yield resets its counter to 0,
    sets the key ``stream_keys`` derives and empties the output buffer,
    so the draws of replicate j are those of ``stream_generator(seed,
    domain, j)`` bit for bit; one generator serves every replicate, so
    use it up before taking the next.
    """
    bitgen = rng.bit_generator
    # Plain ints, not arrays: the state setter reads them item by item.
    philox = {"counter": (0, 0, 0, 0), "key": None}
    state = {
        "bit_generator": "Philox",
        "state": philox,
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # the buffer size: nothing buffered
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in stream_keys(seed, domain, k).tolist():
        philox["key"] = key
        bitgen.state = state
        yield rng


@dataclass(frozen=True)
class GroupSpec:
    """Sampling plan for three isotropic normal groups of common size."""

    means: np.ndarray  # (3, p) rows A, B, C
    sigma2: float
    n: int

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        if means.ndim != 2 or means.shape[0] != 3:
            raise ValueError(f"means must be 3 x p, got shape {means.shape}")
        if not np.all(np.isfinite(means)):
            raise ValueError("group means must be finite")
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"need n >= 2 per group, got {self.n}")
        means = means.copy()
        means.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(self, "n", int(self.n))

    @property
    def p(self) -> int:
        return self.means.shape[1]


def sample_null_configuration(p: int, rng: np.random.Generator) -> Configuration:
    """Three landmarks iid standard normal in p dimensions."""
    if p < 2:
        raise ValueError("null sampling needs p >= 2")
    return Configuration(rng.normal(size=(3, p)))


def sample_null_shapes(p: int, n: int, rng: np.random.Generator) -> dict:
    """Vectorized null sample of n triangle shapes.

    Returns arrays ``r``, ``phi``, ``tau``, ``u``, ``v`` computed by the
    side-length kernel the bootstrap uses; intended for Monte-Carlo validation of the
    closed-form null densities.
    """
    if p < 2:
        raise ValueError("null sampling needs p >= 2")
    x = rng.normal(size=(n, 3, p))
    stats = _centroid_shape_stats(x[:, 0], x[:, 1], x[:, 2])
    u, v = stats["u"], stats["v"]
    phi = np.arctan2(v, u) % (2.0 * math.pi)
    return {"r": np.hypot(u, v), "phi": phi, "tau": stats["tau"], "u": u, "v": v}


def mean_configuration_from_shape(r: float, phi: float, p: int = 2) -> Configuration:
    """A centered, unit-centroid-size configuration with shape (r, phi).

    Centroid size is the Frobenius norm of the centered landmark matrix.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"radius must lie in [0, 1], got {r}")
    sides = sides_from_shape(ShapePoint(r=r, phi=phi))
    lm = configuration_from_sides(sides, p=p).landmarks
    lm = lm - lm.mean(axis=0)
    norm = np.linalg.norm(lm)
    if norm == 0.0:
        raise ValueError("cannot scale a fully coincident configuration")
    return Configuration(lm / norm)


def sample_grouped_dataset(spec: GroupSpec, rng: np.random.Generator):
    """Draw n observations per group, normal around each group mean.

    Returns a :class:`~ibistat.inference.GroupedDataset`; draw order is
    fixed (group A, then B, then C) so a given generator state always
    yields the same dataset.
    """
    from .inference import GroupedDataset  # local import to avoid a cycle

    sd = math.sqrt(spec.sigma2)
    blocks = [spec.means[g] + sd * rng.normal(size=(spec.n, spec.p)) for g in range(3)]
    features = np.vstack(blocks)
    labels = np.repeat(np.array(["A", "B", "C"]), spec.n)
    return GroupedDataset(features=features, labels=labels)
