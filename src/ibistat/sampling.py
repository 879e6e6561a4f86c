"""Random generation of configurations and grouped datasets.

Every stochastic routine in the package draws from a counter-based
generator (Philox) keyed by a user seed plus a stream id, so each
bootstrap replicate, permutation, or simulation run owns an independent
stream and results never depend on execution order or thread count.
"""

from __future__ import annotations

import math
import sys
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
    "lemire_bounded",
    "bootstrap_indices",
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

# The most streams ``stream_keys`` can key in one domain, so the most
# replicates or permutations one run can draw: j must fit in one word.
MAX_STREAMS = 2**32


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
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


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


def _word_count(n: int) -> int:
    """uint32 words SeedSequence reads from n >= 0 (0 is one word)."""
    return max(1, -(-n.bit_length() // 32))


def stream_keys(seed: int, domain: int, k: int) -> np.ndarray:
    """Philox keys of the streams (seed, domain, j) for j < k, as (k, 2) uint64.

    Row j equals ``SeedSequence(entropy=seed, spawn_key=(domain, j))
    .generate_state(2, np.uint64)``, the key ``stream_generator(seed,
    domain, j)`` gives its Philox.  Only the last entropy word, j,
    differs between rows: numpy's own ``SeedSequence(seed,
    spawn_key=(domain,)).pool`` is the pool before it, and one
    vectorised pass mixes j in and hashes the output of all rows.

    numpy's hashmix advances its multiplier once per call, 4 calls per
    entropy word (4 fill the pool, 12 cross-mix it, 4 per later word),
    and a spawn key pads the seed to 4 words.  Before j it has run 4 * L
    times, L = max(4, words(seed)) + words(domain), so the hash of j
    starts at ``_INIT_A * _MULT_A**(4 * L) mod 2**32``.  Every step runs
    on Python ints or uint64 arrays masked to 32 bits, so none depends on
    numpy's overflow or promotion rules.  j must fit in one word, hence
    k <= 2**32.
    """
    if not 0 <= k <= MAX_STREAMS:
        raise ValueError(f"need 0 <= k <= 2**32 replicate streams, got {k}")
    seed, domain = int(seed), int(domain)
    pool = np.random.SeedSequence(seed, spawn_key=(domain,)).pool.tolist()
    calls = 4 * (max(4, _word_count(seed)) + _word_count(domain))
    hashmix = _hasher(_INIT_A * pow(_MULT_A, calls, 2**32) & _MASK32, _MULT_A)
    j = np.arange(k, dtype=np.uint64)
    pool = [_mix(value, hashmix(j)) for value in pool]

    output = _hasher(_INIT_B, _MULT_B)
    w = [output(value) for value in pool]
    return np.column_stack([w[0] | w[1] << 32, w[2] | w[3] << 32])


def rekeyed_streams(rng: np.random.Generator, keys: np.ndarray):
    """Yield ``rng`` re-keyed to each row of ``keys``, in order.

    ``rng`` must be Philox based.  Each yield resets its counter to 0,
    sets the key and empties the output buffer, so for the row j of
    ``stream_keys(seed, domain, k)`` the draws are those of
    ``stream_generator(seed, domain, j)`` bit for bit; one generator
    serves every row, so use it up before taking the next.
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
    for key in keys.tolist():
        philox["key"] = key
        bitgen.state = state
        yield rng


def lemire_bounded(words: np.ndarray, bounds: np.ndarray, out: np.ndarray) -> tuple:
    """numpy's bounded draws from raw 64-bit Philox words, for many rows.

    ``Generator.integers(0, n)`` (int64, 2 <= n < 2**32) takes Lemire's
    rule on the next 32-bit half: with the product ``half * n`` as
    uint64, the draw is ``product >> 32`` and is rejected, and redrawn
    from the next half, where ``product mod 2**32 < (2**32 - n) % n``.
    Philox hands out the low half of each word, then the high half,
    which is the order of a little-endian word's two uint32s: the halves
    are a view of the words as ``<u4``, in any host byte order.  Row i
    of ``words`` holds one stream's next words; column c of the result
    is its c-th half drawn with bound ``bounds[c]``.

    Returns ``(draws, rejected)``: the (m, len(bounds)) int64 draws, and
    a (m,) mask of the rows where a half was rejected.  numpy would
    have drawn again there and shifted every later draw, so those rows
    are wrong and must be redrawn by ``integers`` itself.  The draws are
    written into ``out``, a C-contiguous (m, len(bounds)) int64 array,
    which is returned.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    halves = np.ascontiguousarray(words, dtype="<u8").view("<u4")[:, : bounds.size]
    # the uint64 product half * n: its high 32 bits are the draw, its low
    # 32 bits, product mod 2**32, decide the rejection
    product = out.view(np.uint64)
    np.multiply(halves, bounds, out=product)
    low = product.view(np.uint32)[:, int(sys.byteorder == "big") :: 2]
    # uint32 arithmetic wraps: -n is 2**32 - n
    bounds32 = bounds.astype(np.uint32)
    rejected = (low < np.negative(bounds32) % bounds32).any(axis=1)
    product >>= np.uint64(32)
    return out, rejected


def bootstrap_indices(
    rng: np.random.Generator,
    keys: np.ndarray,
    sizes,
    out: np.ndarray,
    words: np.ndarray,
) -> np.ndarray:
    """Stratified resampling indices for the streams keyed by ``keys``.

    Row i is ``[g.integers(0, n, size=n) for n in sizes]``, concatenated,
    where g is ``rng`` re-keyed to ``keys[i]`` (``rekeyed_streams``).
    The draws come from one ``random_raw`` call per row and one
    ``lemire_bounded`` pass over all rows; the rare row with a rejected
    half is drawn again by ``integers`` itself.  Same bits either way.

    The (m, N) int64 indices, N = sum(sizes), are written into ``out``,
    which is returned, and the (m, (N + 1) // 2) uint64 draw words into
    ``words``, each a C-contiguous array: the resampling kernel passes a
    thread's kept chunk arrays, so a warm pass allocates none.
    """
    sizes = [int(n) for n in sizes]
    if not all(2 <= n < 2**32 for n in sizes):
        # a bound of 1 draws nothing in numpy; 2**32 and up take 64 bits
        raise ValueError(f"group sizes must lie in [2, 2**32), got {sizes}")
    n_words = (sum(sizes) + 1) // 2
    for row, g in zip(words, rekeyed_streams(rng, keys)):
        row[:] = g.bit_generator.random_raw(n_words)
    idx, rejected = lemire_bounded(words, np.repeat(sizes, sizes), out)
    redo = np.flatnonzero(rejected)
    idx[redo] = _integers_rows(rng, keys[redo], sizes)
    return idx


def _integers_rows(rng: np.random.Generator, keys: np.ndarray, sizes: list) -> np.ndarray:
    """numpy's own draws: row i is ``integers(0, n, size=n)`` for each n
    in sizes, concatenated, on ``rng`` re-keyed to ``keys[i]``."""
    rows = np.empty((len(keys), sum(sizes)), dtype=np.int64)
    for row, g in zip(rows, rekeyed_streams(rng, keys)):
        row[:] = np.concatenate([g.integers(0, n, size=n) for n in sizes])
    return rows


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
    stats = _centroid_shape_stats(x.transpose(1, 0, 2))
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
