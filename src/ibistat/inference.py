"""Statistical inference for in-betweenness.

Pipeline: standardize features, form the centroid triangle, then
quantify uncertainty by resampling within groups (stratified bootstrap),
permutation testing of the no-structure null, and Tukey-depth confidence
regions in shape space.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .depth import depth_upper_bounds, inside_by_margin, tukey_depth, tukey_depths
from .errors import (
    InsufficientDataError,
    InsufficientReplicatesError,
    SingularCovarianceError,
)
from .metrics import IbiPair, tau_ibi
from .sampling import (
    DOMAIN_BOOTSTRAP,
    DOMAIN_PERMUTATION,
    DOMAIN_SIMULATION,
    MAX_STREAMS,
    GroupSpec,
    bootstrap_indices,
    mean_configuration_from_shape,
    rekeyed_streams,
    sample_grouped_dataset,
    stream_generator,
    stream_keys,
)
from .shape import (
    _COINCIDENT_RTOL,
    Configuration,
    ShapePoint,
    _centroid_shape_stats,
    _squared_sides,
    shape_point,
    sides_from_shape,
)

__all__ = [
    "GROUPS",
    "GroupedDataset",
    "BootstrapEnsemble",
    "ConfidenceRegion",
    "standardize",
    "centroid_configuration",
    "observed_ibi",
    "stratified_bootstrap",
    "percentile_ci",
    "confidence_region",
    "region_summary",
    "permutation_test",
    "coverage_simulation",
]

GROUPS = ("A", "B", "C")
STANDARDIZE_MODES = ("none", "feature", "whiten")

_SQRT3 = math.sqrt(3.0)

# Fewer valid replicates than this make a confidence region coarse.
_MIN_REGION_REPLICATES = 100


@dataclass(frozen=True)
class GroupedDataset:
    """Observations with group labels A/B/C and named features."""

    features: np.ndarray  # (N, p)
    labels: np.ndarray  # (N,) of "A" | "B" | "C"
    feature_names: tuple = ()

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=object)
        if x.ndim != 2 or x.shape[1] < 1:
            raise ValueError(f"features must be N x p, got shape {x.shape}")
        if labels.shape != (x.shape[0],):
            raise ValueError("labels must align with feature rows")
        if not np.all(np.isfinite(x)):
            raise ValueError("feature values must be finite")
        # each group's row indices, kept read-only for every later reader
        rows = {g: np.flatnonzero(labels == g) for g in GROUPS}
        if sum(r.size for r in rows.values()) != labels.size:
            bad = sorted(set(labels) - set(GROUPS))
            raise ValueError(f"labels must be in {GROUPS}, got {bad}")
        for g, r in rows.items():
            if r.size < 2:
                raise ValueError(f"group {g} needs at least 2 observations")
            r.setflags(write=False)
        names = tuple(self.feature_names) or tuple(f"f{i}" for i in range(x.shape[1]))
        if len(names) != x.shape[1]:
            raise ValueError("feature_names must match the number of features")
        x = x.copy()
        x.setflags(write=False)
        labels = labels.copy()
        labels.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "_rows", rows)

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def group_indices(self, label: str) -> np.ndarray:
        """The rows of group ``label``, ascending; read-only."""
        return self._rows[label]

    def group_features(self, label: str) -> np.ndarray:
        return self.features[self._rows[label]]

    def n_per_group(self) -> dict:
        return {g: r.size for g, r in self._rows.items()}


# The (get, set) thread-count functions under the names OpenBLAS builds give them
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),  # numpy >= 2
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),  # numpy >= 2, 32-bit
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),  # numpy 1.24-1.26
    ("openblas_get_num_threads", "openblas_set_num_threads"),  # system OpenBLAS
)

# held while the thread count is lowered: a second caller saving the 1
# that the first one set would leave it set
_BLAS_THREADS_LOCK = threading.RLock()


@functools.cache
def _openblas_thread_control():
    """The (get, set) thread-count functions of the OpenBLAS behind
    numpy's matrix products and ``eigh``; None where numpy links another
    BLAS (MKL, Accelerate) or the loader has no ``RTLD_NOLOAD`` (Windows).
    A symbol looked up in numpy's linear-algebra extension is also looked
    up in the libraries it links; ``RTLD_NOLOAD`` loads nothing new."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__, mode=os.RTLD_NOLOAD)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _OPENBLAS_THREAD_FUNCTIONS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _blas_on_calling_thread():
    """Run numpy's BLAS and LAPACK calls of the block on the calling thread.

    After a call it split over threads, an OpenBLAS worker busy-waits for
    work for 2^28 cycles (0.13 s at 2.1 GHz), taking a CPU from the
    resampling that follows.
    On entry numpy's OpenBLAS thread count is saved and set to 1; on exit
    it is restored.  The count is process-wide: while the block runs, a
    numpy BLAS call another thread makes also runs on one thread.  That
    changes its speed, never its bits.  Any other BLAS library, such as
    scipy's, is left alone.  Without OpenBLAS this does nothing.
    """
    control = _openblas_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    with _BLAS_THREADS_LOCK:
        saved = get()
        set_(1)
        try:
            yield
        finally:
            set_(saved)


def standardize(ds: GroupedDataset, mode: str = "feature") -> GroupedDataset:
    """Rescale features: "none", "feature" (overall unit variance), or
    "whiten" (pooled within-group covariance mapped to identity).

    Whitening uses the symmetric inverse square root of the pooled
    within-group covariance and fails on rank-deficient or severely
    ill-conditioned data (condition number >= 1e12). In every mode a
    feature whose largest |value| exceeds sqrt(max float / (12 p)) is
    rejected: below that bound every resampled group sum, squared side
    and side total stays finite.
    """
    x = ds.features
    if mode == "none":
        z = x
    elif mode == "feature":
        # finite values can still overflow the spread: check it, not them
        with np.errstate(over="ignore", invalid="ignore"):
            sd = x.std(axis=0, ddof=1)
        bad = np.flatnonzero(~((0.0 < sd) & (sd < np.inf)))
        if bad.size:
            names = [ds.feature_names[i] for i in bad]
            raise SingularCovarianceError(f"features with zero or non-finite variance: {names}")
        z = (x - x.mean(axis=0)) / sd
    elif mode == "whiten":
        feats = [ds.group_features(g) for g in GROUPS]
        with _blas_on_calling_thread():
            with np.errstate(over="ignore", invalid="ignore"):
                resid = np.concatenate([f - f.mean(axis=0) for f in feats])
                cov = resid.T @ resid / (ds.n - 3)
                eigval, eigvec = np.linalg.eigh(cov)
            # written so that NaN eigenvalues fail it
            if not (eigval[0] > 0.0 and eigval[-1] / eigval[0] < 1e12):
                raise SingularCovarianceError(
                    "pooled within-group covariance is singular or ill-conditioned"
                )
            w = eigvec @ np.diag(eigval ** -0.5) @ eigvec.T
            z = (x - x.mean(axis=0)) @ w
    else:
        raise ValueError(f"unknown standardization mode {mode!r}")
    limit = math.sqrt(np.finfo(float).max / (12 * z.shape[1]))
    bad = np.flatnonzero(np.abs(z).max(axis=0) > limit)
    if bad.size:
        names = [ds.feature_names[i] for i in bad]
        raise ValueError(
            f"features with a value above {limit:.3g} in magnitude, "
            f"where triangle sides overflow: {names}"
        )
    if mode == "none":
        return ds
    return GroupedDataset(features=z, labels=ds.labels, feature_names=ds.feature_names)


def centroid_configuration(ds: GroupedDataset) -> Configuration:
    """Triangle of the three group means (rows A, B, C)."""
    return Configuration(np.array([ds.group_features(g).mean(axis=0) for g in GROUPS]))


def _observed_triangle(ds: GroupedDataset) -> tuple:
    """``(observed, stats)`` of the centroid triangle: ``stats`` from
    ``_centroid_shape_stats``, as for every resampled triangle, and the
    report's ``observed`` fields, gamma (NaN where undefined), a2, b2 and
    c2 from ``stats`` and tau, r, phi, u and v from ``shape_point``, which
    raises DegenerateConfigurationError on coincident centroids."""
    cfg = centroid_configuration(ds)
    sp = shape_point(cfg)
    stats = _centroid_shape_stats(cfg.landmarks[:, None])
    a2, b2, c2, gamma = (float(stats[name][0]) for name in ("a2", "b2", "c2", "gamma"))
    observed = {
        "tau": tau_ibi(sp), "gamma": gamma, "r": sp.r, "phi": sp.phi, "u": sp.u, "v": sp.v,
        "a2": a2, "b2": b2, "c2": c2,
    }
    return observed, stats


def observed_ibi(ds: GroupedDataset, mode: str = "feature") -> IbiPair:
    """Both indices of the centroid triangle after standardization; gamma
    is NaN where B's centroid coincides with A's or C's."""
    observed, _ = _observed_triangle(standardize(ds, mode))
    return IbiPair(gamma=observed["gamma"], tau=observed["tau"])


# ---------------------------------------------------------------------------
# stratified bootstrap


@dataclass(frozen=True)
class BootstrapEnsemble:
    """Per-replicate shape statistics; degenerate replicates hold NaN.

    gamma is additionally NaN for replicates where a side adjacent to B
    vanishes (the cosine index is undefined there).
    """

    tau: np.ndarray
    gamma: np.ndarray
    u: np.ndarray
    v: np.ndarray
    seed: int
    n_degenerate: int = 0
    n_gamma_undefined: int = 0

    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.tau)

    @functools.cached_property
    def _region_depths(self) -> "_RegionDepths":
        """Exact depths of the valid cloud, filled in as regions need
        them and shared by the regions of every level."""
        return _RegionDepths(self)


# Bound on the index and draw values the chunks of replicates in flight
# hold together (2 MiB of int64 or uint64), so memory stays flat as K
# grows.
_CHUNK_VALUES = 2**18
# Bound on the gathered feature values of one row block (512 KiB of
# float64), so a block is reduced while it sits in a core's L2 cache.
_BLOCK_VALUES = 2**16

# Each thread's resampling buffer, kept between passes (``_chunk_arrays``)
_WORKSPACE = threading.local()


def _chunk_arrays(m: int, n: int, words: int, block: int) -> tuple:
    """The calling thread's (m, n) int64 index matrix, (m, words) uint64
    draw words and ``block`` float64 gather values, as views into one
    buffer the thread keeps between passes.

    The buffer grows to the largest chunk the thread has run and is never
    shrunk, so a warm pass allocates no chunk-sized array: freeing one
    would hand its pages back to the OS, and the next pass would fault
    them in again.  It dies with its thread."""
    shapes = ((m, n), (m, words), (block,))
    ends = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    buffer = getattr(_WORKSPACE, "buffer", None)
    if buffer is None or buffer.size < ends[-1]:
        buffer = _WORKSPACE.buffer = np.empty(ends[-1], dtype=np.int64)
    return tuple(
        buffer[lo:hi].view(dtype).reshape(shape)
        for lo, hi, dtype, shape in zip(ends, ends[1:], (np.int64, np.uint64, float), shapes)
    )


def _replicate_values(n: int, p: int) -> int:
    """Values one replicate of n observations of p features holds in a
    chunk of ``_resampled_means`` at the peak of its draw: (n + 1) // 2
    words of two 32-bit draws and the n 64-bit draws Lemire's rule makes
    of them (a permutation: its n indices), and one gathered row."""
    return (n + 1) // 2 + n + p


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _resampled_means(
    ds: GroupedDataset,
    feats: list,
    keys: np.ndarray,
    draw,
    skip: int | None = None,
    words: int = 0,
) -> np.ndarray:
    """The (3, K, p) group means of the K resampled centroid triangles
    keyed by the K rows of ``keys``, Philox keys such as the rows of
    ``stream_keys``.

    ``draw(rng, keys, out, scratch)`` takes one Philox generator, the key
    rows of a chunk of m replicates, an (m, N) int64 index matrix and an
    (m, ``words``) uint64 scratch array, and fills ``out``: its columns
    hold group A's indices into ``feats[0]``, then B's into ``feats[1]``,
    then C's into ``feats[2]``.  It re-keys ``rng``
    to each row before that replicate's first draw (``rekeyed_streams``),
    which gives the bits of a fresh generator per replicate.  Each worker
    builds one generator with ``stream_generator``, whose own key is
    never used, so the means depend on the key rows alone.  Group
    ``skip``, if given, is not gathered or summed, and its rows of the
    means are left unset.

    Per replicate a chunk holds ``_replicate_values(n, p)`` values, and
    the chunks in flight together hold at most ``_CHUNK_VALUES``.  A
    worker draws every chunk into the same index matrix and scratch and
    gathers every block into the same buffer: its thread's kept arrays
    (``_chunk_arrays``), at most 8 (``_CHUNK_VALUES`` + ``_BLOCK_VALUES``)
    bytes whatever K is, while one replicate fits in a chunk.  The
    calling thread keeps them for its later passes, which then fault in
    no fresh pages; a pool thread's die with it.  W workers run at once:
    at most one per usable CPU (``_usable_cpus``), per full-size chunk of
    the K replicates, and per replicate a full-size chunk holds, so each
    of their chunks holds at least one replicate.  The calling thread is
    worker 0 and a thread pool runs the others; worker i takes chunks i,
    i + W, ... and writes only their rows of the means.  The gather and
    the sums release the GIL, so the workers overlap.  With one chunk no
    thread is started.  Each replicate's means depend only on its own
    indices, which every chunk writes in full before it reads them, so
    neither the chunk size, nor W, nor an earlier pass changes a bit.

    Group g of a chunk of m replicates is summed over its n_g
    observations in row blocks: each block gathers the next R =
    max(1, ``_BLOCK_VALUES`` // (m p)) observations of every replicate
    as an (R, m, p) array, into one buffer each worker reuses, which
    stays in cache while it is reduced over its axis 0.  numpy adds a
    block's rows one after another, each add covering the chunk's m p
    values; before a later block is reduced its first row gets the
    running sum added (``block[0] += out``), and since IEEE addition is
    commutative that is exactly the next add of the sequential sum.  So
    the sum of n_g rows is the one numpy forms over one replicate's
    (n_g, p) block, and every mean keeps the bits of a per-replicate
    ``mean``, whatever R is.  At p = 1 the group is gathered whole, as
    (m, n_g, 1), and summed over axis 1: numpy drops the unit axis and
    sums each replicate's n_g values pairwise, as ``mean`` does over one
    column, so blocks would change the low bits.  That gather holds at
    most n values per replicate, within its count.
    """
    k = len(keys)
    sizes = list(ds.n_per_group().values())
    ends = np.cumsum([0] + sizes)
    per_replicate = _replicate_values(ds.n, ds.p)
    full = _CHUNK_VALUES // per_replicate
    workers = min(_usable_cpus(), -(-k // full), full) if full else 1
    step = max(1, _CHUNK_VALUES // workers // per_replicate)
    means = np.empty((3, k, ds.p))

    def work(first: int) -> None:
        rng = stream_generator(0)  # re-keyed before its first draw
        # every block of this worker is gathered into one buffer; a block
        # holds R m p values, at most the larger of _BLOCK_VALUES and m p
        indices, scratch, buffer = _chunk_arrays(
            step, ds.n, words, max(_BLOCK_VALUES, step * ds.p)
        )
        for lo in range(first * step, k, workers * step):
            chunk = keys[lo : lo + step]
            idx = indices[: len(chunk)]
            draw(rng, chunk, idx, scratch[: len(chunk)])
            rows = max(1, _BLOCK_VALUES // (len(chunk) * ds.p))
            for g in range(3):
                if g == skip:
                    continue
                out = means[g, lo : lo + step]
                cols = idx[:, ends[g] : ends[g + 1]]
                if ds.p == 1:
                    # (m, n_g, 1) drops its unit axis and is summed pairwise
                    np.add.reduce(np.take(feats[g], cols, axis=0), axis=1, out=out)
                else:
                    cols = cols.T
                    for r in range(0, sizes[g], rows):
                        at = cols[r : r + rows]
                        block = buffer[: at.size * ds.p].reshape(*at.shape, ds.p)
                        # the indices lie in range, so "clip" changes none;
                        # unlike "raise" it writes straight into the buffer
                        np.take(feats[g], at, axis=0, out=block, mode="clip")
                        if r:
                            block[0] += out  # carry the running sum
                        np.add.reduce(block, axis=0, out=out)
                out /= sizes[g]

    if workers == 1:
        work(0)
    else:
        # imported here, so a process that never needs a second worker
        # never loads the thread pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers - 1) as pool:
            futures = [pool.submit(work, i) for i in range(1, workers)]
            work(0)
            for future in futures:
                future.result()
    return means


def stratified_bootstrap(ds: GroupedDataset, k: int, seed: int) -> BootstrapEnsemble:
    """Resample within each group, recompute the centroid triangle K times.

    Replicate j draws its indices from the stream (seed, bootstrap, j),
    so an ensemble depends on nothing but (ds, k, seed).

    Degenerate replicates (coincident centroids) are recorded as NaN and
    counted in ``n_degenerate`` rather than failing the run.
    """
    if k < 1:
        raise ValueError("need at least one bootstrap replicate")
    feats = [ds.group_features(g) for g in GROUPS]
    sizes = [len(f) for f in feats]

    def draw(rng, keys, out, words):
        bootstrap_indices(rng, keys, sizes, out, words)

    keys = stream_keys(seed, DOMAIN_BOOTSTRAP, k)
    means = _resampled_means(ds, feats, keys, draw, words=(ds.n + 1) // 2)
    stats = _centroid_shape_stats(means)
    return BootstrapEnsemble(
        tau=stats["tau"], gamma=stats["gamma"], u=stats["u"], v=stats["v"],
        seed=int(seed),
        n_degenerate=int(np.count_nonzero(stats["degenerate"])),
        n_gamma_undefined=int(np.count_nonzero(stats["gamma_undefined"])),
    )


def percentile_ci(values, level: float) -> tuple:
    """Equal-tail percentile interval via linear interpolation of order
    statistics (the numpy default quantile rule)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    vals = np.asarray(values, dtype=float)
    vals = vals[np.isfinite(vals)]
    if vals.size < 2:
        raise InsufficientDataError(
            f"need at least 2 finite values, got {vals.size}"
        )
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(vals, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# confidence regions


# Half-width of the first shell of upper bounds around a level's
# threshold, as a multiple of 1 / sqrt(n) in depth units: on iris and
# simulated clouds of 500 to 10000 points, 0.05 to 0.12 needed the fewest
# exact depths, a narrower shell too few hull vertices, a wider one more
# points in the shell.
_SHELL = 0.1


class _RegionDepths:
    """Exact depths of an ensemble's valid cloud against itself, computed
    only where a confidence region needs them.

    ``valid`` holds the valid replicates' indices and ``cloud`` their
    (u, v) points, in replicate order; fewer than 3 raise
    InsufficientReplicatesError before any bound is computed.  Every
    point has an upper bound on its depth (``depth_upper_bounds``, kept
    sorted as well) and, once computed, its exact depth (NaN until then),
    each as ``tukey_depths`` would give it.  A level's threshold t and
    members come from the exact depths of a shell of points whose bounds
    lie near t, plus two certificates: every other point below the shell
    has a bound < t, and every point above it lies inside the hull of
    computed points of depth >= t (``inside_by_margin``; depth regions
    are convex).  A point the certificates cannot decide gets its exact
    depth, so a degenerate cloud ends up computing every depth.
    """

    def __init__(self, ens: BootstrapEnsemble):
        self.valid = np.flatnonzero(ens.valid_mask())
        if self.valid.size < 3:
            raise InsufficientReplicatesError(
                f"need at least 3 valid replicates, got {self.valid.size}"
            )
        self.cloud = np.column_stack([ens.u[self.valid], ens.v[self.valid]])
        self.bound = depth_upper_bounds(self.cloud)
        self.sorted_bound = np.sort(self.bound)
        self.depth = np.full(self.valid.size, np.nan)

    def _compute(self, idx: np.ndarray) -> None:
        idx = idx[np.isnan(self.depth[idx])]
        if idx.size:
            self.depth[idx] = tukey_depths(self.cloud[idx], self.cloud)

    def region(self, count: int) -> tuple:
        """The c-th largest depth t, for c = ``count``, and the mask of
        points with depth >= t; ``region(1)`` gives the largest depth and
        the deepest points.

        With M unknown points above the shell, all certified >= t, and
        every other unknown point certified < t, the c-th largest depth
        is the (c - M)-th largest computed one.  At least c points have a
        bound >= the shell's centre, and each lies in the shell (computed)
        or above it (computed or among the M), so c - M never exceeds the
        computed count.
        """
        bound, depth = self.bound, self.depth
        n = bound.size
        start = self.sorted_bound[n - count]  # >= the threshold
        width = _SHELL / math.sqrt(n)
        lo, hi = start - width, start + width
        while True:
            self._compute(np.flatnonzero((lo <= bound) & (bound <= hi)))
            known = ~np.isnan(depth)
            above = np.flatnonzero(~known & (bound > hi))
            computed = depth[known]
            need = count - above.size
            t = np.sort(computed)[computed.size - need]
            # every unknown point below the shell must have a bound < t
            if t < lo and np.any(~known & (bound >= t) & (bound < lo)):
                lo = t
                continue
            # and every one above it must be certified >= t
            if above.size:
                # a set spanning no area yields no polygon with an inside
                hull, _ = _hull_and_area(self.cloud[depth >= t])
                inside = inside_by_margin(self.cloud[above], hull, self.cloud)
                if not inside.all():
                    self._compute(above[~inside])
                    continue
            member = depth >= t
            member[above] = True
            return float(t), member


@dataclass(frozen=True)
class ConfidenceRegion:
    """Deepest-replicate region of shape space at a target coverage level."""

    level: float
    depth_threshold: float
    member_indices: np.ndarray  # replicate indices into the ensemble
    member_points: np.ndarray  # (m, 2) of (u, v)
    area: float  # of the members' convex hull


def _hull_and_area(points: np.ndarray) -> tuple:
    """Convex hull vertices and area.

    Points that span no area (one or two points, copies of one or two
    points, or a collinear set) make qhull fail; their hull is then their
    distinct points, sorted, with area 0.
    """
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(points)
    except QhullError:
        return np.unique(points, axis=0), 0.0
    return points[hull.vertices], float(hull.volume)


def confidence_region(ens: BootstrapEnsemble, level: float) -> ConfidenceRegion:
    """Region of the deepest bootstrap shape points holding >= level mass.

    The depth threshold is the largest depth value whose upper level set
    contains at least ``level`` of the valid replicates, i.e. the
    smallest achievable covering fraction at or above the target.  With
    c = ceil(level * n) for n valid replicates, that is the (n - c)-th
    smallest depth: the c deepest points reach it, and any larger value
    leaves out that point and every point below it.  Threshold and
    members are those the depth of every valid point against the valid
    cloud would give, but only the depths deciding them are computed
    (``_RegionDepths``), once per ensemble for all levels.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    depths = ens._region_depths
    threshold, member = depths.region(math.ceil(level * depths.valid.size))
    points = depths.cloud[member]
    return ConfidenceRegion(
        level=float(level),
        depth_threshold=threshold,
        member_indices=depths.valid[member],
        member_points=points,
        area=_hull_and_area(points)[1],
    )


def region_summary(ens: BootstrapEnsemble, cr: ConfidenceRegion) -> dict:
    """The report's records ``{u, v, tau, a2, b2, c2, replicate}`` of the
    ensemble's deepest valid replicate ("median", in every region) and the
    members of ``cr`` with extreme tau ("max_tau", "min_tau"), first on ties."""
    depths = ens._region_depths
    taus = ens.tau[cr.member_indices]
    summary = {}
    for name, rep in (
        ("median", depths.valid[np.argmax(depths.region(1)[1])]),
        ("max_tau", cr.member_indices[taus.argmax()]),
        ("min_tau", cr.member_indices[taus.argmin()]),
    ):
        sp = ShapePoint.from_rect(float(ens.u[rep]), float(ens.v[rep]))
        sides = sides_from_shape(sp)
        summary[name] = {
            "u": sp.u, "v": sp.v, "tau": float(ens.tau[rep]), "a2": sides.a2, "b2": sides.b2,
            "c2": sides.c2, "replicate": int(rep),
        }
    return summary


# ---------------------------------------------------------------------------
# permutation test


# float64's unit roundoff u: one rounding errs by at most u relative
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _permutation_means(ds: GroupedDataset, keys: np.ndarray, skip: int | None = None) -> np.ndarray:
    """The exact kernel's (3, m, p) group means of the m relabellings
    keyed by the rows of ``keys``: a row's relabelling gives group A the
    first n_A rows of the ``permutation(N)`` a Philox with that key
    draws, B the next n_B and C the rest.  Group ``skip`` is left
    unsummed."""

    def draw(rng, keys, out, scratch):
        # permutation(n) is arange(n) shuffled in place: the same draws
        out[:] = np.arange(ds.n)
        for row, g in zip(out, rekeyed_streams(rng, keys)):
            g.shuffle(row)

    return _resampled_means(ds, [ds.features] * 3, keys, draw, skip)


def _derived_mean_error(x: np.ndarray, n_big: int) -> float:
    """Bound on the 2-norm distance between the mean of a group of n_big
    of the n rows of ``x`` taken as (T - n1 m1 - n2 m2) / n_big, T the
    column totals and m1, m2 the exact kernel's means of the other two
    groups, and the mean the exact kernel sums.

    Summing terms in any order errs by at most gamma_{t-1} = (t - 1) u /
    (1 - (t - 1) u) times the sum of their magnitudes (Higham 2002,
    *Accuracy and Stability of Numerical Algorithms*, section 4.2).  Over
    the four sums (T, the two other groups' and the kernel's own) that is
    (2n - 4) u per unit of a column's |x| sum, and the products n_g m_g,
    the two subtractions and the two divisions add at most 10 u, so a
    column's mean errs by at most (2n + 6) u |x| sum / n_big.  That is at
    most 3n of the 4n taken here, for n >= 6; the rest is room for the
    rounding of the bound itself.  A column's |x| sum is at most sqrt(n
    times its sum of squares) (Cauchy-Schwarz), so the 2-norm of the
    columns' |x| sums is at most sqrt(n) times the Frobenius norm of x.
    """
    n = x.shape[0]
    # no (n, p) temporary and no BLAS call; an overflow gives an infinite
    # bound, which decides no permutation
    with np.errstate(over="ignore"):
        sum_squares = float(np.einsum("ij,ij->", x, x))
    return 4.0 * n * _UNIT_ROUNDOFF * math.sqrt(n * sum_squares) / n_big


def _magnitude(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The least and the largest |x| for x in [lo, hi]."""
    return np.maximum(np.maximum(lo, -hi), 0.0), np.maximum(-lo, hi)


def _certified_counts(
    means: np.ndarray, big: int, error: float, scale: float, observed: tuple
) -> tuple:
    """Decide from approximate means which permutations exceed.

    ``means`` are the exact kernel's group means except group ``big``'s,
    which lie within ``error`` (2-norm) of them; ``scale`` bounds 1 + the
    largest |mean|.  Returns ``(counts, undecided)``: for tau and then
    gamma, the number of permutations certainly counted by the p-value
    rule of ``permutation_test``, and the mask of those no bound decides.

    Moving a vertex by at most e moves the length r of a side at it by
    at most e, so its squared side by at most e (2r + e); the subtraction,
    the p squares and their sum round both sides' values by at most
    (2p + 4) u relative, and (2p + 16) u leaves room.  The side opposite
    ``big`` joins two exact vertices.  From the sides' intervals, tau =
    3 b2 / (a2 + b2 + c2) - 1, increasing in b2 and decreasing in a2 and
    c2, and gamma = (b2 - a2 - c2) / (2 sqrt(a2 c2)) get intervals; the
    exact kernel's formulas round tau by less than 64 u and gamma by less
    than 64 u (a2 + b2 + c2) / (2 sqrt(a2 c2)), their bounds included.
    A permutation stays undecided where the triangle may be degenerate,
    gamma may be undefined (a2 or c2 may be 0), or an interval holds
    |observed|.  Comparing |x| with |observed| <= 1 gives the same
    verdict before and after the kernel's clip to [-1, 1].
    """
    u = _UNIT_ROUNDOFF
    sides = np.stack(_squared_sides(means))
    moved = np.full((3, 1), error)
    moved[big] = 0.0
    # an infinite or overflowing bound decides nothing, silently
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bound = moved * (2.0 * np.sqrt(sides) + moved) + (2 * means.shape[2] + 16) * u * sides
        lo = np.maximum(sides - bound, 0.0)
        hi = sides + bound
        (a_lo, b_lo, c_lo), (a_hi, b_hi, c_hi) = lo, hi
        # the kernel's coincidence rule, sqrt(total / 3) < _COINCIDENT_RTOL
        # * scale, fails for every total above 3 (_COINCIDENT_RTOL scale)^2
        decided = lo.sum(axis=0) > 4.0 * (_COINCIDENT_RTOL * scale) ** 2
        least, most = _magnitude(
            3.0 * b_lo / (a_hi + b_lo + c_hi) - 1.0, 3.0 * b_hi / (a_lo + b_hi + c_lo) - 1.0
        )
        slack = 64 * u
        exceeds = [least - slack >= abs(observed[0]), np.zeros_like(decided)]
        decided &= exceeds[0] | (most + slack < abs(observed[0]))
        if math.isfinite(observed[1]):
            least, most = _magnitude(b_lo - a_hi - c_hi, b_hi - a_lo - c_lo)
            den_lo, den_hi = 2.0 * np.sqrt(a_lo * c_lo), 2.0 * np.sqrt(a_hi * c_hi)
            slack = 64 * u * hi.sum(axis=0) / den_lo
            exceeds[1] = least / den_hi - slack >= abs(observed[1])
            decided &= (den_lo > 0.0) & (exceeds[1] | (most / den_lo + slack < abs(observed[1])))
    return [np.count_nonzero(e & decided) for e in exceeds], ~decided


def permutation_test(ds: GroupedDataset, k: int, seed: int) -> dict:
    """Label-shuffling test of the fully exchangeable null.

    Returns two-sided p-values ``{"p_tau": ..., "p_gamma": ...}`` with
    p = (1 + #{|stat_perm| >= |stat_obs|}) / (K + 1); permutations where
    a statistic is undefined count as exceeding, and an undefined
    observed statistic has p = 1.  Permutation j relabels the rows by
    the ``permutation(N)`` of stream (seed, permutation, j), keyed by row
    j of ``stream_keys``; the kernel's generators are re-keyed to each
    row before their first draw, so their own keys are never used.

    Each count is the one that the exact kernel's group means
    (``_permutation_means``), put through the statistics of the observed
    triangle (``_centroid_shape_stats``), would give, but most
    permutations are decided without them.  The two smaller groups are
    summed by the exact kernel; the largest group's sum is the column
    total less theirs, and ``_derived_mean_error`` bounds how far its
    mean lies from the kernel's.  ``_certified_counts`` turns that into
    intervals for tau and gamma and decides every permutation whose
    intervals do not hold |observed|; the rest are undecided.  At p = 1
    every permutation is undecided: gamma is +-1 in exact arithmetic, but
    the computed |gamma| can round below 1, so rounding decides p_gamma.
    The undecided permutations are drawn again by their keys and go
    through the exact kernel in one pass.
    """
    if k < 1:
        raise ValueError("need at least one permutation")
    _, obs = _observed_triangle(ds)
    observed = (float(obs["tau"][0]), float(obs["gamma"][0]))
    keys = stream_keys(seed, DOMAIN_PERMUTATION, k)
    if ds.p == 1:
        # gamma is +-1 on every triangle of scalar means, up to rounding,
        # so no bound decides it
        counts, undecided = [0, 0], np.ones(k, dtype=bool)
    else:
        sizes = [ds.n_per_group()[g] for g in GROUPS]
        big = int(np.argmax(sizes))
        first, second = (g for g in range(3) if g != big)
        means = _permutation_means(ds, keys, skip=big)
        x = ds.features
        # (T - n1 m1 - n2 m2) / n_big in place, beside one (K, p) temporary
        derived = means[big]
        np.multiply(means[first], -sizes[first], out=derived)
        derived += x.sum(axis=0)
        derived -= sizes[second] * means[second]
        derived /= sizes[big]
        scale = 1.0 + max(float(x.max()), -float(x.min()))
        counts, undecided = _certified_counts(
            means, big, _derived_mean_error(x, sizes[big]), scale, observed
        )
    if undecided.any():
        # a statistic counts where it reaches |observed| or is undefined
        stats = _centroid_shape_stats(_permutation_means(ds, keys[undecided]))
        counts = [
            c + np.count_nonzero(~np.isfinite(stats[name]) | (np.abs(stats[name]) >= abs(obs)))
            for c, name, obs in zip(counts, ("tau", "gamma"), observed)
        ]
    pvalues = [
        (1.0 + count) / (k + 1.0) if math.isfinite(obs) else 1.0
        for count, obs in zip(counts, observed)
    ]
    return {"p_tau": pvalues[0], "p_gamma": pvalues[1]}


# ---------------------------------------------------------------------------
# coverage simulation


def coverage_simulation(
    r: float,
    phi: float,
    p: int,
    n_per_group: int,
    sigma2: float,
    n_sims: int,
    k: int,
    seed: int,
    level: float = 0.95,
) -> dict:
    """Monte-Carlo check of CI/region coverage around a known mean shape.

    Each simulated dataset draws ``n_per_group`` observations per group
    around a mean configuration with shape (r, phi), scaled so the RMS
    landmark distance from the centroid is 1 (Frobenius size sqrt(3)).
    Reports the fraction of tau intervals containing the true tau, the
    mean interval length, the fraction of shape-space regions whose depth
    threshold the true (u, v) attains, and the mean region area.
    """
    for name, value, least in (
        ("p (--p)", p, 2), ("n_per_group (--n)", n_per_group, 2),
        ("n_sims (--sims)", n_sims, 1), ("k (--boot)", k, 3),
    ):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if k > MAX_STREAMS:
        raise ValueError(f"k (--boot) must be at most 2**32, got {k}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level (--level) must lie in (0, 1), got {level}")
    if seed < 0:
        raise ValueError(f"seed (--seed) must be >= 0, got {seed}")
    if not math.isfinite(phi):
        raise ValueError(f"phi (--phi) must be finite, got {phi}")
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r (--r) must lie in [0, 1], got {r}")
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"sigma2 (--sigma2) must be positive and finite, got {sigma2}")
    # a draw one standard deviation out would pass standardize's bound on
    # |value|, beyond which the triangle's squared sides overflow
    if sigma2 > np.finfo(float).max / (12 * p):
        raise ValueError(
            f"sigma2 (--sigma2) must be at most {np.finfo(float).max / (12 * p):.3g} "
            f"for p = {p}, where triangle sides overflow; got {sigma2}"
        )
    mean_cfg = mean_configuration_from_shape(r, phi, p=p)
    spec = GroupSpec(means=mean_cfg.landmarks * _SQRT3, sigma2=sigma2, n=n_per_group)
    tau_true = r * math.cos(phi - math.pi / 3.0)
    uv_true = np.array([r * math.cos(phi), r * math.sin(phi)])

    ci_hits = 0
    cr_hits = 0
    coarse = 0
    lengths = np.empty(n_sims)
    areas = np.empty(n_sims)
    for s in range(n_sims):
        data = sample_grouped_dataset(spec, stream_generator(seed, DOMAIN_SIMULATION, s))
        boot_seed = int(
            np.random.SeedSequence(
                entropy=int(seed), spawn_key=(DOMAIN_SIMULATION, s, 1)
            ).generate_state(1, np.uint64)[0]
        )
        ens = stratified_bootstrap(data, k=k, seed=boot_seed)
        lo, hi = percentile_ci(ens.tau, level)
        ci_hits += lo <= tau_true <= hi
        lengths[s] = hi - lo
        coarse += np.count_nonzero(ens.valid_mask()) < _MIN_REGION_REPLICATES
        cr = confidence_region(ens, level)
        cr_hits += tukey_depth(uv_true, ens._region_depths.cloud) >= cr.depth_threshold
        areas[s] = cr.area
    if coarse:
        warnings.warn(
            f"{coarse} of {n_sims} simulated datasets had fewer than "
            f"{_MIN_REGION_REPLICATES} valid replicates; their confidence "
            "regions are coarse",
            stacklevel=2,
        )
    return {
        "ci_coverage": ci_hits / n_sims,
        "ci_length": float(lengths.mean()),
        "cr_coverage": cr_hits / n_sims,
        "cr_area": float(areas.mean()),
    }
