"""Statistical inference for in-betweenness.

Pipeline: standardize features, form the centroid triangle, then
quantify uncertainty by resampling within groups (stratified bootstrap),
permutation testing of the no-structure null, and Tukey-depth confidence
regions in shape space.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .depth import depth_upper_bounds, inside_by_margin, tukey_depth, tukey_depths
from .errors import (
    InsufficientDataError,
    InsufficientReplicatesError,
    SingularCovarianceError,
)
from .metrics import IbiPair, ibi_pair, tau_ibi
from .sampling import (
    DOMAIN_BOOTSTRAP,
    DOMAIN_PERMUTATION,
    DOMAIN_SIMULATION,
    GroupSpec,
    bootstrap_indices,
    mean_configuration_from_shape,
    rekeyed_streams,
    sample_grouped_dataset,
    stream_generator,
    stream_keys,
)
from .shape import (
    Configuration,
    ShapePoint,
    SideLengths,
    _centroid_shape_stats,
    shape_point,
    side_lengths,
    sides_from_shape,
)

__all__ = [
    "GROUPS",
    "GroupedDataset",
    "BootstrapEnsemble",
    "ConfidenceRegion",
    "RegionPoint",
    "RegionSummary",
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

    @classmethod
    def from_observations(cls, observations, feature_names=()) -> "GroupedDataset":
        obs = list(observations)
        labels = np.array([o[0] for o in obs], dtype=object)
        features = np.array([np.asarray(o[1], dtype=float) for o in obs])
        return cls(features=features, labels=labels, feature_names=feature_names)

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


def observed_ibi(ds: GroupedDataset, mode: str = "feature") -> IbiPair:
    """Both indices of the centroid triangle after standardization; gamma
    is NaN where B's centroid coincides with A's or C's."""
    cfg = centroid_configuration(standardize(ds, mode))
    return IbiPair(gamma=ibi_pair(side_lengths(cfg)).gamma, tau=tau_ibi(shape_point(cfg)))


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
    a2: np.ndarray
    b2: np.ndarray
    c2: np.ndarray
    seed: int
    k: int
    n_degenerate: int = 0
    n_gamma_undefined: int = 0

    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.tau)

    def valid_cloud(self) -> np.ndarray:
        """The (u, v) points of the valid replicates, in replicate order."""
        valid = self.valid_mask()
        return np.column_stack([self.u[valid], self.v[valid]])

    @functools.cached_property
    def _region_depths(self) -> "_RegionDepths":
        """Exact depths of the valid cloud, filled in as regions need
        them and shared by the regions of every level."""
        return _RegionDepths(self.valid_cloud())


# Bound on the values the chunks of replicates in flight hold together
# (8 MiB of float64 or int64), so memory stays flat as K grows.
_CHUNK_VALUES = 2**20


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _resampled_shape_stats(
    ds: GroupedDataset, feats: list, k: int, seed: int, domain: int, draw
) -> dict:
    """Shape statistics of K resampled centroid triangles.

    Replicate j owns the stream (seed, domain, j), keyed by row j of
    ``stream_keys``.  ``draw(rng, keys)`` takes one Philox generator and
    the key rows of a chunk of m replicates, and returns an (m, N) index
    matrix whose columns hold group A's indices into ``feats[0]``, then
    B's into ``feats[1]``, then C's into ``feats[2]``.  Each worker
    builds one generator with ``stream_generator`` for replicate 0 and
    re-keys it for every replicate (``rekeyed_streams``), which gives the
    same bits as a fresh generator per replicate.

    Per replicate a chunk holds p gathered feature values and two
    index-sized values (the index, and the raw words and temporaries
    drawing it) per observation, and the chunks in flight together hold
    at most ``_CHUNK_VALUES`` values.  W workers run at once: at most
    one per usable CPU (``_usable_cpus``), per full-size chunk of the K
    replicates, and per replicate a full-size chunk holds, so each of
    their chunks holds at least one replicate.  The calling thread is
    worker 0 and a thread pool runs the others; worker i takes chunks i,
    i + W, ... and writes only their rows of the means.  The gather and
    the sums release the GIL, so the workers overlap.  With one chunk no
    thread is started.  Each replicate's means depend only on its own
    indices, so neither the chunk size nor W changes a bit.

    Group g of a chunk is gathered as an (n_g, m, p) block and summed
    over its observation axis 0.  numpy adds the n_g rows one after
    another, as it sums the rows of one replicate's (n_g, p) block, so
    the bits are those of a per-replicate mean; but each add covers the
    whole chunk's m * p values instead of one replicate's p.  At p = 1
    the block is gathered as (m, n_g, 1) and summed over axis 1: numpy
    drops the unit axis and sums each replicate's n_g values pairwise,
    as ``mean`` does over one column, where the (n_g, m) layout would
    add them one after another and change the low bits.
    """
    keys = stream_keys(seed, domain, k)
    sizes = list(ds.n_per_group().values())
    ends = np.cumsum([0] + sizes)
    per_replicate = ds.n * (ds.p + 2)
    full = _CHUNK_VALUES // per_replicate
    workers = min(_usable_cpus(), -(-k // full), full) if full else 1
    step = max(1, _CHUNK_VALUES // workers // per_replicate)
    means = np.empty((3, k, ds.p))

    def work(first: int) -> None:
        rng = stream_generator(seed, domain, 0)
        for lo in range(first * step, k, workers * step):
            idx = draw(rng, keys[lo : lo + step])
            for g in range(3):
                out = means[g, lo : lo + step]
                cols = idx[:, ends[g] : ends[g + 1]]
                if ds.p == 1:
                    # (m, n_g, 1) drops its unit axis and is summed pairwise
                    np.add.reduce(np.take(feats[g], cols, axis=0), axis=1, out=out)
                else:
                    np.add.reduce(np.take(feats[g], cols.T, axis=0), axis=0, out=out)
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
    return _centroid_shape_stats(means[0], means[1], means[2])


def stratified_bootstrap(ds: GroupedDataset, k: int, seed: int) -> BootstrapEnsemble:
    """Resample within each group, recompute the centroid triangle K times.

    Replicate j draws its indices from the stream (seed, bootstrap, j),
    so an ensemble depends on nothing but (ds, k, seed).

    Degenerate replicates (coincident centroids) are recorded as NaN and
    counted in ``n_degenerate`` rather than failing the run.
    """
    if k < 1:
        raise ValueError("need at least one bootstrap replicate")
    group_feats = [ds.group_features(g) for g in GROUPS]
    sizes = [len(f) for f in group_feats]

    def draw(rng, keys):
        return bootstrap_indices(rng, keys, sizes)

    stats = _resampled_shape_stats(ds, group_feats, k, seed, DOMAIN_BOOTSTRAP, draw)
    return BootstrapEnsemble(
        tau=stats["tau"], gamma=stats["gamma"], u=stats["u"], v=stats["v"],
        a2=stats["a2"], b2=stats["b2"], c2=stats["c2"],
        seed=int(seed), k=int(k),
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
# Candidates for the deepest point taken per exact pass, by upper bound.
_DEEPEST_BATCH = 8


class _RegionDepths:
    """Exact depths of a cloud's points against the cloud, computed only
    where a confidence region needs them.

    Every point has an upper bound on its depth (``depth_upper_bounds``)
    and, once computed, its exact depth (NaN until then), each as
    ``tukey_depths`` would give it.  A level's threshold t and members
    come from the exact depths of a shell of points whose bounds lie near
    t, plus two certificates: every other point below the shell has a
    bound < t, and every point above it lies inside the hull of computed
    points of depth >= t (``inside_by_margin``; depth regions are convex).
    A point the certificates cannot decide gets its exact depth, so a
    degenerate cloud ends up computing every depth.
    """

    def __init__(self, cloud: np.ndarray):
        self.cloud = cloud
        self.bound = depth_upper_bounds(cloud, cloud)
        self.depth = np.full(cloud.shape[0], np.nan)

    def _compute(self, idx: np.ndarray) -> None:
        idx = idx[np.isnan(self.depth[idx])]
        if idx.size:
            self.depth[idx] = tukey_depths(self.cloud[idx], self.cloud)

    def region(self, count: int) -> tuple:
        """The c-th largest depth t, for c = ``count``, and the mask of
        points with depth >= t.

        With M unknown points above the shell, all certified >= t, and
        every other unknown point certified < t, the c-th largest depth
        is the (c - M)-th largest computed one.
        """
        bound, depth = self.bound, self.depth
        n = bound.size
        start = np.sort(bound)[n - count]  # >= the threshold
        width = _SHELL / math.sqrt(n)
        lo, hi = start - width, start + width
        step = width
        while True:
            self._compute(np.flatnonzero((lo <= bound) & (bound <= hi)))
            known = ~np.isnan(depth)
            above = np.flatnonzero(~known & (bound > hi))
            computed = depth[known]
            need = count - above.size
            if need > computed.size:  # t lies below the shell: widen it down
                lo -= step
                step *= 2
                continue
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

    def deepest(self) -> int:
        """Index of the deepest point, the first one on ties."""
        bound, depth = self.bound, self.depth
        best = np.max(depth, initial=0.0, where=~np.isnan(depth))
        while True:
            todo = np.flatnonzero(np.isnan(depth) & (bound >= best))
            if not todo.size:
                return int(np.flatnonzero(depth == best)[0])
            todo = todo[np.argsort(-bound[todo])[:_DEEPEST_BATCH]]
            self._compute(todo)
            best = max(best, depth[todo].max())


@dataclass(frozen=True)
class ConfidenceRegion:
    """Deepest-replicate region of shape space at a target coverage level."""

    level: float
    depth_threshold: float
    member_indices: np.ndarray  # replicate indices into the ensemble
    member_points: np.ndarray  # (m, 2) of (u, v)
    member_taus: np.ndarray
    deepest: int  # position of the deepest member (first on ties)
    hull: np.ndarray  # (h, 2) polygon vertices
    area: float


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
    leaves out that point and every point below it.  Threshold, members
    and deepest member are those the depth of every valid point against
    the valid cloud would give, but only the depths deciding them are
    computed (``_RegionDepths``), once per ensemble for all levels.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    valid = np.flatnonzero(ens.valid_mask())
    if valid.size < 3:
        raise InsufficientReplicatesError(
            f"need at least 3 valid replicates, got {valid.size}"
        )
    if valid.size < _MIN_REGION_REPLICATES:
        warnings.warn(
            f"only {valid.size} valid replicates; the confidence region is coarse",
            stacklevel=2,
        )
    depths = ens._region_depths
    threshold, member = depths.region(math.ceil(level * valid.size))
    points = depths.cloud[member]
    hull, area = _hull_and_area(points)
    return ConfidenceRegion(
        level=float(level),
        depth_threshold=threshold,
        member_indices=valid[member],
        member_points=points,
        member_taus=ens.tau[valid[member]],
        deepest=int(np.count_nonzero(member[: depths.deepest()])),
        hull=hull,
        area=area,
    )


@dataclass(frozen=True)
class RegionPoint:
    """One distinguished shape inside a confidence region."""

    point: ShapePoint
    sides: SideLengths
    tau: float
    replicate: int


@dataclass(frozen=True)
class RegionSummary:
    """Median (deepest) and extreme-tau members of a confidence region."""

    median: RegionPoint
    max_tau: RegionPoint
    min_tau: RegionPoint


def _region_point(cr: ConfidenceRegion, pos: int) -> RegionPoint:
    u, v = cr.member_points[pos]
    sp = ShapePoint.from_rect(float(u), float(v))
    return RegionPoint(
        point=sp,
        sides=sides_from_shape(sp),
        tau=float(cr.member_taus[pos]),
        replicate=int(cr.member_indices[pos]),
    )


def region_summary(cr: ConfidenceRegion) -> RegionSummary:
    """Deepest member plus the members with extreme tau (ties: smallest
    replicate index, which is the first occurrence)."""
    if cr.member_points.shape[0] == 0:
        raise InsufficientReplicatesError("empty confidence region")
    return RegionSummary(
        median=_region_point(cr, cr.deepest),
        max_tau=_region_point(cr, int(np.argmax(cr.member_taus))),
        min_tau=_region_point(cr, int(np.argmin(cr.member_taus))),
    )


# ---------------------------------------------------------------------------
# permutation test


def permutation_test(ds: GroupedDataset, k: int, seed: int) -> dict:
    """Label-shuffling test of the fully exchangeable null.

    Returns two-sided p-values ``{"p_tau": ..., "p_gamma": ...}`` with
    p = (1 + #{|stat_perm| >= |stat_obs|}) / (K + 1); permutations where
    a statistic is undefined count as exceeding.
    """
    if k < 1:
        raise ValueError("need at least one permutation")
    cfg = centroid_configuration(ds)
    obs = ibi_pair(side_lengths(cfg))

    def draw(rng, keys):
        idx = np.empty((len(keys), ds.n), dtype=np.int64)
        for row, g in zip(idx, rekeyed_streams(rng, keys)):
            row[:] = g.permutation(ds.n)
        return idx

    stats = _resampled_shape_stats(ds, [ds.features] * 3, k, seed, DOMAIN_PERMUTATION, draw)

    def pvalue(perm_vals: np.ndarray, observed: float) -> float:
        exceed = ~np.isfinite(perm_vals)  # undefined counts as extreme
        if math.isfinite(observed):
            exceed |= np.abs(perm_vals) >= abs(observed)
            return (1.0 + np.count_nonzero(exceed)) / (k + 1.0)
        return 1.0

    return {
        "p_tau": pvalue(stats["tau"], obs.tau),
        "p_gamma": pvalue(stats["gamma"], obs.gamma),
    }


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
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=r"only \d+ valid replicates")
            cr = confidence_region(ens, level)
        cr_hits += tukey_depth(uv_true, ens.valid_cloud()) >= cr.depth_threshold
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
