"""Exact Tukey (halfspace) depth in the plane, for many query points at once.

Depth of a point q against a cloud of n points is the minimum, over all
closed halfplanes whose boundary passes through q, of the fraction of
cloud points inside.  Cloud points that coincide with q lie in every such
halfplane and always count.  Seen from q, let theta_j be the directions
of the other points.  As a halfplane turns about q its count changes only
when its boundary passes one of them.  Turning a minimising halfplane
back until its boundary meets some theta_i keeps its count, which is
then the number of points in the arc (theta_i, theta_i + pi], so (cf.
Rousseeuw & Ruts 1996, AS 307)

    depth(q) = (#coincident + min_i #{j : theta_j in (theta_i, theta_i + pi]}) / n.

Half-plane keying.  A direction is never shifted by pi in floating
point.  Each difference vector w = c - q is mapped into the closed upper
half-plane by exact negation, recording a half bit h = 1 when w pointed
into the lower half (y < 0, or y = 0 and x < 0), and keyed by
(phi, h) with phi = arctan2 of the flipped vector in [0, pi].  Antipodal
points share phi and differ only in h, exactly, so the only rounding is
that of arctan2 itself, which is monotone in the angle; no shift by pi
adds another.  Wherever arctan2 maps equal directions to equal values and
separates distinct ones (as on the integer-grid clouds of the tests), the
depths agree exactly with the sign-test enumeration in the tests' oracle.
With c0 and c1 the number of points of half 0 and
half 1 whose phi is at most phi_i, and Z0, Z1 the half totals, the arc
count of direction (phi_i, h) is Z0 - c0 + c1 for h = 0 and
Z1 - c1 + c0 for h = 1.  Both formulas give the count of some arc
(theta, theta + pi] that a halfplane attains, so evaluating both at
every distinct phi is safe and finds the minimum.

Kernel.  Keys are packed into order-preserving uint64 values
((bits of phi) << 1 | h; phi >= 0, so its float bits sort as integers),
one row per query, and sorted along the rows.  The cumulative half-1
count along a sorted row gives c1 and c0 at the last key of each run of
equal phi.  Rows are processed in chunks of about ``_CHUNK_PAIRS``
query x cloud pairs, which bounds the working memory for any ensemble
size.

Bounds.  A confidence region needs the exact depths of few points (see
``inference._RegionDepths``); two cheap tests settle the rest, both
conservative with respect to the depths this kernel computes:

- ``depth_upper_bounds``: a cloud point's depth is at most its count in
  any closed halfplane through it, here along 16 fixed directions.  Cloud
  points whose projection lies within ``BOUND_MARGIN * s`` of its own
  (s the largest |coordinate|) count on both sides.  All directions are
  projected and sorted in one pass.  Along a direction whose sorted
  projections are more than 2 * ``BOUND_MARGIN * s`` apart, no other
  point lies within the margin, so a point's two counts are read off its
  rank r as n - r and r + 1; only a direction with closer projections
  (ties, duplicates) searches for them.
- ``inside_by_margin``: depth regions are convex, so a point inside a
  polygon whose vertices have depth >= t has depth >= t.  The polygon is
  ``support_polygon`` of the computed points of depth >= t: their
  extremes along 32 directions, which needs no qhull.  A point counts as
  inside only when it is more than ``HULL_MARGIN * s`` left of every edge.

The kernel's rounding moves a cloud point by far less than
``BOUND_MARGIN * s`` across any halfplane boundary, so rounding can only
raise the upper bound and never marks a point inside wrongly.  A point
neither test decides, such as any point of a cloud with no interior (all
shapes on the unit circle when p = 1), gets its exact depth from the
kernel.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "tukey_depth", "tukey_depths", "depth_upper_bounds", "support_polygon", "inside_by_margin",
]

# query x cloud pairs per chunk.  Each of the chunk's temporaries then
# holds 2**14 values (128 KiB); on a Xeon with 2 MiB of L2 per core this
# ran fastest for clouds of 500 to 3000 points, and 2**15 up to 1.5x slower.
_CHUNK_PAIRS = 1 << 14

# key of a cloud point that coincides with the query, also used as a pad
# after the last column: it sorts after every real key (whose phi bits
# are at most those of pi) and has half bit 0, so it adds nothing to c1
_ABSENT = np.uint64(0xFFFF_FFFF_FFFF_FFFE)


def _depth_rows(queries: np.ndarray, cloud: np.ndarray) -> np.ndarray:
    """Exact depth of each row of ``queries`` (m x 2) against ``cloud``."""
    n = cloud.shape[0]
    wx = cloud[:, 0] - queries[:, 0, None]
    wy = cloud[:, 1] - queries[:, 1, None]
    flat = wy == 0.0
    coincident = flat & (wx == 0.0)
    lower = (wy < 0.0) | (flat & (wx < 0.0))
    keys = np.empty((wx.shape[0], n + 1), dtype=np.uint64)
    keys[:, n] = _ABSENT
    body = keys[:, :n]
    # exact negation flips the lower half up; abs also turns -0.0 into +0.0
    np.arctan2(np.abs(wy, out=wy), np.where(lower, -wx, wx), out=body.view(np.float64))
    body <<= np.uint64(1)
    body |= lower
    body[coincident] = _ABSENT
    keys.sort(axis=1)

    c1 = np.cumsum((keys & np.uint64(1)).view(np.int64), axis=1)
    z1 = c1[:, n]
    apart = n - np.count_nonzero(coincident, axis=1)
    # diff = c1 - c0 at each position, kept only where a run of equal phi
    # ends; elsewhere it is 0, which stands for a direction just below
    # phi = 0 with the attainable counts Z0 and Z1.  A row whose points all
    # coincide with the query has apart = 0 and so depth 1.
    diff = c1[:, :n]
    diff *= 2
    diff -= np.arange(1, n + 1)
    phi_bits = keys >> np.uint64(1)
    diff *= phi_bits[:, 1:] != phi_bits[:, :-1]
    best = np.minimum(apart - z1 + diff.min(axis=1), z1 - diff.max(axis=1))
    return (n - apart + best) / n


def tukey_depths(points, cloud) -> np.ndarray:
    """Exact halfspace depth in [0, 1] of each row of ``points`` (m x 2)
    against ``cloud`` (n x 2)."""
    points = np.asarray(points, dtype=float)
    cloud = np.asarray(cloud, dtype=float)
    if cloud.ndim != 2 or cloud.shape[1] != 2:
        raise ValueError(f"cloud must be n x 2, got shape {cloud.shape}")
    if cloud.shape[0] == 0:
        raise ValueError("cloud must be nonempty")
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be m x 2, got shape {points.shape}")
    rows = max(1, _CHUNK_PAIRS // cloud.shape[0])
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], rows):
        out[start:start + rows] = _depth_rows(points[start:start + rows], cloud)
    return out


def tukey_depth(point, cloud) -> float:
    """Exact halfspace depth of ``point`` in [0, 1] against ``cloud`` (n x 2)."""
    point = np.asarray(point, dtype=float)
    if point.shape != (2,):
        raise ValueError(f"point must have shape (2,), got {point.shape}")
    return float(tukey_depths(point[None], cloud)[0])


# Directions of the upper bound: 16 over the half circle, each used both ways.
_ANGLES = np.arange(16) * (np.pi / 16)
_DIRECTIONS = np.column_stack([np.cos(_ANGLES), np.sin(_ANGLES)])

# Margins, relative to the largest |coordinate| s of the cloud and the
# queries.  Rounding in the kernel's angles and in the projections below
# moves a point by at most about 40 * 2**-53 * s across a halfplane's
# boundary, far below BOUND_MARGIN; HULL_MARGIN exceeds 3 * BOUND_MARGIN
# plus the rounding of the orientation test, as ``inside_by_margin`` needs.
BOUND_MARGIN = 1e-11
HULL_MARGIN = 1e-9


def _scale(*arrays) -> float:
    """Largest |coordinate| over the arrays, 0 for none."""
    return max(float(np.max(np.abs(a), initial=0.0)) for a in arrays)


def _projections(points: np.ndarray):
    """The projections of ``points`` (m x 2) onto ``_DIRECTIONS``, one row
    per direction, in blocks of as many rows as fit in ``_CHUNK_PAIRS``
    values (at least one), so no block outgrows a kernel temporary.  The
    products and sums are elementwise, not a matrix product, so every
    projection is rounded the same way whatever the block size or BLAS."""
    rows = max(1, _CHUNK_PAIRS // max(1, points.shape[0]))
    x, y = points[:, 0], points[:, 1]
    for lo in range(0, len(_DIRECTIONS), rows):
        d = _DIRECTIONS[lo:lo + rows]
        yield x * d[:, :1] + y * d[:, 1:]


def depth_upper_bounds(cloud) -> np.ndarray:
    """Upper bound, in [0, 1], on the depth ``tukey_depths`` gives each
    point q of ``cloud`` (n x 2) against the cloud itself.

    Along each of 16 directions d the bound counts the cloud points of
    either closed halfplane {c : (c - q) . d >= 0} and {c : (c - q) . d <= 0}
    and keeps the least count (the random Tukey depth of Cuesta-Albertos &
    Nieto-Reyes 2008, over fixed directions).  A point whose projection
    lies within ``BOUND_MARGIN * s`` of q's counts on both sides, so
    rounding in the projections or in the kernel's angles can only raise
    the bound.

    With the projections along d sorted, q at rank r (from 0) and the
    margin m, the two counts are n - #{c < q - m} and #{c <= q + m}.
    Where every gap between neighbouring sorted projections exceeds 2m,
    the rounded q - m and q + m lie strictly between q's neighbours, as m
    is far above the rounding of that sum and of the gap, so the counts
    are n - r and r + 1 and need no search.  A direction with a smaller
    gap (ties, duplicates) searches for them.
    """
    cloud = np.asarray(cloud, dtype=float)
    n = cloud.shape[0]
    margin = BOUND_MARGIN * _scale(cloud)
    by_rank = np.minimum(np.arange(n, 0, -1), np.arange(1, n + 1))
    best = np.full(n, n)
    for q in _projections(cloud):
        # flat indices into the block, each row's in ascending order
        order = np.argsort(q, axis=1)
        order += n * np.arange(q.shape[0])[:, None]
        q = q.ravel()[order]
        count = np.empty(q.size, dtype=best.dtype)
        count[order] = by_rank
        for i in np.flatnonzero(~(np.diff(q, axis=1) > 2.0 * margin).all(axis=1)):
            count[order[i]] = np.minimum(n - np.searchsorted(q[i], q[i] - margin, "left"),
                                         np.searchsorted(q[i], q[i] + margin, "right"))
        np.minimum(best, count.reshape(q.shape).min(axis=0), out=best)
    return best / n


def support_polygon(points) -> np.ndarray:
    """Vertices of a counter-clockwise polygon inscribed in the convex hull
    of ``points`` (m x 2, m >= 1), each a row of ``points``: the extreme
    row along each of the 32 directions +-``_DIRECTIONS`` in angle order
    (the first such row on ties), with consecutive repeats and a last
    vertex equal to the first dropped.

    If every row has depth >= t, so has every vertex, and by convexity so
    has every point ``inside_by_margin`` marks against the polygon: the
    certificate of the rows' convex hull, without qhull, though it may
    mark fewer points.  One or two distinct rows give fewer than 3
    vertices, which mark nothing.
    """
    points = np.asarray(points, dtype=float)
    # the extreme along -d is the least projection on d, as negation is exact
    ends = np.concatenate([(q.argmax(axis=1), q.argmin(axis=1)) for q in _projections(points)],
                          axis=1)
    idx = ends.ravel()
    idx = idx[np.r_[True, idx[1:] != idx[:-1]]]
    if idx.size > 1 and idx[0] == idx[-1]:
        idx = idx[:-1]
    return points[idx]


def inside_by_margin(points, polygon, cloud) -> np.ndarray:
    """True where a row of ``points`` lies left of every directed edge of
    the closed ``polygon`` (h x 2) by more than ``HULL_MARGIN * s``.

    Such a point lies inside the convex hull of the polygon's vertices
    whatever their order (its winding number is positive), and so do its
    neighbours within the margin.  Depth regions are convex (Rousseeuw &
    Ruts 1999), so if every vertex has depth >= t against ``cloud``, as
    ``tukey_depths`` computes it, so has every point marked True: the
    margin absorbs the rounding of both.  Vertices, points on an edge and
    points outside are never marked.
    """
    points = np.asarray(points, dtype=float)
    polygon = np.asarray(polygon, dtype=float)
    if polygon.shape[0] < 3:
        return np.zeros(points.shape[0], dtype=bool)
    edge = np.roll(polygon, -1, axis=0) - polygon
    # |ex| + |ey| >= |edge| turns the margin into a distance
    need = HULL_MARGIN * _scale(points, polygon, cloud) * np.abs(edge).sum(axis=1)
    px, py = points[:, :1], points[:, 1:]
    inside = np.ones(points.shape[0], dtype=bool)
    # blocks of edges of about _CHUNK_PAIRS point x edge pairs
    step = max(1, _CHUNK_PAIRS // max(1, points.shape[0]))
    for lo in range(0, polygon.shape[0], step):
        (ax, ay), (ex, ey) = polygon[lo:lo + step].T, edge[lo:lo + step].T
        cross = ex * (py - ay) - ey * (px - ax)
        inside &= (cross > need[lo:lo + step]).all(axis=1)
    return inside
