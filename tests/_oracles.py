"""Independent reference implementations used only to check the library."""

import math

import numpy as np


def halfspace_depth_enumeration(point, cloud) -> float:
    """Tukey depth by direct enumeration over point-anchored boundaries.

    For every cloud point as seen from the query, the boundary line
    through the query along that direction delimits four candidate open
    halfplanes (two sides x two ways of splitting the boundary points);
    every minimizing arc of directions is adjacent to one of them.  Uses
    exact sign tests on cross/dot products, no angles.
    """
    point = np.asarray(point, dtype=float)
    cloud = np.asarray(cloud, dtype=float)
    v = cloud - point
    coincident = (v[:, 0] == 0.0) & (v[:, 1] == 0.0)
    m0 = int(np.count_nonzero(coincident))
    w = v[~coincident]
    n = cloud.shape[0]
    if w.shape[0] == 0:
        return 1.0
    best = None
    for j in range(w.shape[0]):
        cross = w[j, 0] * w[:, 1] - w[j, 1] * w[:, 0]
        dot = w[j, 0] * w[:, 0] + w[j, 1] * w[:, 1]
        pos, neg = np.count_nonzero(cross > 0), np.count_nonzero(cross < 0)
        on_same = np.count_nonzero((cross == 0) & (dot > 0))
        on_opp = np.count_nonzero((cross == 0) & (dot < 0))
        for count in (pos + on_same, pos + on_opp, neg + on_same, neg + on_opp):
            if best is None or count < best:
                best = count
    return (m0 + best) / n


def quantile_type7(values, q) -> float:
    """Linear interpolation between order statistics, from first principles."""
    xs = np.sort(np.asarray(values, dtype=float))
    h = (len(xs) - 1) * q
    lo = int(np.floor(h))
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (h - lo) * (xs[hi] - xs[lo]))


def cloud_depths(ens) -> np.ndarray:
    """Tukey depth of each valid (u, v) point of ``ens`` in its valid
    cloud, by one full pass of the kernel: the reference for confidence
    regions, which compute only the depths they need."""
    from ibistat.depth import tukey_depths

    cloud = ens.valid_cloud()
    return tukey_depths(cloud, cloud)


def assert_region_matches_full_kernel(ens, levels) -> None:
    """The region of ``ens`` at each of ``levels`` is the one the depths
    of every valid point (``cloud_depths``) give: same threshold bits,
    members, hull, area and deepest replicate (the first on ties)."""
    from ibistat.inference import _hull_and_area, confidence_region, region_summary

    valid = np.flatnonzero(ens.valid_mask())
    depths = cloud_depths(ens)
    for level in levels:
        cr = confidence_region(ens, level)
        threshold = float(np.sort(depths)[valid.size - math.ceil(level * valid.size)])
        member = depths >= threshold
        hull, area = _hull_and_area(ens.valid_cloud()[member])
        assert cr.depth_threshold.hex() == threshold.hex(), (level, cr.depth_threshold, threshold)
        np.testing.assert_array_equal(cr.member_indices, valid[member], err_msg=f"level {level}")
        np.testing.assert_array_equal(cr.hull, hull, err_msg=f"level {level}")
        assert cr.area == area, (level, cr.area, area)
        assert region_summary(cr).median.replicate == valid[np.argmax(depths)], level
