"""Independent reference implementations, and probes of the library's
intermediates, used only to check the library."""

import math
import xml.etree.ElementTree as ET

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


def reference_upper_bounds(cloud) -> np.ndarray:
    """``depth_upper_bounds`` one direction at a time, without ranks:
    along each of the library's directions, a point's count is the smaller
    of #{c : c's projection >= its own - margin} and #{c : c's projection
    <= its own + margin}, both by binary search in the sorted projections."""
    from ibistat.depth import _DIRECTIONS, BOUND_MARGIN, _scale

    cloud = np.asarray(cloud, dtype=float)
    n = cloud.shape[0]
    margin = BOUND_MARGIN * _scale(cloud)
    best = np.full(n, n)
    for dx, dy in _DIRECTIONS:
        q = cloud[:, 0] * dx + cloud[:, 1] * dy
        order = np.argsort(q)
        q = q[order]
        count = np.minimum(n - np.searchsorted(q, q - margin, "left"),
                           np.searchsorted(q, q + margin, "right"))
        best[order] = np.minimum(best[order], count)
    return best / n


def quantile_type7(values, q) -> float:
    """Linear interpolation between order statistics, from first principles."""
    xs = np.sort(np.asarray(values, dtype=float))
    h = (len(xs) - 1) * q
    lo = int(np.floor(h))
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (h - lo) * (xs[hi] - xs[lo]))


def valid_cloud(ens) -> np.ndarray:
    """The (u, v) points of the replicates of ``ens`` with a finite tau,
    in replicate order, built here rather than taken from the library."""
    valid = np.isfinite(ens.tau)
    return np.column_stack([ens.u[valid], ens.v[valid]])


def cloud_depths(ens) -> np.ndarray:
    """Tukey depth of each valid (u, v) point of ``ens`` in its valid
    cloud, by one full pass of the kernel: the reference for confidence
    regions, which compute only the depths they need."""
    from ibistat.depth import tukey_depths

    cloud = valid_cloud(ens)
    return tukey_depths(cloud, cloud)


def qhull_area(points) -> float:
    """The points' hull area from a direct qhull call, 0.0 where qhull
    finds no hull."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        return float(ConvexHull(points).volume)
    except QhullError:
        return 0.0


def monotone_chain_hull(points) -> list:
    """Vertices of the points' convex hull, counter-clockwise, by Andrew's
    monotone chain: sort, then keep only left turns (a positive cross
    product) along the lower and the upper chain.  Copies and collinear
    points are dropped, so a set that spans no area has at most 2."""
    pts = sorted(set(map(tuple, np.asarray(points, dtype=float).tolist())))
    if len(pts) < 3:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                    break
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(pts[::-1])


def shoelace_area(vertices) -> float:
    """Area of a simple polygon from its vertices in order, with the
    coordinates taken relative to the first vertex."""
    x0, y0 = vertices[0]
    xy = [(x - x0, y - y0) for x, y in vertices]
    return abs(math.fsum(
        xa * yb - xb * ya for (xa, ya), (xb, yb) in zip(xy, xy[1:] + xy[:1])
    )) / 2.0


def assert_region_matches_full_kernel(ens, levels) -> int:
    """The region of ``ens`` at each of ``levels`` is the one the depths
    of every valid point (``cloud_depths``) give: same threshold bits and
    members, an area with the bits of a direct qhull call on those
    members and equal, to 1e-12 relative, to the shoelace area of their
    monotone-chain hull (exactly 0.0 where that hull has fewer than 3
    vertices), and ``region_summary`` gives the records of the deepest
    valid replicate and of the members with the largest and the smallest
    tau (each the first on ties).  The count-1 search that finds the
    deepest point is checked on its own depths as well as after the
    levels' searches on the ensemble's.  Returns how many of the levels'
    regions span no area (a hull of fewer than 3 vertices)."""
    from ibistat.inference import _RegionDepths, confidence_region, region_summary

    valid = np.flatnonzero(np.isfinite(ens.tau))
    depths = cloud_depths(ens)
    alone = _RegionDepths(ens).region(1)[1]
    assert np.argmax(alone) == np.argmax(depths)
    flat = 0
    for level in levels:
        cr = confidence_region(ens, level)
        threshold = float(np.sort(depths)[valid.size - math.ceil(level * valid.size)])
        member = depths >= threshold
        members = valid[member]
        points = valid_cloud(ens)[member]
        assert cr.depth_threshold.hex() == threshold.hex(), (level, cr.depth_threshold, threshold)
        np.testing.assert_array_equal(cr.member_indices, members, err_msg=f"level {level}")
        area = qhull_area(points)
        assert cr.area == area, (level, cr.area, area)
        hull = monotone_chain_hull(points)
        if len(hull) < 3:
            assert cr.area == 0.0, (level, cr.area, hull)
            flat += 1
        else:
            shoelace = shoelace_area(hull)
            assert math.isclose(cr.area, shoelace, rel_tol=1e-12, abs_tol=1e-15), (level, cr.area, shoelace)
        taus = ens.tau[members]
        expected = {
            "median": valid[np.argmax(depths)],
            "max_tau": members[np.argmax(taus)],
            "min_tau": members[np.argmin(taus)],
        }
        summary = region_summary(ens, cr)
        assert list(summary) == list(expected)
        for name, rep in expected.items():
            assert summary[name]["replicate"] == rep, (level, name)
            assert summary[name]["tau"] == ens.tau[rep], (level, name)
    return flat


def reference_bootstrap(ds, k, seed) -> dict:
    """The bootstrap as a loop: a fresh generator, one integers call and
    one fancy-indexed mean per group and replicate."""
    from ibistat.inference import GROUPS
    from ibistat.sampling import DOMAIN_BOOTSTRAP, stream_generator
    from ibistat.shape import _centroid_shape_stats

    feats = [ds.group_features(g) for g in GROUPS]
    means = np.empty((3, k, ds.p))
    for j in range(k):
        rng = stream_generator(seed, DOMAIN_BOOTSTRAP, j)
        for g, f in enumerate(feats):
            means[g, j] = f[rng.integers(0, len(f), size=len(f))].mean(axis=0)
    return _centroid_shape_stats(means)


def reference_permutation_means(ds, k, seed) -> np.ndarray:
    """The permutation test's group means as a loop: a fresh generator,
    one permutation and one fancy-indexed mean per group and replicate."""
    from ibistat.inference import GROUPS
    from ibistat.sampling import DOMAIN_PERMUTATION, stream_generator

    sizes = [len(ds.group_indices(g)) for g in GROUPS]
    ends = np.cumsum([0] + sizes)
    means = np.empty((3, k, ds.p))
    for j in range(k):
        perm = stream_generator(seed, DOMAIN_PERMUTATION, j).permutation(ds.n)
        for g in range(3):
            means[g, j] = ds.features[perm[ends[g] : ends[g + 1]]].mean(axis=0)
    return means


def permutation_pvalues_from_means(ds, means) -> dict:
    """``permutation_test``'s p-values from the (3, k, p) group means of
    its k permutations: every permuted triangle through
    ``_centroid_shape_stats``, and p = (1 + #{|stat| >= |observed| or stat
    undefined}) / (k + 1), or 1 where the observed statistic is undefined."""
    from ibistat.inference import _observed_triangle
    from ibistat.shape import _centroid_shape_stats

    _, observed = _observed_triangle(ds)
    stats = _centroid_shape_stats(means)
    k = means.shape[1]
    pvalues = {}
    for name in ("tau", "gamma"):
        obs, perm = float(observed[name][0]), stats[name]
        exceed = ~np.isfinite(perm) | (np.abs(perm) >= abs(obs))
        pvalues[f"p_{name}"] = (1.0 + np.count_nonzero(exceed)) / (k + 1.0) if math.isfinite(obs) else 1.0
    return pvalues


def reference_permutation_pvalues(ds, k, seed) -> dict:
    """The p-values of ``reference_permutation_means``."""
    return permutation_pvalues_from_means(ds, reference_permutation_means(ds, k, seed))


def permutation_means(ds, k, seed, skip=None) -> np.ndarray:
    """The (3, k, p) group means of the permutation test's exact kernel
    for its k permutations; group ``skip``'s are left unset."""
    from ibistat import inference
    from ibistat.sampling import DOMAIN_PERMUTATION, stream_keys

    keys = stream_keys(seed, DOMAIN_PERMUTATION, k)
    return inference._permutation_means(ds, keys, skip)


def count_exact_permutations(monkeypatch) -> tuple:
    """Record the calls of the exact kernel as ``(exact, certified)``:
    ``exact`` gets the number of permutations of each call that sums all
    three groups (the permutations no bound decided), ``certified`` that
    of each call that leaves a group unsummed (the certified pass)."""
    from ibistat import inference

    exact, certified = [], []
    kernel = inference._permutation_means

    def spy(ds, keys, skip=None):
        (exact if skip is None else certified).append(len(keys))
        return kernel(ds, keys, skip)

    monkeypatch.setattr(inference, "_permutation_means", spy)
    return exact, certified


def glyph_count(svg: str) -> int:
    """Number of triangle glyph groups in a rendered SVG document."""
    return svg.count('<g id="glyph-')


def is_well_formed_xml(svg: str) -> bool:
    try:
        ET.fromstring(svg)
        return True
    except ET.ParseError:
        return False
