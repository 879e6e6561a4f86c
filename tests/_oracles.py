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


def assert_region_matches_full_kernel(ens, levels) -> None:
    """The region of ``ens`` at each of ``levels`` is the one the depths
    of every valid point (``cloud_depths``) give: same threshold bits,
    members and area, and ``region_summary`` gives the records of the
    deepest valid replicate and of the members with the largest and the
    smallest tau (each the first on ties).  The count-1 search that finds
    the deepest point is checked on its own depths as well as after the
    levels' searches on the ensemble's."""
    from ibistat.inference import (
        _hull_and_area, _RegionDepths, confidence_region, region_summary,
    )

    valid = np.flatnonzero(np.isfinite(ens.tau))
    depths = cloud_depths(ens)
    alone = _RegionDepths(ens).region(1)[1]
    assert np.argmax(alone) == np.argmax(depths)
    for level in levels:
        cr = confidence_region(ens, level)
        threshold = float(np.sort(depths)[valid.size - math.ceil(level * valid.size)])
        member = depths >= threshold
        members = valid[member]
        _, area = _hull_and_area(valid_cloud(ens)[member])
        assert cr.depth_threshold.hex() == threshold.hex(), (level, cr.depth_threshold, threshold)
        np.testing.assert_array_equal(cr.member_indices, members, err_msg=f"level {level}")
        assert cr.area == area, (level, cr.area, area)
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
