import math

import numpy as np
import pytest

from ibistat import (
    GroupSpec,
    mean_configuration_from_shape,
    sample_grouped_dataset,
    sample_null_configuration,
    sample_null_shapes,
    shape_point,
    side_lengths,
    stream_generator,
)
from ibistat.sampling import (
    DOMAIN_BOOTSTRAP,
    DOMAIN_NULL,
    DOMAIN_PERMUTATION,
    DOMAIN_SIMULATION,
    bootstrap_indices,
    lemire_bounded,
    rekeyed_streams,
    stream_keys,
)


def test_stream_same_key_is_bit_identical():
    a = stream_generator(42, 7).normal(size=100)
    b = stream_generator(42, 7).normal(size=100)
    np.testing.assert_array_equal(a, b)


# First raw 64-bit draws of stream (2021, domain, 3) per domain. Reports,
# bootstrap ensembles and permutation p-values are functions of these
# streams, so a change to how generators are built must keep them.
STREAM_GOLDENS = {
    DOMAIN_BOOTSTRAP: [0x0047C1603E9967D7, 0x582FB22FF114B073, 0xA0047CA8C47DED33],
    DOMAIN_PERMUTATION: [0xD8DD84AA3701289B, 0x248E0F0B87F9701E, 0xD58C4470A78D7BA9],
    DOMAIN_SIMULATION: [0xD25B3B367B9067A6, 0x5A6051F260D006D1, 0xCD5785916F03C92A],
    DOMAIN_NULL: [0x36587754F14E1E6E, 0x1EC6403D8D4CA386, 0x899E3BB9CAEBA367],
}


@pytest.mark.parametrize("domain", sorted(STREAM_GOLDENS))
def test_stream_first_draws_are_pinned(domain):
    raw = stream_generator(2021, domain, 3).bit_generator.random_raw(3)
    assert [int(x) for x in raw] == STREAM_GOLDENS[domain]


# seeds of one to seven words at each word boundary (coverage_simulation's
# bootstrap seeds are uint64; more than four words overflow the padding)
# and domains of one and two words
@pytest.mark.parametrize("seed", [
    0, 2021, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1,
    2**128 - 1, 2**128, 2**130 + 7, 2**200,
])
@pytest.mark.parametrize("domain", sorted(STREAM_GOLDENS) + [2**32, 2**40])
def test_stream_keys_match_seed_sequence(seed, domain):
    k = 37
    keys = stream_keys(seed, domain, k)
    assert keys.shape == (k, 2) and keys.dtype == np.uint64
    for j in (0, 1, k - 1):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, j))
        np.testing.assert_array_equal(keys[j], ss.generate_state(2, np.uint64))


def test_stream_keys_reject_out_of_range_arguments():
    # a replicate index >= 2**32 takes two spawn-key words, which the
    # vectorised hash does not model; checked before anything is allocated
    with pytest.raises(ValueError, match="2\\*\\*32"):
        stream_keys(0, DOMAIN_BOOTSTRAP, 2**32 + 1)
    with pytest.raises(ValueError):
        stream_keys(-1, DOMAIN_BOOTSTRAP, 3)
    assert stream_keys(5, DOMAIN_BOOTSTRAP, 0).shape == (0, 2)


def test_rekeyed_streams_draw_like_fresh_generators():
    seed, domain, k = 2021, DOMAIN_PERMUTATION, 6
    rng = stream_generator(seed, DOMAIN_BOOTSTRAP, 0)
    rng.integers(0, 5, size=3)  # an odd count of 32-bit draws
    assert rng.bit_generator.state["has_uint32"] == 1
    for j, g in enumerate(rekeyed_streams(rng, stream_keys(seed, domain, k))):
        assert g is rng
        fresh = stream_generator(seed, domain, j)
        np.testing.assert_array_equal(
            g.bit_generator.random_raw(5), fresh.bit_generator.random_raw(5)
        )
        np.testing.assert_array_equal(g.permutation(11), fresh.permutation(11))
        np.testing.assert_array_equal(g.integers(0, 13, size=7), fresh.integers(0, 13, size=7))
        # the permutation's rejection sampling draws a varying number of
        # 32-bit halves; leave one pending so every re-key must clear it
        if not g.bit_generator.state["has_uint32"]:
            g.integers(0, 13)
        assert g.bit_generator.state["has_uint32"] == 1


def reference_bootstrap_indices(seed, k, sizes):
    """One fresh generator and one integers call per group and replicate."""
    rows = []
    for j in range(k):
        g = stream_generator(seed, DOMAIN_BOOTSTRAP, j)
        rows.append(np.concatenate([g.integers(0, n, size=n) for n in sizes]))
    return np.array(rows)


# odd and even totals, groups of size 2, a total of one word per row
@pytest.mark.parametrize("sizes", [(2, 2, 2), (2, 3, 2), (5, 8, 13), (50, 50, 50), (2, 1999, 7)])
@pytest.mark.parametrize("seed", [0, 7, 2021, 2**40 + 3])
def test_bootstrap_indices_match_numpy_integers(seed, sizes):
    k = 40
    rng = stream_generator(seed, DOMAIN_BOOTSTRAP, 0)
    idx = bootstrap_indices(rng, stream_keys(seed, DOMAIN_BOOTSTRAP, k), sizes)
    assert idx.shape == (k, sum(sizes)) and idx.dtype == np.int64
    np.testing.assert_array_equal(idx, reference_bootstrap_indices(seed, k, sizes))


def test_lemire_rejects_word_zero_with_bound_three():
    # (2**32 - 3) % 3 == 1, and 0 * 3 leaves 0 < 1 in the low 32 bits
    draws, rejected = lemire_bounded(np.zeros((1, 1), dtype=np.uint64), np.array([3]))
    assert rejected.tolist() == [True]
    # the high half of a word is the second draw; the low half leads
    word = np.array([[(3 << 32) | 1]], dtype=np.uint64)  # low 1, high 3
    draws, rejected = lemire_bounded(word, np.array([5, 5]))
    assert rejected.tolist() == [False]
    assert draws.tolist() == [[(1 * 5) >> 32, (3 * 5) >> 32]]
    top = np.array([[0xFFFFFFFF_FFFFFFFF]], dtype=np.uint64)
    draws, rejected = lemire_bounded(top, np.array([7, 2**32 - 1]))
    assert draws.tolist() == [[6, 2**32 - 2]] and rejected.tolist() == [False]


def test_lemire_reads_words_in_any_byte_order_and_layout():
    words = stream_generator(5, DOMAIN_BOOTSTRAP, 0).bit_generator.random_raw((200, 18))
    # 2**31 + 1 rejects about half its halves, so many rows are rejected
    bounds = np.repeat([2, 2**31 + 1, 1999, 7], [9, 1, 20, 5])
    draws, rejected = lemire_bounded(words, bounds)
    assert 0 < rejected.sum() < len(words)
    for variant in (words.astype(">u8"), words.astype("<u8"), np.asfortranarray(words)):
        other, other_rejected = lemire_bounded(variant, bounds)
        np.testing.assert_array_equal(other, draws)
        np.testing.assert_array_equal(other_rejected, rejected)


def test_bootstrap_indices_reject_sizes_numpy_draws_differently():
    rng = stream_generator(0, DOMAIN_BOOTSTRAP, 0)
    keys = stream_keys(0, DOMAIN_BOOTSTRAP, 2)
    for sizes in ([1, 3, 3], [2**32, 2, 2]):
        with pytest.raises(ValueError, match="group sizes"):
            bootstrap_indices(rng, keys, sizes)


def test_streams_are_disjoint():
    a = stream_generator(42, 0).normal(size=100)
    b = stream_generator(42, 1).normal(size=100)
    assert not np.allclose(a, b)


def test_null_configuration_deterministic():
    a = sample_null_configuration(3, stream_generator(1, 0)).landmarks
    b = sample_null_configuration(3, stream_generator(1, 0)).landmarks
    np.testing.assert_array_equal(a, b)


def test_null_tau_mean_near_zero():
    shapes = sample_null_shapes(2, 100_000, stream_generator(11, 0))
    assert abs(shapes["tau"].mean()) <= 0.01


def test_null_ellipticity_distribution():
    # P(sqrt(1 - r^2) < x) = x^(p-1)
    p = 3
    shapes = sample_null_shapes(p, 100_000, stream_generator(12, 0))
    s = np.sqrt(1.0 - shapes["r"] ** 2)
    for x in (0.25, 0.5, 0.75):
        assert abs(np.mean(s < x) - x ** (p - 1)) <= 0.01


def test_null_shapes_consistent_with_single_sampler():
    shapes = sample_null_shapes(2, 50, stream_generator(13, 0))
    cfg = sample_null_configuration(2, stream_generator(13, 0))
    sp = shape_point(cfg)
    # same stream, same first configuration
    assert abs(shapes["r"][0] - sp.r) < 1e-9
    assert abs(shapes["tau"][0] - (3 * side_lengths(cfg).b2 - 1)) < 1e-9


def test_mean_configuration_equilateral():
    cfg = mean_configuration_from_shape(0.0, 0.0)
    s = side_lengths(cfg)
    np.testing.assert_allclose(s.as_tuple(), (1 / 3, 1 / 3, 1 / 3), atol=1e-12)


def test_mean_configuration_midpoint():
    cfg = mean_configuration_from_shape(1.0, math.pi / 3)
    a2, b2, c2 = side_lengths(cfg).as_tuple()
    np.testing.assert_allclose((a2, b2, c2), (1 / 6, 2 / 3, 1 / 6), atol=1e-12)
    # collinear: B on the segment AC
    sp = shape_point(cfg)
    assert abs(sp.r - 1.0) <= 1e-9


def test_mean_configuration_roundtrip():
    cfg = mean_configuration_from_shape(0.5, math.pi / 3, p=4)
    sp = shape_point(cfg)
    assert abs(sp.u - 0.5 * math.cos(math.pi / 3)) <= 1e-9
    assert abs(sp.v - 0.5 * math.sin(math.pi / 3)) <= 1e-9
    assert abs(np.linalg.norm(cfg.landmarks) - 1.0) <= 1e-12
    np.testing.assert_allclose(cfg.landmarks.mean(axis=0), 0.0, atol=1e-12)


def test_mean_configuration_rejects_bad_radius():
    with pytest.raises(ValueError):
        mean_configuration_from_shape(1.5, 0.0)


def test_grouped_dataset_sampling_shapes_and_means():
    means = mean_configuration_from_shape(0.4, 1.0, p=3).landmarks * 2.0
    spec = GroupSpec(means=means, sigma2=0.25, n=400)
    ds = sample_grouped_dataset(spec, stream_generator(21, 0))
    assert ds.n == 1200
    assert ds.n_per_group() == {"A": 400, "B": 400, "C": 400}
    bound = 4.0 * math.sqrt(spec.sigma2 / spec.n)
    for i, g in enumerate("ABC"):
        err = np.abs(ds.group_features(g).mean(axis=0) - means[i]).max()
        assert err <= bound


def test_grouped_dataset_sampling_deterministic():
    means = np.eye(3)
    spec = GroupSpec(means=means, sigma2=1.0, n=5)
    a = sample_grouped_dataset(spec, stream_generator(3, 1))
    b = sample_grouped_dataset(spec, stream_generator(3, 1))
    np.testing.assert_array_equal(a.features, b.features)


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(means=np.eye(3), sigma2=0.0, n=5)
    with pytest.raises(ValueError):
        GroupSpec(means=np.eye(3), sigma2=1.0, n=1)
    with pytest.raises(ValueError):
        GroupSpec(means=np.eye(2), sigma2=1.0, n=5)
