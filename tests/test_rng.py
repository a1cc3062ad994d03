import warnings

import numpy as np
import pytest

from gradcert.rng import _GAMMA, SplitMix64, mix64, substream_gaussians, substream_seed


def test_reference_sequence_seed_zero():
    # Canonical first outputs of the seed-0 stream.
    s = SplitMix64(0)
    assert s.next_uint64() == 0xE220A8397B1DCDAF
    assert s.next_uint64() == 0x6E789E6AA1B965F4
    assert s.next_uint64() == 0x06C45D188009454F


def test_streams_are_reproducible():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_uint64() for _ in range(100)] == [b.next_uint64() for _ in range(100)]


def test_gaussian_moments():
    s = SplitMix64(12345)
    xs = np.array([s.gaussian() for _ in range(200_000)])
    assert abs(xs.mean()) < 0.02
    assert abs(xs.std() - 1.0) < 0.02


def test_gaussian_vector_matches_scalar_draws():
    # the bulk path must equal the scalar reference byte for byte and leave
    # the stream where n scalar draws leave it; warnings are errors, so a
    # numpy scalar overflow on uint64 wraparound (seed 2^64 - 1) fails here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 3, 2**63, 2**64 - 1):
            for n in (0, 1, 17, 1000):
                a = SplitMix64(seed)
                b = SplitMix64(seed)
                v = a.gaussian_vector(n)
                w = np.array([b.gaussian() for _ in range(n)], dtype=float)
                assert v.shape == (n,) and v.dtype == np.float64
                assert v.tobytes() == w.tobytes(), (seed, n)
                assert a.next_uint64() == b.next_uint64(), (seed, n)
    with pytest.raises(ValueError):
        SplitMix64(0).gaussian_vector(-1)


def test_unit_vector_has_unit_norm():
    s = SplitMix64(55)
    for _ in range(20):
        v = s.unit_vector(9)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_substream_seeds_differ_from_root_and_each_other():
    seeds = {substream_seed(4242, i) for i in range(2_000)}
    assert len(seeds) == 2_000
    assert 4242 not in seeds


def test_substream_definition():
    seed, idx = 99, 5
    expected = mix64(seed ^ ((idx + 1) * _GAMMA & (2**64 - 1)))
    assert substream_seed(seed, idx) == expected


def test_mix64_is_stable():
    # pinned so serialized problem files never silently change
    assert mix64(0) == 0xE220A8397B1DCDAF
    assert mix64(1) == 0x910A2DEC89025CC1


@pytest.mark.parametrize("seed", [-1, 2**64, -(2**64), 2**70, 1.5, 2.7, 1.0, "3", None])
def test_seeds_outside_the_state_space_are_refused(seed):
    # reducing them mod 2**64, truncating a float or parsing a string would
    # draw another seed's stream
    match = r"seed must be in \[0, 2\*\*64\)"
    with pytest.raises(ValueError, match=match):
        SplitMix64(seed)
    with pytest.raises(ValueError, match=match):
        substream_seed(seed, 0)
    with pytest.raises(ValueError, match=match):
        substream_gaussians(seed, 0, 1, 3)


def test_numpy_integer_seeds_draw_their_value():
    top = 2**64 - 1
    assert SplitMix64(np.uint64(top)).next_uint64() == SplitMix64(top).next_uint64()
    assert substream_seed(np.int64(7), 0) == substream_seed(7, 0)
    # numpy integer sizes and indices are taken too
    want = SplitMix64(1).gaussian_vector(3)
    assert SplitMix64(1).gaussian_vector(np.int64(3)).tobytes() == want.tobytes()
    assert substream_seed(7, np.uint64(2)) == substream_seed(7, 2)
    want = substream_gaussians(7, 2, 3, 4)
    assert substream_gaussians(7, np.int64(2), np.int64(3), np.int64(4)).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [-1, 2.5, 3.0, True, np.True_, "3", None])
def test_sizes_and_indices_are_integers_at_least_zero(bad):
    # gaussian_vector(3.0) and substream_seed(0, 2.5) used to raise
    # TypeError, True drew one gaussian or read as index 1, and
    # substream_gaussians(0, 0, 2.5, 3) returned 3 rows
    refusals = {
        "n": lambda: SplitMix64(0).gaussian_vector(bad),
        "index": lambda: substream_seed(0, bad),
        "first": lambda: substream_gaussians(0, bad, 1, 3),
        "count": lambda: substream_gaussians(0, 0, bad, 3),
    }
    for name, call in refusals.items():
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 0"):
            call()
    with pytest.raises(ValueError, match="n must be an integer >= 0"):
        substream_gaussians(0, 0, 1, bad)
