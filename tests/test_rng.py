import numpy as np

from gnewton.rng import SplitMix64


def test_u64_stream_golden():
    # frozen stream so cross-platform reproducibility regressions show up
    r = SplitMix64(42)
    assert [r.next_u64() for _ in range(4)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
    ]


def test_uniform_golden_and_range():
    r = SplitMix64(42)
    got = [r.uniform() for _ in range(3)]
    assert got == [0.7415648787718233, 0.1599103928769201, 0.27860113025513866]
    r = SplitMix64(9)
    for _ in range(2000):
        u = r.uniform()
        assert 0.0 <= u < 1.0


def test_gaussians_golden():
    r = SplitMix64(7)
    got = r.gaussians(4)
    want = np.array([1.3649922974572284, 0.14452122126941497,
                     -0.396523975253818, -0.22759631143286663])
    assert np.array_equal(got, want)


def test_same_seed_same_stream():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert np.array_equal(a.gaussians(11), b.gaussians(11))


def test_odd_draw_is_prefix_of_even():
    # odd counts drop the spare of the final Box-Muller pair, so shorter
    # requests are prefixes of longer ones
    a = SplitMix64(5).gaussians(3)
    b = SplitMix64(5).gaussians(4)
    assert np.array_equal(a, b[:3])


def test_different_seeds_differ():
    assert not np.array_equal(SplitMix64(1).gaussians(6),
                              SplitMix64(2).gaussians(6))


def test_gaussian_moments_rough():
    r = SplitMix64(2024)
    x = r.gaussians(4000)
    assert abs(float(np.mean(x))) < 0.05
    assert 0.95 < float(np.std(x)) < 1.05


def _pattern(r, calls):
    """The draws of a mixed call pattern, as comparable values."""
    out = []
    for call, k in calls:
        if call == "u64":
            out.append(r.next_u64())
        elif call == "uniform":
            out.append(r.uniform())
        else:
            out.append(r.gaussians(k).tobytes())
    return out


def test_prefetched_stream_is_the_scalar_stream():
    """a prefetched block changes no draw: mixed next_u64, uniform and odd
    and even gaussians calls, with blocks that end before, inside and
    after the pattern, prefetched once or twice, on seeds 0-299"""
    calls = [("gauss", 5), ("u64", 0), ("gauss", 6), ("uniform", 0),
             ("gauss", 1), ("u64", 0), ("gauss", 0), ("gauss", 7),
             ("uniform", 0), ("gauss", 2)]
    drawn = 6 + 1 + 6 + 1 + 2 + 1 + 0 + 8 + 1 + 2  # outputs the calls take
    for seed in range(300):
        want = _pattern(SplitMix64(seed), calls)
        for k in (0, 1, 5, 6, 7, drawn - 1, drawn, drawn + 3, 200):
            r = SplitMix64(seed)
            r.prefetch(k)
            assert _pattern(r, calls) == want, (seed, k)
        r = SplitMix64(seed)
        r.prefetch(3)
        r.prefetch(4)  # a second block follows the first
        got = _pattern(r, calls[:3])
        r.prefetch(9)  # a block asked for midway
        assert got + _pattern(r, calls[3:]) == want, seed


def test_prefetch_golden():
    r = SplitMix64(42)
    r.prefetch(2)
    assert [r.next_u64() for _ in range(4)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
    ]
