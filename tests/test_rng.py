import numpy as np
import pytest

from mobsim.rng import categorical, stream


def test_same_name_same_draws():
    a = stream(42, "sampler/explore").random(100)
    b = stream(42, "sampler/explore").random(100)
    assert np.array_equal(a, b)


def test_different_names_diverge():
    a = stream(42, "sampler/explore").random(100)
    b = stream(42, "sampler/dwell").random(100)
    assert not np.array_equal(a, b)


def test_different_seeds_diverge():
    a = stream(1, "x").random(100)
    b = stream(2, "x").random(100)
    assert not np.array_equal(a, b)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        stream(-1, "x")


def test_name_is_not_prefix_sensitive():
    # "ab"+"c" and "a"+"bc" must not collide: the whole name is hashed.
    assert stream(0, "abc").random() == stream(0, "abc").random()
    assert stream(0, "ab/c").random() != stream(0, "a/bc").random()


def test_categorical_inverse_cdf_convention():
    cdf = np.cumsum([[0.2, 0.3, 0.5]], axis=-1)
    assert categorical(cdf, np.array([0.0]))[0] == 0
    assert categorical(cdf, np.array([0.1999]))[0] == 0
    assert categorical(cdf, np.array([0.2]))[0] == 1
    assert categorical(cdf, np.array([0.4999]))[0] == 1
    assert categorical(cdf, np.array([0.5]))[0] == 2
    assert categorical(cdf, np.array([0.999999]))[0] == 2
    # One shared (N,) row draws like the same row repeated per draw.
    u = np.array([0.0, 0.3, 0.7])
    assert np.array_equal(categorical(cdf[0], u), categorical(np.repeat(cdf, 3, axis=0), u))


def test_shared_row_draws_like_repeated_rows_at_ties():
    # Zero-mass entries repeat a cumulative value, a uniform can equal one
    # exactly, and a rounded total can fall short of 1.
    rng = np.random.default_rng(5)
    probs = rng.random(50) * (rng.random(50) < 0.5)
    cdf = np.cumsum(probs / probs.sum())
    u = np.concatenate([rng.random(2000), cdf, [0.0, np.nextafter(1.0, 0.0)]])
    want = categorical(np.repeat(cdf[None], len(u), axis=0), u)
    assert np.array_equal(categorical(cdf, u), want)
    assert categorical(cdf, u).dtype == want.dtype


def test_categorical_matches_empirical_frequencies():
    rng = np.random.default_rng(21)
    probs = np.array([0.1, 0.6, 0.3])
    draws = categorical(np.cumsum(probs), rng.random(20000))
    freq = np.bincount(draws, minlength=3) / 20000
    assert np.allclose(freq, probs, atol=0.02)
