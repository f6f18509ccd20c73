import numpy as np
import pytest

from mobsim.rng import block_totals, categorical, stream
from mobsim.synth import make_kernel


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
    masses = np.array([[0.2, 0.3, 0.5]])
    assert categorical(masses, np.array([0.0]))[0] == 0
    assert categorical(masses, np.array([0.1999]))[0] == 0
    assert categorical(masses, np.array([0.2]))[0] == 1
    assert categorical(masses, np.array([0.4999]))[0] == 1
    assert categorical(masses, np.array([0.5]))[0] == 2
    assert categorical(masses, np.array([0.999999]))[0] == 2
    # One shared (N,) row draws like the same row repeated per draw.
    u = np.array([0.0, 0.3, 0.7])
    assert np.array_equal(categorical(masses[0], u), categorical(np.repeat(masses, 3, axis=0), u))


def test_categorical_scales_the_uniform_by_the_row_total():
    masses = np.array([[2.0, 3.0, 5.0], [0.2, 0.3, 0.5]])
    u = np.array([0.4999, 0.4999])
    assert np.array_equal(categorical(masses, u), [1, 1])
    assert np.array_equal(categorical(masses, u + 0.0001), [2, 2])


def test_shared_row_draws_like_repeated_rows_at_ties():
    # Zero-mass entries repeat a cumulative value, a uniform can land on one
    # exactly, and a rounded total can fall short of 1.
    rng = np.random.default_rng(5)
    probs = rng.random(50) * (rng.random(50) < 0.5)
    masses = probs / probs.sum()
    u = np.concatenate([rng.random(2000), np.cumsum(masses), [0.0, np.nextafter(1.0, 0.0)]])
    want = categorical(np.repeat(masses[None], len(u), axis=0), u)
    assert np.array_equal(categorical(masses, u), want)
    assert categorical(masses, u).dtype == want.dtype


def test_categorical_matches_empirical_frequencies():
    rng = np.random.default_rng(21)
    probs = np.array([0.1, 0.6, 0.3])
    draws = categorical(probs, rng.random(20000))
    freq = np.bincount(draws, minlength=3) / 20000
    assert np.allclose(freq, probs, atol=0.02)


LAST_UNIFORM = np.nextafter(1.0, 0.0)          # 1 - 2**-53, the largest random()


@pytest.mark.parametrize("masses", [
    # The cumulative total is 0.9999999999999999, below the last uniform.
    np.append(np.full(10, 0.1), 0.0),
    # Row 6 of make_kernel("uniform_offdiag", 7): its own diagonal is last.
    np.append(np.full(6, 1.0 / 6.0), 0.0),
    # Zero mass at the end of a full block and in a narrower last block.
    np.concatenate([np.full(9, 1.0 / 9.0), np.zeros(7)]),
    np.concatenate([np.full(5, 0.1), np.zeros(3), np.full(5, 0.1), np.zeros(4)]),
], ids=["tenths", "offdiag7", "zero-block", "zero-tail"])
def test_categorical_never_draws_zero_mass(masses):
    u = np.array([0.0, 0.5, np.nextafter(LAST_UNIFORM, 0.0), LAST_UNIFORM])
    for drawn in (categorical(masses, u), categorical(np.repeat(masses[None], len(u), axis=0), u)):
        assert (masses[drawn] > 0).all(), drawn
    last = np.flatnonzero(masses)[-1]
    assert categorical(masses, u[-1:])[0] == last


def test_synth_kernel_row_never_draws_its_diagonal():
    kernel = make_kernel("uniform_offdiag", 7, None)
    rows = np.arange(7).repeat(3)
    u = np.tile([0.0, 0.5, LAST_UNIFORM], 7)
    drawn = categorical(kernel, u, rows=rows, totals=block_totals(kernel))
    assert (drawn != rows).all()
    assert drawn[-1] == 5


def test_categorical_stays_in_the_block_its_total_picked():
    # Block totals summed in another order than the block's cumsum can
    # exceed it by an ulp; a target in that gap stays in the block the totals
    # chose, on its last column of positive mass (column 1, not the empty
    # column 2 or the next block's column 3).
    masses = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    totals = block_totals(masses[None])
    assert np.array_equal(totals, [[0.0, 2.0, 5.0, 8.0]])
    totals[0, 1] = np.nextafter(2.0, 3.0)
    rows = np.zeros(2, dtype=np.int64)
    drawn = categorical(masses[None], np.array([0.25, 0.2]), rows=rows, totals=totals)
    assert np.array_equal(drawn, [1, 1])


@pytest.mark.parametrize("n", [3, 10, 101])
def test_categorical_rows_and_totals_draw_like_gathered_rows(n):
    # A caller drawing many times from fixed masses (synth's kernel) passes
    # the row of each draw and the block totals built once.
    rng = np.random.default_rng(n)
    masses = rng.random((n, n)) * (rng.random((n, n)) < 0.7) + np.eye(n)
    rows = rng.integers(0, n, 500)
    u = rng.random(500)
    assert np.array_equal(categorical(masses, u, rows=rows, totals=block_totals(masses)),
                          categorical(masses[rows], u))
