import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobsim import graphs
from oracles import (haversine_naive, markov_counts, save_graph_looped, top_k_rows_lexsort,
                     transport_cost_greedy, transport_cost_linprog, visit_profiles_looped,
                     wasserstein_1d)
from tables import table

# ---------------------------------------------------------------------------
# haversine


def test_haversine_quarter_circumference():
    # Equator to the 90th meridian: a quarter of a great circle.
    assert graphs.haversine_km(0.0, 0.0, 0.0, 90.0) == pytest.approx(
        10007.543398010286, abs=1e-6)


def test_haversine_zero_and_symmetry():
    assert graphs.haversine_km(48.85, 2.35, 48.85, 2.35) == 0.0
    d1 = graphs.haversine_km(48.85, 2.35, 40.75, -74.0)
    d2 = graphs.haversine_km(40.75, -74.0, 48.85, 2.35)
    assert d1 == pytest.approx(d2, rel=1e-12)


@given(st.floats(-80, 80), st.floats(-179, 179), st.floats(-80, 80),
       st.floats(-179, 179))
@example(35.86413443548325, 35.86413443548325, 35.86413443548325, 35.86413443548325)
@settings(max_examples=100, deadline=None)
def test_haversine_matches_vincenty(lat1, lon1, lat2, lon2):
    ours = graphs.haversine_km(lat1, lon1, lat2, lon2)
    assert ours == pytest.approx(haversine_naive(lat1, lon1, lat2, lon2),
                                 rel=1e-6, abs=1e-4)


# ---------------------------------------------------------------------------
# 1-D Wasserstein


def _random_pmf(rng, size):
    masses = rng.random(size) + 1e-12
    return masses / masses.sum()


def test_wasserstein_frozen_values():
    # Point masses at the first and last of 24 slots: cost 23/24.
    a = np.zeros(24); a[0] = 1.0
    b = np.zeros(24); b[23] = 1.0
    assert wasserstein_1d(a, b) == pytest.approx(23 / 24, abs=1e-15)
    # Uniform against a point mass at slot 0 of 4: 3/8.
    u = np.full(4, 0.25)
    d = np.zeros(4); d[0] = 1.0
    assert wasserstein_1d(u, d) == pytest.approx(0.375, abs=1e-15)


def test_wasserstein_identity_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = _random_pmf(rng, 24)
        b = _random_pmf(rng, 24)
        assert wasserstein_1d(a, a) == pytest.approx(0.0, abs=1e-15)
        assert wasserstein_1d(a, b) == pytest.approx(
            wasserstein_1d(b, a), abs=1e-15)


def test_wasserstein_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b, c = (_random_pmf(rng, 12) for _ in range(3))
        ab = wasserstein_1d(a, b)
        bc = wasserstein_1d(b, c)
        ac = wasserstein_1d(a, c)
        assert ac <= ab + bc + 1e-12


def test_wasserstein_shift_adds_distance():
    # Moving a point mass one slot further moves the cost by exactly 1/T.
    T = 24
    a = np.zeros(T); a[0] = 1.0
    costs = []
    for t in range(1, T):
        b = np.zeros(T); b[t] = 1.0
        costs.append(wasserstein_1d(a, b))
    diffs = np.diff(costs)
    assert np.allclose(diffs, 1 / T, atol=1e-15)


def test_wasserstein_matches_greedy_transport_oracle():
    rng = np.random.default_rng(5)
    for _ in range(300):
        size = rng.integers(2, 9)
        a = _random_pmf(rng, size)
        b = _random_pmf(rng, size)
        positions = (np.arange(size) + 0.5) / size
        ours = wasserstein_1d(a, b)
        oracle = transport_cost_greedy(a, b, positions)
        assert ours == pytest.approx(oracle, abs=1e-12)


def test_wasserstein_matches_linear_program():
    rng = np.random.default_rng(6)
    for _ in range(10):
        size = rng.integers(2, 9)
        a = _random_pmf(rng, size)
        b = _random_pmf(rng, size)
        positions = (np.arange(size) + 0.5) / size
        assert wasserstein_1d(a, b) == pytest.approx(
            transport_cost_linprog(a, b, positions), abs=1e-9)


def test_wasserstein_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        wasserstein_1d(np.full(4, 0.25), np.full(5, 0.2))


def test_wasserstein_broadcasts_over_leading_axes():
    rng = np.random.default_rng(7)
    a = np.stack([_random_pmf(rng, 6) for _ in range(4)])
    b = np.stack([_random_pmf(rng, 6) for _ in range(3)])
    table = wasserstein_1d(a[:, None, :], b[None, :, :])
    assert table.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert table[i, j] == wasserstein_1d(a[i], b[j])


# ---------------------------------------------------------------------------
# spatial graph


def _grid_coords(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack([40.0 + rng.random(n), -74.0 + rng.random(n)])


def test_sdg_structure():
    coords = _grid_coords(30)
    g = graphs.build_sdg(coords, k=4)
    assert g.channel == "sdg" and g.mode == "weighted" and g.k == 4
    degrees = np.bincount(g.src, minlength=30)
    assert np.all(degrees == 4)
    assert np.all(g.src != g.dst)
    assert np.all(g.weight > 0) and np.all(g.weight <= 1.0)


def test_sdg_nearest_neighbours_brute_force():
    coords = _grid_coords(25, seed=1)
    k = 5
    g = graphs.build_sdg(coords, k=k)
    for i in range(25):
        dists = np.array([
            graphs.haversine_km(*coords[i], *coords[j]) if j != i else np.inf
            for j in range(25)])
        expected = set(np.argsort(dists, kind="stable")[:k])
        actual = set(g.dst[g.src == i])
        assert actual == expected
        got_w = np.sort(g.weight[g.src == i])
        want_w = np.sort(1.0 / (1.0 + dists[list(expected)]))
        assert np.allclose(got_w, want_w, atol=1e-12)


def test_sdg_tie_breaks_to_lower_id():
    # Three collinear equidistant points: both outer points tie for the
    # middle one's single slot; the lower id must win.
    coords = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    g = graphs.build_sdg(coords, k=1)
    assert g.dst[g.src == 1][0] == 0


@pytest.mark.parametrize("build", [
    lambda: graphs.build_sdg(_grid_coords(40, seed=3), k=6),
    lambda: graphs.build_stg(np.random.default_rng(4).dirichlet(np.ones(24), 40), k=6),
], ids=["sdg_haversine", "stg"])
def test_row_blocks_do_not_change_the_graph(build, monkeypatch):
    whole = build()
    row_bytes = 40 * 24 * 8              # one row of the stg's (rows, N, T) CDF gaps
    for block in (1, 7, 39):
        # One row, a block that straddles each 7-row block, one block for all.
        for cdf_rows in (1, 5, 40):
            monkeypatch.setattr(graphs, "_ROW_BLOCK", block)
            monkeypatch.setattr(graphs, "_CDF_BLOCK_BYTES", cdf_rows * row_bytes)
            part = build()
            for name in ("src", "dst", "weight"):
                assert getattr(part, name).tobytes() == getattr(whole, name).tobytes()


def test_sdg_k_bounds():
    coords = _grid_coords(5)
    with pytest.raises(ValueError):
        graphs.build_sdg(coords, k=5)
    with pytest.raises(ValueError):
        graphs.build_sdg(coords, k=0)


# ---------------------------------------------------------------------------
# transition graph


def test_ttg_counts_transitions():
    ids = np.array([[0, 1, 1, 2, 0], [1, 0, 0, 0, 1]])
    g = graphs.build_ttg(ids, 3)
    edges = {(s, d): w for s, d, w in zip(g.src, g.dst, g.weight)}
    # Self-transitions (1->1, 0->0) never appear.
    assert edges == {(0, 1): 2.0, (1, 2): 1.0, (2, 0): 1.0, (1, 0): 1.0}


def test_ttg_matches_transition_count_oracle():
    rng = np.random.default_rng(4)
    ids = np.where(rng.random((30, 24)) < 0.5, 3, rng.integers(0, 7, (30, 24)))
    g = graphs.build_ttg(ids, 7)
    counts = markov_counts(ids, 7)
    np.fill_diagonal(counts, 0)
    src, dst = np.nonzero(counts)                     # row-major: sorted by (src, dst)
    np.testing.assert_array_equal(g.src, src)
    np.testing.assert_array_equal(g.dst, dst)
    np.testing.assert_array_equal(g.weight, counts[src, dst].astype(np.float64))


def test_ttg_empty_when_everyone_stays():
    g = graphs.build_ttg(np.array([[3] * 24]), 5)
    assert len(g.src) == 0


# ---------------------------------------------------------------------------
# visit profiles and temporal graph


def test_visit_distribution_prefers_raw_observations():
    # The filled slots say location 0 all day; the raw observations win.
    traj = table(np.zeros((1, 24)), [((5, 0), (7, 0))])
    profiles = graphs.visit_profile_matrix(traj, 2)
    expected = np.zeros(24)
    expected[5] = expected[7] = 0.5
    assert np.allclose(profiles[0], expected)


def test_visit_distribution_falls_back_to_slots():
    traj = table([[1] * 12 + [0] * 12])
    profiles = graphs.visit_profile_matrix(traj, 2)
    assert profiles[0, :12].sum() == 0.0
    assert profiles[0, 12:].sum() == pytest.approx(1.0)


def test_visit_profile_matrix_uniform_for_unvisited():
    profiles = graphs.visit_profile_matrix(table([[0] * 12 + [1] * 12]), 3)
    assert np.allclose(profiles[0], np.r_[np.full(12, 1 / 12), np.zeros(12)])
    assert np.allclose(profiles[1], np.r_[np.zeros(12), np.full(12, 1 / 12)])
    assert np.allclose(profiles[2], 1 / 24)   # never visited: uniform fallback


@pytest.mark.parametrize("length", [1, 5, 24])
def test_visit_profile_matrix_matches_looped_oracle(length):
    rng = np.random.default_rng(length)
    n = 9
    ids = rng.integers(0, n, size=(40, length))
    pairs = [[(int(rng.integers(0, length)), int(rng.integers(0, n)))
              for _ in range(rng.integers(0, 4) * int(rng.random() < 0.6))]
             for _ in range(len(ids))]
    trajs = table(ids, pairs)
    assert 0 < len(np.unique(trajs.row)) < len(ids)     # a mix of both kinds of row
    np.testing.assert_array_equal(graphs.visit_profile_matrix(trajs, n),
                                  visit_profiles_looped(trajs, n))


@pytest.mark.parametrize("largest", [True, False])
def test_top_k_rows_matches_lexsort_oracle(largest):
    rng = np.random.default_rng(int(largest))
    for _ in range(200):
        rows, cols = rng.integers(1, 12), rng.integers(2, 30)
        score = rng.integers(0, 4, size=(rows, cols)).astype(np.float64) / 3.0
        score[rng.random((rows, cols)) < 0.2] = -np.inf
        k = int(rng.integers(1, cols))
        np.testing.assert_array_equal(graphs._top_k_rows(score, k, largest),
                                      top_k_rows_lexsort(score, k, largest))


@pytest.mark.parametrize("largest", [True, False])
def test_top_k_rows_with_infinite_and_all_tied_keys(largest):
    rng = np.random.default_rng(11 + int(largest))
    score = rng.integers(0, 3, size=(9, 12)).astype(np.float64) / 2.0
    score[rng.random(score.shape) < 0.3] = np.inf
    score[rng.random(score.shape) < 0.3] = -np.inf
    score[3] = np.inf
    score[4] = -np.inf
    score[5] = 0.5
    for k in (1, 6, 11):
        np.testing.assert_array_equal(graphs._top_k_rows(score, k, largest),
                                      top_k_rows_lexsort(score, k, largest))


def test_stg_weights_are_one_minus_the_oracle_w1():
    profiles = np.random.default_rng(12).dirichlet(np.ones(24), 30)
    g = graphs.build_stg(profiles, k=29)
    expected = np.clip(1.0 - wasserstein_1d(profiles[g.src], profiles[g.dst]), 0.0, 1.0)
    assert g.weight.tobytes() == expected.tobytes()


def test_stg_weights_and_topk():
    rng = np.random.default_rng(9)
    profiles = rng.random((12, 24)) + 1e-9
    profiles /= profiles.sum(axis=1, keepdims=True)
    k = 3
    g = graphs.build_stg(profiles, k=k)
    assert g.channel == "stg"
    assert np.all(g.weight >= 0.0) and np.all(g.weight <= 1.0)
    for i in range(12):
        eps = np.array([
            1.0 - wasserstein_1d(profiles[i], profiles[j]) if j != i else -np.inf
            for j in range(12)])
        expected = set(np.argsort(-eps, kind="stable")[:k])
        assert set(g.dst[g.src == i]) == expected
        for j, w in zip(g.dst[g.src == i], g.weight[g.src == i]):
            assert w == pytest.approx(eps[j], abs=1e-12)


def test_stg_identical_profiles_weight_one():
    profiles = np.tile(np.full(24, 1 / 24), (4, 1))
    g = graphs.build_stg(profiles, k=2)
    assert np.allclose(g.weight, 1.0)


# ---------------------------------------------------------------------------
# modes and persistence


def test_binarize():
    g = graphs.build_sdg(_grid_coords(10), k=3)
    v = graphs.binarize(g)
    assert v.mode == "vanilla"
    assert np.all(v.weight == 1.0)
    assert np.array_equal(v.src, g.src) and np.array_equal(v.dst, g.dst)
    assert g.mode == "weighted"          # original untouched


def test_graph_rejects_self_edges():
    with pytest.raises(ValueError):
        graphs.LocationGraph("sdg", "weighted", 3, np.array([0]), np.array([0]),
                             np.array([1.0]))


@pytest.mark.parametrize("src, dst", [([0, 1, 0], [1, 2, 1]), ([0], [3]), ([-1], [0])],
                         ids=["duplicate", "dst_out_of_range", "negative_src"])
def test_graph_rejects_duplicate_and_out_of_range_edges(src, dst):
    with pytest.raises(ValueError):
        graphs.LocationGraph("sdg", "weighted", 3, np.array(src), np.array(dst),
                             np.ones(len(src)))


def test_graph_roundtrip(tmp_path, small_graphs):
    for name, g in small_graphs.items():
        path = tmp_path / f"{name}.csv"
        graphs.save_graph(path, g)
        back = graphs.load_graph(path, g.n_locations, name)
        assert back.channel == g.channel and back.mode == g.mode and back.k == g.k
        assert np.array_equal(back.src, g.src)
        assert np.array_equal(back.dst, g.dst)
        assert np.array_equal(back.weight, g.weight)   # repr round-trip is exact


@pytest.mark.parametrize("mode", ["weighted", "vanilla"])
def test_save_graph_writes_the_looped_bytes(tmp_path, small_graphs, mode):
    for name, g in small_graphs.items():
        g = graphs.binarize(g) if mode == "vanilla" else g
        graphs.save_graph(tmp_path / "fast.csv", g)
        save_graph_looped(tmp_path / "looped.csv", g)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "looped.csv").read_bytes()


def test_graph_invariants_on_synth(small_graphs):
    for name, g in small_graphs.items():
        assert np.all(g.src != g.dst)
        assert np.all(g.weight >= 0)
        assert np.all((0 <= g.src) & (g.src < g.n_locations))
        assert np.all((0 <= g.dst) & (g.dst < g.n_locations))
        pairs = set(zip(g.src.tolist(), g.dst.tolist()))
        assert len(pairs) == len(g.src)   # no duplicate edges
    assert np.all(np.bincount(small_graphs["sdg"].src, minlength=16) == 5)
    assert np.all(np.bincount(small_graphs["stg"].src, minlength=16) == 5)
