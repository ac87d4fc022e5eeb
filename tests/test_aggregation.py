import numpy as np
import pytest

from storagg import (AggregationError, kmeans, kmedoids, cluster_states,
                     cluster_days, window_counts, default_checkpoints,
                     aggregate, save_artifacts, load_artifacts,
                     normalize_series, periods)
from storagg.aggregation import (MAX_ITER, MAX_RESEEDS, _farthest_point_seed,
                                 _pairwise_sq_dists)

from conftest import make_data, manual_matrices


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def blob_points(seed=0):
    """Three well-separated blobs of 20 points each."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [5.0, 5.0], [-5.0, 5.0]])
    pts = np.vstack([c + 0.3 * rng.standard_normal((20, 2)) for c in centers])
    return pts, centers


def test_kmeans_recovers_blobs():
    pts, centers = blob_points()
    labels, found, trace = kmeans(pts, 3, seed=1)
    # every blob maps to exactly one cluster
    for blob in range(3):
        blob_labels = labels[20 * blob:20 * (blob + 1)]
        assert len(set(blob_labels.tolist())) == 1
    # found centers sit near the true ones (order-free)
    dists = np.linalg.norm(found[:, None, :] - centers[None, :, :], axis=2)
    assert dists.min(axis=1).max() < 0.5


def test_kmeans_objective_monotone():
    pts, _ = blob_points(seed=4)
    _, _, trace = kmeans(pts, 4, seed=2)
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_kmeans_deterministic():
    pts, _ = blob_points(seed=7)
    out1 = kmeans(pts, 3, seed=9)
    out2 = kmeans(pts, 3, seed=9)
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1], out2[1])


def test_kmeans_exact_when_k_equals_distinct_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    labels, centers, trace = kmeans(pts, 3, seed=0)
    assert sorted(labels.tolist()) == [0, 1, 2]
    assert trace[-1] == pytest.approx(0.0)


def test_kmeans_rejects_bad_k():
    pts, _ = blob_points()
    with pytest.raises(AggregationError):
        kmeans(pts, 0, seed=0)
    with pytest.raises(AggregationError):
        kmeans(pts, len(pts) + 1, seed=0)


def test_kmedoids_returns_member_indices():
    pts, _ = blob_points(seed=3)
    labels, medoids, trace = kmedoids(pts, 3, seed=5)
    assert all(0 <= m < len(pts) for m in medoids)
    # each point's medoid is the nearest of the three
    for i, lab in enumerate(labels):
        d = ((pts[i] - pts[medoids]) ** 2).sum(axis=1)
        assert d[lab] == pytest.approx(d.min())
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_kmedoids_deterministic():
    pts, _ = blob_points(seed=8)
    out1 = kmedoids(pts, 2, seed=1)
    out2 = kmedoids(pts, 2, seed=1)
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1], out2[1])


# k-means and k-medoids as separate plain loops: the references for the
# shared loop, which must draw from the generator and sum the trace in the
# same order.  Each also returns the attempt that succeeded.

def reference_kmeans(points, k, seed):
    n = len(points)
    rng = np.random.default_rng(seed)
    for attempt in range(MAX_RESEEDS + 1):
        centers = points[_farthest_point_seed(points, k, rng)].copy()
        labels = None
        trace = []
        empty = False
        for _it in range(MAX_ITER):
            d2 = _pairwise_sq_dists(points, centers)
            new_labels = d2.argmin(axis=1)
            trace.append(float(d2[np.arange(n), new_labels].sum()))
            if (np.bincount(new_labels, minlength=k) == 0).any():
                empty = True
                break
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for j in range(k):
                centers[j] = points[labels == j].mean(axis=0)
        if not empty:
            return labels, centers, np.array(trace), attempt
    raise AggregationError("empty clusters")


def reference_kmedoids(points, k, seed):
    n = len(points)
    dist = _pairwise_sq_dists(points, points)
    rng = np.random.default_rng(seed)
    for attempt in range(MAX_RESEEDS + 1):
        medoids = np.array(_farthest_point_seed(points, k, rng))
        labels = None
        trace = []
        empty = False
        for _it in range(MAX_ITER):
            new_labels = dist[:, medoids].argmin(axis=1)
            trace.append(float(dist[np.arange(n), medoids[new_labels]].sum()))
            if (np.bincount(new_labels, minlength=k) == 0).any():
                empty = True
                break
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for j in range(k):
                members = np.flatnonzero(labels == j)
                within = dist[np.ix_(members, members)].sum(axis=0)
                medoids[j] = members[int(np.argmin(within))]
        if not empty:
            return labels, medoids, np.array(trace), attempt
    raise AggregationError("empty clusters")


def oracle_point_set(i):
    """Sets 0-49: 3-9 one-dimensional points within 1e-4 of 1e4, whose
    squared distances are rounding noise, so clusters empty and force
    re-seeds, some until they run out.  Sets 50-59: blobs in 1-4
    dimensions."""
    rng = np.random.default_rng(i)
    if i < 50:
        n = int(rng.integers(3, 10))
        return 1e4 + 1e-4 * rng.standard_normal((n, 1)), int(rng.integers(2, n + 1))
    n, f = int(rng.integers(10, 60)), int(rng.integers(1, 5))
    centers = 4.0 * rng.standard_normal((int(rng.integers(2, 6)), f))
    points = centers[rng.integers(len(centers), size=n)] + rng.standard_normal((n, f))
    return points, int(rng.integers(1, 8))


def test_clustering_loop_matches_plain_loops():
    reseeded, exhausted = set(), set()
    for i in range(60):
        points, k = oracle_point_set(i)
        for loop, reference in ((kmeans, reference_kmeans), (kmedoids, reference_kmedoids)):
            try:
                *expected, attempt = reference(points, k, seed=i)
            except AggregationError:
                with pytest.raises(AggregationError, match="empty clusters"):
                    loop(points, k, seed=i)
                exhausted.add(loop.__name__)
                continue
            if attempt:
                reseeded.add(loop.__name__)
            for got, want in zip(loop(points, k, seed=i), expected, strict=True):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (i, loop)
    assert reseeded == exhausted == {"kmeans", "kmedoids"}


def test_cluster_states_composite_hours_in_physical_units():
    data = make_data(2.0 + np.sin(np.arange(48)), np.zeros(48),
                     np.zeros(48), storage_ids=["s"])
    states = cluster_states(normalize_series(data), 4, seed=0)
    assert states.horizon_hours == 48
    assert (periods("ss", 48, states=states).weights > 0).all()
    assert states.demand.shape == (4, 1)
    # composite demand stays inside the observed range
    assert states.demand.min() >= data.demand.min() - 1e-9
    assert states.demand.max() <= data.demand.max() + 1e-9


def test_cluster_days_medoids_are_real_days():
    rng = np.random.default_rng(2)
    data = make_data(rng.random(5 * 24), storage_ids=[])
    rp = cluster_days(normalize_series(data), 2, seed=0)
    assert rp.num_days == 5
    assert set(rp.day_assignment.tolist()) == {0, 1}
    for r, day in enumerate(rp.medoid_days):
        assert rp.day_assignment[day] == r   # a medoid belongs to its cluster


def test_cluster_days_needs_whole_days():
    data = make_data(np.ones(24), storage_ids=[])
    feats = normalize_series(data)
    trimmed = type(feats)(matrix=feats.matrix[:20],
                          mins=feats.mins, scales=feats.scales,
                          num_nodes=feats.num_nodes, num_storage=feats.num_storage)
    with pytest.raises(AggregationError, match="whole days"):
        cluster_days(trimmed, 1, seed=0)


def test_hour_map_points_into_medoid_days():
    rng = np.random.default_rng(6)
    data = make_data(rng.random(6 * 24), storage_ids=[])
    rp = cluster_days(normalize_series(data), 2, seed=3)
    per = periods("rp", 6 * 24, rp=rp)
    hmap = per.hours[per.pos]
    assert hmap.shape == (6 * 24,)
    for t, h in enumerate(hmap):
        assert h % 24 == t % 24                       # same hour of day
        assert h // 24 == rp.medoid_days[rp.day_assignment[t // 24]]


# ---------------------------------------------------------------------------
# chronology matrices (hand-computed oracles)
# ---------------------------------------------------------------------------

def test_transition_matrix_oracle():
    n = window_counts([0, 0, 1, 1, 0], [5], 2)[0]
    assert np.array_equal(n, [[1, 1], [1, 1]])
    assert n.sum() == 4   # P - 1
    assert np.array_equal(manual_matrices([0, 0, 1, 1, 0], window=24).transitions, n)


def test_transition_matrix_conserves_pairs():
    rng = np.random.default_rng(0)
    seq = rng.integers(0, 5, size=200)
    n = window_counts(seq, [200], 5)[0]
    assert n.sum() == 199


def test_default_checkpoints():
    assert default_checkpoints(120, 24).tolist() == [24, 48, 72, 96, 120]
    assert default_checkpoints(100, 24).tolist() == [24, 48, 72, 96, 100]
    assert default_checkpoints(10, 24).tolist() == [10]
    with pytest.raises(AggregationError):
        default_checkpoints(48, 0)


def test_frequency_matrices_oracle():
    # sequence 0,0,1,1,0 with checkpoints 2, 4, 5: transitions land at
    # positions 1..4, the slice at k counts those strictly before hour k
    m = manual_matrices([0, 0, 1, 1, 0], window=2)
    assert m.checkpoints.tolist() == [2, 4, 5]
    freq = m.frequency
    assert np.array_equal(freq[0], [[1, 0], [0, 0]])
    assert np.array_equal(freq[1], [[1, 1], [0, 1]])
    assert np.array_equal(freq[2], [[1, 1], [1, 1]])
    # final slice is the full transition matrix
    assert np.array_equal(freq[-1], m.transitions)


def test_reduced_frequency_oracle():
    seq = [0, 0, 1, 1, 0]
    red = window_counts(seq, [2, 4, 5], 2)
    assert np.array_equal(red[0], [[1, 0], [0, 0]])
    assert np.array_equal(red[1], [[0, 1], [0, 1]])
    assert np.array_equal(red[2], [[0, 0], [1, 0]])
    assert (red >= 0).all()
    m = manual_matrices(seq, window=2)
    assert np.array_equal(m.reduced_frequency, red)
    assert np.array_equal(red.sum(axis=0), m.transitions)


def test_frequency_checkpoint_validation():
    with pytest.raises(AggregationError, match="sorted"):
        window_counts([0, 1, 0], [3, 2], 2)
    with pytest.raises(AggregationError, match="within"):
        window_counts([0, 1, 0], [4], 2)
    with pytest.raises(AggregationError, match="within"):
        window_counts([0, 1, 0], [0, 3], 2)
    for bad in ([0, 2, 0], [0, -1, 0]):
        with pytest.raises(AggregationError, match=r"0\.\.1"):
            window_counts(bad, [3], 2)


def test_rp_transition_oracle():
    nrpp = manual_matrices([0], window=24, day_assignment=[0, 1, 0, 1]).rp_transitions
    assert np.array_equal(nrpp, [[0, 2], [1, 0]])
    assert nrpp.sum() == 3   # D - 1


# ---------------------------------------------------------------------------
# bundle + persistence
# ---------------------------------------------------------------------------

def test_aggregate_bundle(sin_data):
    art = aggregate(sin_data, num_states=6, num_rp=2, seed=0)
    assert art.states.num_states == 6
    assert art.states.horizon_hours == 48
    assert art.matrices.transitions.sum() == 47
    assert art.matrices.checkpoints[-1] == 48
    assert np.array_equal(art.matrices.reduced_frequency.sum(axis=0),
                          art.matrices.transitions)


def test_window_default_follows_storage_kind(sin_data):
    short = aggregate(sin_data, 4, 2, seed=0, has_short_term_storage=True)
    long = aggregate(sin_data, 4, 2, seed=0, has_short_term_storage=False)
    assert short.matrices.window_hours == 24
    assert long.matrices.window_hours == 168


def test_artifacts_round_trip(tmp_path, sin_data):
    art = aggregate(sin_data, 5, 2, seed=4)
    path = tmp_path / "artifacts.json"
    save_artifacts(art, path)
    back = load_artifacts(path)
    assert back.seed == 4
    assert np.array_equal(back.states.assignment, art.states.assignment)
    assert np.allclose(back.states.demand, art.states.demand)
    assert np.array_equal(back.rp.medoid_days, art.rp.medoid_days)
    assert np.array_equal(back.matrices.frequency, art.matrices.frequency)
    # a second save is byte-identical (stable key order and float repr)
    save_artifacts(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_aggregate_deterministic(sin_data):
    a = aggregate(sin_data, 5, 2, seed=11)
    b = aggregate(sin_data, 5, 2, seed=11)
    assert np.array_equal(a.states.assignment, b.states.assignment)
    assert np.array_equal(a.rp.day_assignment, b.rp.day_assignment)
    c = aggregate(sin_data, 5, 2, seed=12)
    # different seed may legitimately coincide on tiny data; just require
    # the call to succeed and keep shapes
    assert c.states.assignment.shape == a.states.assignment.shape
