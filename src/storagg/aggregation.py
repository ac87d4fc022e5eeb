"""Temporal aggregation: hour clustering, day clustering, and the matrices
that retain chronology.

Two reductions are supported:

* system states: k-means over normalized hourly feature vectors; each state
  is a composite hour (the cluster centroid de-normalized back to physical
  units; only these are kept) weighted by the number of hours it stands for.
* representative days: k-medoids over per-day concatenations of the hourly
  features (``HOURS_PER_DAY`` x F values per day); each representative is an
  actual day of the horizon, weighted by the number of days in its cluster.

Chronology is retained in counting matrices built from the assignments:
state-to-state transition counts, cumulative transition counts up to a set of
checkpoint hours, per-window transition counts between checkpoints, and
day-cluster transition counts (``build_transition_matrix`` on the days).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .timeseries import HOURS_PER_DAY, NormalizedFeatures, TimeHorizonData, normalize_series

MAX_ITER = 300       # clustering iteration cap
MAX_RESEEDS = 5      # re-initializations allowed when a cluster empties


class AggregationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# clustering primitives
# ---------------------------------------------------------------------------

def _sq_dist_to(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    diff = points - center
    return np.einsum("ij,ij->i", diff, diff)


def _farthest_point_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """Greedy spread-out seeding: random first pick, then repeatedly take the
    point farthest from its nearest chosen seed.  Ties resolve to the lowest
    index so a fixed seed always yields the same centers."""
    first = int(rng.integers(len(points)))
    chosen = [first]
    d2 = _sq_dist_to(points, points[first])
    while len(chosen) < k:
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, _sq_dist_to(points, points[nxt]))
    return chosen


def _pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # (n, k) squared euclidean distances
    p2 = np.einsum("ij,ij->i", points, points)[:, None]
    c2 = np.einsum("ij,ij->i", centers, centers)[None, :]
    return np.maximum(p2 + c2 - 2.0 * points @ centers.T, 0.0)


def _check_k(points: np.ndarray, k: int) -> None:
    """Refuse a k outside 1..n or above the number of distinct points."""
    n = len(points)
    if not 1 <= k <= n:
        raise AggregationError(f"cannot form {k} clusters from {n} points")
    distinct = len(np.unique(points, axis=0))
    if distinct < k:
        raise AggregationError(
            f"cannot form {k} clusters: only {distinct} distinct points")


def kmeans(points: np.ndarray, k: int, seed: int):
    """Plain Lloyd iterations with farthest-point seeding.

    Returns (labels, centers, objective_trace).  The trace holds the within-
    cluster sum of squared distances after every assignment step and is
    non-increasing.  Raises AggregationError if clusters keep emptying after
    the allowed number of re-initializations.
    """
    points = np.asarray(points, dtype=float)
    _check_k(points, k)
    n = len(points)
    rng = np.random.default_rng(seed)
    for _attempt in range(MAX_RESEEDS + 1):
        centers = points[_farthest_point_seed(points, k, rng)].copy()
        labels = None
        trace: list[float] = []
        empty = False
        for _it in range(MAX_ITER):
            d2 = _pairwise_sq_dists(points, centers)
            new_labels = d2.argmin(axis=1)
            trace.append(float(d2[np.arange(n), new_labels].sum()))
            counts = np.bincount(new_labels, minlength=k)
            if (counts == 0).any():
                empty = True
                break
            if labels is not None and np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
            for j in range(k):
                centers[j] = points[labels == j].mean(axis=0)
        if not empty:
            return labels, centers, np.array(trace)
    raise AggregationError(
        f"k-means kept producing empty clusters after {MAX_RESEEDS} re-seeds "
        f"(k={k} may exceed the number of distinct points)")


def kmedoids(points: np.ndarray, k: int, seed: int):
    """Alternating k-medoids (assign to nearest medoid, then recenter each
    cluster on its in-cluster cost minimizer) under squared euclidean cost.

    Returns (labels, medoid_indices, objective_trace); medoids are indices
    into ``points``, so every representative is an actual observation.
    """
    points = np.asarray(points, dtype=float)
    _check_k(points, k)
    n = len(points)
    dist = _pairwise_sq_dists(points, points)
    rng = np.random.default_rng(seed)
    for _attempt in range(MAX_RESEEDS + 1):
        medoids = np.array(_farthest_point_seed(points, k, rng))
        labels = None
        trace: list[float] = []
        empty = False
        for _it in range(MAX_ITER):
            new_labels = dist[:, medoids].argmin(axis=1)
            trace.append(float(dist[np.arange(n), medoids[new_labels]].sum()))
            counts = np.bincount(new_labels, minlength=k)
            if (counts == 0).any():
                empty = True
                break
            if labels is not None and np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
            for j in range(k):
                members = np.flatnonzero(labels == j)
                within = dist[np.ix_(members, members)].sum(axis=0)
                medoids[j] = members[int(np.argmin(within))]
        if not empty:
            return labels, medoids, np.array(trace)
    raise AggregationError(
        f"k-medoids kept producing empty clusters after {MAX_RESEEDS} re-seeds")


# ---------------------------------------------------------------------------
# clusterings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateClustering:
    """Hours grouped into system states (composite hours)."""

    num_states: int
    assignment: np.ndarray     # (P,) state index per hour
    durations: np.ndarray      # (S,) hours represented by each state
    demand: np.ndarray         # (S, n_nodes) GW, de-normalized composite hour
    renewable_avail: np.ndarray  # (S, n_nodes) GW
    inflows: np.ndarray        # (S, n_storage) GWh

    @property
    def horizon_hours(self) -> int:
        return len(self.assignment)


@dataclass(frozen=True)
class RepPeriodClustering:
    """Days grouped into clusters, each represented by an actual member day."""

    num_rp: int
    day_assignment: np.ndarray   # (D,) cluster index per day
    medoid_days: np.ndarray      # (R,) day index of each representative
    weights: np.ndarray          # (R,) days represented by each cluster

    @property
    def num_days(self) -> int:
        return len(self.day_assignment)

    @property
    def horizon_hours(self) -> int:
        return self.num_days * HOURS_PER_DAY


def cluster_states(features: NormalizedFeatures, num_states: int, seed: int) -> StateClustering:
    labels, centers, _ = kmeans(features.matrix, num_states, seed)
    demand, renew, inflows = features.split_physical(centers)
    return StateClustering(
        num_states=num_states,
        assignment=labels.astype(int),
        durations=np.bincount(labels, minlength=num_states),
        demand=demand, renewable_avail=renew, inflows=inflows)


def cluster_days(features: NormalizedFeatures, num_rp: int, seed: int) -> RepPeriodClustering:
    p, f = features.matrix.shape
    if p % HOURS_PER_DAY != 0:
        raise AggregationError(f"day clustering needs whole days, got {p} hours")
    day_matrix = features.matrix.reshape(p // HOURS_PER_DAY, HOURS_PER_DAY * f)
    labels, medoids, _ = kmedoids(day_matrix, num_rp, seed)
    return RepPeriodClustering(
        num_rp=num_rp,
        day_assignment=labels.astype(int),
        medoid_days=medoids.astype(int),
        weights=np.bincount(labels, minlength=num_rp))


# ---------------------------------------------------------------------------
# chronology matrices
# ---------------------------------------------------------------------------

def build_transition_matrix(assignment: np.ndarray, num_states: int | None = None) -> np.ndarray:
    """Count consecutive-hour transitions; entry (s, s') is the number of
    hour pairs (p, p+1) with state s followed by state s'.  Self-transitions
    included; the total always equals P - 1."""
    assignment = np.asarray(assignment, dtype=int)
    s = int(assignment.max()) + 1 if num_states is None else num_states
    counts = np.zeros((s, s), dtype=int)
    np.add.at(counts, (assignment[:-1], assignment[1:]), 1)
    return counts


def default_checkpoints(horizon_hours: int, window: int) -> np.ndarray:
    """Checkpoint hours {M, 2M, ...} for window M, with the horizon end
    always included."""
    if window <= 0:
        raise AggregationError("checkpoint window must be positive")
    marks = list(range(window, horizon_hours + 1, window))
    if not marks or marks[-1] != horizon_hours:
        marks.append(horizon_hours)
    return np.array(marks, dtype=int)


def build_frequency_matrices(assignment: np.ndarray, checkpoints: np.ndarray,
                             num_states: int | None = None) -> np.ndarray:
    """Cumulative transition counts: the slice for checkpoint k counts the
    hour pairs (p, p+1) with p+1 < k, i.e. the transitions contributing to
    the level reached after k hours.  The slice at the final checkpoint
    equals the full transition matrix."""
    assignment = np.asarray(assignment, dtype=int)
    checkpoints = np.asarray(checkpoints, dtype=int)
    p = len(assignment)
    if (checkpoints < 1).any() or (checkpoints > p).any():
        raise AggregationError("checkpoints must lie within the horizon")
    if not np.array_equal(checkpoints, np.sort(checkpoints)):
        raise AggregationError("checkpoints must be sorted")
    s = int(assignment.max()) + 1 if num_states is None else num_states
    freq = np.zeros((len(checkpoints), s, s), dtype=int)
    running = np.zeros((s, s), dtype=int)
    prev = 0
    for i, k in enumerate(checkpoints):
        # new pairs (p, p+1) with p+1 in (prev, k), i.e. p in [prev, k-1)
        if k - 1 > prev:
            seg_from = assignment[prev:k - 1]
            seg_to = assignment[prev + 1:k]
            np.add.at(running, (seg_from, seg_to), 1)
        freq[i] = running
        prev = k - 1
    return freq


def build_reduced_frequency_matrices(frequency: np.ndarray) -> np.ndarray:
    """Per-window transition counts: the difference between consecutive
    cumulative slices.  Entries are non-negative and the slices sum back to
    the full transition matrix."""
    reduced = np.empty_like(frequency)
    reduced[0] = frequency[0]
    reduced[1:] = frequency[1:] - frequency[:-1]
    return reduced


@dataclass(frozen=True)
class TransitionMatrices:
    transitions: np.ndarray          # (S, S) int
    checkpoints: np.ndarray          # (K,) hour marks, last == P
    frequency: np.ndarray            # (K, S, S) cumulative counts
    reduced_frequency: np.ndarray    # (K, S, S) per-window counts
    rp_transitions: np.ndarray       # (R, R) day-cluster counts, total D - 1
    window_hours: int


def build_matrices(states: StateClustering, rp: RepPeriodClustering,
                   window_hours: int) -> TransitionMatrices:
    checkpoints = default_checkpoints(states.horizon_hours, window_hours)
    frequency = build_frequency_matrices(states.assignment, checkpoints, states.num_states)
    return TransitionMatrices(
        transitions=build_transition_matrix(states.assignment, states.num_states),
        checkpoints=checkpoints,
        frequency=frequency,
        reduced_frequency=build_reduced_frequency_matrices(frequency),
        rp_transitions=build_transition_matrix(rp.day_assignment, rp.num_rp),
        window_hours=window_hours)


@dataclass(frozen=True)
class AggregationArtifacts:
    """Everything the aggregated formulations need, serialized as one file."""

    seed: int
    states: StateClustering
    rp: RepPeriodClustering
    matrices: TransitionMatrices


def aggregate(data: TimeHorizonData, num_states: int, num_rp: int,
              seed: int, window_hours: int | None = None,
              has_short_term_storage: bool = True) -> AggregationArtifacts:
    """Normalize the hourly series, run both clusterings and derive every
    chronology matrix.

    The checkpoint window defaults to 24 h when the system has short-term
    storage (daily cycling must be resolved) and 168 h otherwise.
    """
    if window_hours is None:
        window_hours = HOURS_PER_DAY if has_short_term_storage else 168
    features = normalize_series(data)
    states = cluster_states(features, num_states, seed)
    rp = cluster_days(features, num_rp, seed)
    return AggregationArtifacts(
        seed=seed, states=states, rp=rp,
        matrices=build_matrices(states, rp, window_hours))


# ---------------------------------------------------------------------------
# artifact (de)serialization -- byte-stable for a fixed input and seed; the
# matrices are derived, so only the clusterings and the window are stored
# ---------------------------------------------------------------------------

def save_artifacts(art: AggregationArtifacts, path) -> None:
    doc = {
        "seed": art.seed,
        "states": {
            "num_states": art.states.num_states,
            "assignment": art.states.assignment.tolist(),
            "durations": art.states.durations.tolist(),
            "demand": art.states.demand.tolist(),
            "renewable_avail": art.states.renewable_avail.tolist(),
            "inflows": art.states.inflows.tolist(),
        },
        "rp": {
            "num_rp": art.rp.num_rp,
            "day_assignment": art.rp.day_assignment.tolist(),
            "medoid_days": art.rp.medoid_days.tolist(),
            "weights": art.rp.weights.tolist(),
        },
        "window_hours": art.matrices.window_hours,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_artifacts(path) -> AggregationArtifacts:
    """Read the clusterings back and rebuild the matrices from them.

    Raises AggregationError, naming the file, if it is not JSON or lacks a
    key.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        st, rp_doc = doc["states"], doc["rp"]
        states = StateClustering(
            num_states=st["num_states"],
            assignment=np.array(st["assignment"], dtype=int),
            durations=np.array(st["durations"], dtype=int),
            demand=np.array(st["demand"], dtype=float),
            renewable_avail=np.array(st["renewable_avail"], dtype=float),
            inflows=np.array(st["inflows"], dtype=float))
        rp = RepPeriodClustering(
            num_rp=rp_doc["num_rp"],
            day_assignment=np.array(rp_doc["day_assignment"], dtype=int),
            medoid_days=np.array(rp_doc["medoid_days"], dtype=int),
            weights=np.array(rp_doc["weights"], dtype=int))
        seed, window = doc["seed"], doc["window_hours"]
    except (ValueError, KeyError, TypeError) as exc:
        raise AggregationError(f"{path} is not a clustering artifacts file "
                               f"({type(exc).__name__}: {exc})") from None
    return AggregationArtifacts(seed=seed, states=states, rp=rp,
                                matrices=build_matrices(states, rp, window))
