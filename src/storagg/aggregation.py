"""Temporal aggregation: hour clustering, day clustering, and the matrices
that retain chronology.

Two reductions are supported:

* system states: k-means over normalized hourly feature vectors; each state
  is a composite hour (the cluster centroid de-normalized back to physical
  units; only these are kept) weighted by the number of hours it stands for.
* representative days: k-medoids over per-day concatenations of the hourly
  features (``HOURS_PER_DAY`` x F values per day); each representative is an
  actual day of the horizon, weighted by the number of days in its cluster.

Chronology is retained in counting matrices built from the assignments, all
from one pair counter (``window_counts``): per-window transition counts
between checkpoint hours, their running sums up to each checkpoint, the
state-to-state transition counts (the last running sum), and day-cluster
transition counts (the day chain as a single window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .system import from_json, read_json, to_json, write_json
from .timeseries import (HOURS_PER_DAY, WEEK_HOURS, NormalizedFeatures, TimeHorizonData,
                         normalize_series)

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


def _alternate(points: np.ndarray, k: int, seed: int, start, distance, recenter):
    """Assign and recenter from farthest-point seeds until the labels repeat,
    re-seeding when a cluster empties.  ``start`` maps seed indices to
    centers, ``distance`` centers to the (n, k) costs, ``recenter`` labels to
    centers.  Returns (labels, centers, trace of the assignment costs)."""
    _check_k(points, k)
    n = len(points)
    rng = np.random.default_rng(seed)
    for _attempt in range(MAX_RESEEDS + 1):
        centers = start(_farthest_point_seed(points, k, rng))
        labels = None
        trace: list[float] = []
        for _it in range(MAX_ITER):
            cost = distance(centers)
            new_labels = cost.argmin(axis=1)
            trace.append(float(cost[np.arange(n), new_labels].sum()))
            if (np.bincount(new_labels, minlength=k) == 0).any():
                break
            if labels is not None and np.array_equal(new_labels, labels):
                return labels, centers, np.array(trace)
            labels = new_labels
            centers = recenter(labels)
        else:
            return labels, centers, np.array(trace)
    raise AggregationError(
        f"clustering kept producing empty clusters after {MAX_RESEEDS} re-seeds "
        f"(k={k} may exceed the number of distinct points)")


def kmeans(points: np.ndarray, k: int, seed: int):
    """Plain Lloyd iterations with farthest-point seeding.

    Returns (labels, centers, objective_trace).  The trace holds the within-
    cluster sum of squared distances after every assignment step and is
    non-increasing.  Raises AggregationError if clusters keep emptying after
    the allowed number of re-initializations.
    """
    points = np.asarray(points, dtype=float)
    return _alternate(
        points, k, seed,
        start=lambda chosen: points[chosen],
        distance=lambda centers: _pairwise_sq_dists(points, centers),
        recenter=lambda labels: np.array(
            [points[labels == j].mean(axis=0) for j in range(k)]))


def kmedoids(points: np.ndarray, k: int, seed: int):
    """Alternating k-medoids (assign to nearest medoid, then recenter each
    cluster on its in-cluster cost minimizer) under squared euclidean cost.

    Returns (labels, medoid_indices, objective_trace); medoids are indices
    into ``points``, so every representative is an actual observation.
    """
    points = np.asarray(points, dtype=float)
    dist = _pairwise_sq_dists(points, points)

    def medoid(members):
        return members[int(np.argmin(dist[np.ix_(members, members)].sum(axis=0)))]

    return _alternate(
        points, k, seed, start=np.array,
        distance=lambda medoids: dist[:, medoids],
        recenter=lambda labels: np.array(
            [medoid(np.flatnonzero(labels == j)) for j in range(k)]))


# ---------------------------------------------------------------------------
# clusterings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateClustering:
    """Hours grouped into system states (composite hours, in physical units)."""

    num_states: int
    assignment: np.ndarray = field(metadata={"json": "list[int]"})  # (P,) state per hour
    demand: np.ndarray = field(metadata={"json": "list[list[float]] >= 0"})  # (S, n_nodes) GW
    renewable_avail: np.ndarray = field(metadata={"json": "list[list[float]] >= 0"})  # GW
    inflows: np.ndarray = field(metadata={"json": "list[list[float]] >= 0"})  # (S, n_storage) GWh

    @property
    def horizon_hours(self) -> int:
        return len(self.assignment)


@dataclass(frozen=True)
class RepPeriodClustering:
    """Days grouped into clusters, each represented by an actual member day."""

    num_rp: int
    day_assignment: np.ndarray = field(metadata={"json": "list[int]"})  # (D,) cluster per day
    medoid_days: np.ndarray = field(metadata={"json": "list[int]"})  # (R,) day of each

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
        medoid_days=medoids.astype(int))


# ---------------------------------------------------------------------------
# chronology matrices
# ---------------------------------------------------------------------------

def default_checkpoints(horizon_hours: int, window: int) -> np.ndarray:
    """Checkpoint hours {M, 2M, ...} for window M, with the horizon end
    always included."""
    if window <= 0:
        raise AggregationError("checkpoint window must be positive")
    marks = list(range(window, horizon_hours + 1, window))
    if not marks or marks[-1] != horizon_hours:
        marks.append(horizon_hours)
    return np.array(marks, dtype=int)


def window_counts(assignment: np.ndarray, checkpoints, n: int) -> np.ndarray:
    """Consecutive-pair counts per checkpoint window: entry (i, s, s') counts
    the pairs (p, p+1) from state s to s' with ``checkpoints[i-1] <= p+1 <
    checkpoints[i]`` (no lower bound for i = 0).  With the horizon end as
    the last checkpoint the slices sum to the P - 1 transitions.  Raises
    AggregationError for checkpoints outside 1..P or out of order and for an
    assignment index outside 0..n-1."""
    assignment = np.asarray(assignment, dtype=int)
    checkpoints = np.asarray(checkpoints, dtype=int)
    if (checkpoints < 1).any() or (checkpoints > len(assignment)).any():
        raise AggregationError("checkpoints must lie within the horizon")
    if (np.diff(checkpoints) < 0).any():
        raise AggregationError("checkpoints must be sorted")
    if ((assignment < 0) | (assignment >= n)).any():
        raise AggregationError(f"assignment indices must lie in 0..{n - 1}")
    # window of each pair by its second hour; pairs past the last checkpoint
    # land in an extra slice that is dropped
    window = np.searchsorted(checkpoints, np.arange(1, len(assignment)), side="right")
    counts = np.bincount((window * n + assignment[:-1]) * n + assignment[1:],
                         minlength=(len(checkpoints) + 1) * n * n)
    return counts.reshape(-1, n, n)[:-1]


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
    """Every chronology matrix, from the pair counts of the two clusterings:
    the per-window state counts, their running sums, the last of which is
    the transition matrix, and the day counts over one window."""
    checkpoints = default_checkpoints(states.horizon_hours, window_hours)
    reduced = window_counts(states.assignment, checkpoints, states.num_states)
    frequency = reduced.cumsum(axis=0)
    return TransitionMatrices(
        transitions=frequency[-1],
        checkpoints=checkpoints,
        frequency=frequency,
        reduced_frequency=reduced,
        rp_transitions=window_counts(rp.day_assignment, [rp.num_days], rp.num_rp)[0],
        window_hours=window_hours)


@dataclass(frozen=True)
class AggregationArtifacts:
    """Everything the aggregated formulations need: what its file stores,
    the clusterings and the window, and the matrices derived from them."""

    seed: int
    states: StateClustering
    rp: RepPeriodClustering
    window_hours: int
    matrices: TransitionMatrices = field(init=False)

    def __post_init__(self) -> None:
        """Refuse clusterings that disagree, then derive the matrices."""
        states, rp = self.states, self.rp
        if any(len(a) != states.num_states
               for a in (states.demand, states.renewable_avail, states.inflows)):
            raise ValueError(f"composite hours must have {states.num_states} rows")
        if len(rp.medoid_days) != rp.num_rp:
            raise ValueError(f"{rp.num_rp} representatives need as many medoid days")
        if ((rp.medoid_days < 0) | (rp.medoid_days >= rp.num_days)).any():
            raise ValueError(f"medoid days must lie in 0..{rp.num_days - 1}")
        if (rp.day_assignment[rp.medoid_days] != np.arange(rp.num_rp)).any():
            raise ValueError("each medoid day must lie in its own cluster")
        object.__setattr__(self, "matrices", build_matrices(states, rp, self.window_hours))


def aggregate(data: TimeHorizonData, num_states: int, num_rp: int,
              seed: int, window_hours: int | None = None,
              has_short_term_storage: bool = True) -> AggregationArtifacts:
    """Normalize the hourly series, run both clusterings and derive every
    chronology matrix.

    The checkpoint window defaults to 24 h when the system has short-term
    storage (daily cycling must be resolved) and 168 h otherwise.
    """
    if window_hours is None:
        window_hours = HOURS_PER_DAY if has_short_term_storage else WEEK_HOURS
    features = normalize_series(data)
    states = cluster_states(features, num_states, seed)
    rp = cluster_days(features, num_rp, seed)
    return AggregationArtifacts(seed=seed, states=states, rp=rp, window_hours=window_hours)


# ---------------------------------------------------------------------------
# artifact (de)serialization -- byte-stable for a fixed input and seed; the
# matrices are derived, so only the clusterings and the window are stored
# ---------------------------------------------------------------------------

def save_artifacts(art: AggregationArtifacts, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, to_json(art), compact=True)


def load_artifacts(path) -> AggregationArtifacts:
    """Read the clusterings back and rebuild the matrices from them; raises
    AggregationError as ``<path>: not a clustering artifacts file: <reason>``
    if it is no JSON object or no ``AggregationArtifacts`` (``from_json``)."""
    return from_json(AggregationArtifacts, read_json(path, "clustering artifacts file",
                                                     AggregationError),
                     f"{path}: not a clustering artifacts file", AggregationError)
