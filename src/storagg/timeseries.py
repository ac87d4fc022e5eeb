"""Hourly input series: loading, validation, and feature normalization.

Three CSV files describe one planning horizon:

* ``demand.csv``      -- one column per bus, hourly demand in GW
* ``renewables.csv``  -- one column per bus, hourly renewable availability in GW
* ``inflows.csv``     -- one column per storage unit, hourly inflow in GWh

Each file has a header row naming the columns; the hour index is implicit in
the row order.  All series must cover the same number of hours.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HOURS_PER_DAY = 24


class DataFormatError(ValueError):
    """An input file violates the documented CSV schema."""


@dataclass(frozen=True)
class TimeHorizonData:
    """Hourly demand, renewable availability and storage inflows for a horizon."""

    nodes: list[str]
    storage_ids: list[str]
    demand: np.ndarray          # (P, n_nodes) GW
    renewable_avail: np.ndarray  # (P, n_nodes) GW
    inflows: np.ndarray          # (P, n_storage) GWh

    def __post_init__(self):
        demand = np.asarray(self.demand, dtype=float)
        renew = np.asarray(self.renewable_avail, dtype=float)
        inflows = np.asarray(self.inflows, dtype=float)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "renewable_avail", renew)
        object.__setattr__(self, "inflows", inflows)
        p = demand.shape[0]
        if demand.shape != (p, len(self.nodes)):
            raise DataFormatError(f"demand has shape {demand.shape}, expected ({p}, {len(self.nodes)})")
        if renew.shape != (p, len(self.nodes)):
            raise DataFormatError(f"renewables cover {renew.shape[0]} hours, demand covers {p}")
        if inflows.shape != (p, len(self.storage_ids)):
            raise DataFormatError(
                f"inflows have shape {inflows.shape}, expected ({p}, {len(self.storage_ids)})")

    @property
    def horizon_hours(self) -> int:
        return self.demand.shape[0]

    @property
    def num_days(self) -> int:
        return self.horizon_hours // HOURS_PER_DAY

    def validate(self) -> None:
        """Raise DataFormatError on any horizon-level invariant violation.

        Shape consistency is checked at construction; this adds the stricter
        file-level rules used by the loading and day-clustering paths: values
        finite and non-negative, whole days, at least one day.
        """
        p = self.horizon_hours
        if p < HOURS_PER_DAY or p % HOURS_PER_DAY != 0:
            raise DataFormatError(
                f"horizon covers {p} hours; day-based aggregation needs a positive multiple of {HOURS_PER_DAY}")
        for label, arr in (("demand", self.demand),
                           ("renewables", self.renewable_avail),
                           ("inflows", self.inflows)):
            if not np.isfinite(arr).all():
                bad = np.argwhere(~np.isfinite(arr))[0]
                raise DataFormatError(f"{label}: non-finite value at data row {bad[0] + 1}")
            if (arr < 0).any():
                bad = np.argwhere(arr < 0)[0]
                raise DataFormatError(f"{label}: negative value at data row {bad[0] + 1}, column {bad[1] + 1}")

    def total_demand(self) -> np.ndarray:
        """System demand per hour (GW), summed over nodes."""
        return self.demand.sum(axis=1)


def _read_table(path: Path, expected_columns: list[str] | None) -> tuple[list[str], np.ndarray]:
    """Read one CSV file into (column names, float matrix) with located errors."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: file not found")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if expected_columns is not None:
            missing = [c for c in expected_columns if c not in header]
            if missing:
                raise DataFormatError(f"{path}: missing column(s) {missing}")
        rows = []
        for i, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: data row {i} has {len(row)} fields, header has {len(header)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                for j, cell in enumerate(row):
                    try:
                        float(cell)
                    except ValueError:
                        raise DataFormatError(
                            f"{path}: non-numeric value {cell!r} at data row {i}, column {header[j]!r}") from None
        if not rows:
            raise DataFormatError(f"{path}: no data rows")
    matrix = np.array(rows, dtype=float)
    for j, name in enumerate(header):
        col = matrix[:, j]
        if not np.isfinite(col).all():
            i = int(np.argwhere(~np.isfinite(col))[0, 0]) + 1
            raise DataFormatError(f"{path}: non-finite value at data row {i}, column {name!r}")
        if (col < 0).any():
            i = int(np.argwhere(col < 0)[0, 0]) + 1
            raise DataFormatError(f"{path}: negative value at data row {i}, column {name!r}")
    if expected_columns is not None:
        order = [header.index(c) for c in expected_columns]
        return list(expected_columns), matrix[:, order]
    return header, matrix


def load_horizon(demand_path, renewables_path, inflows_path,
                 nodes: list[str] | None = None,
                 storage_ids: list[str] | None = None) -> TimeHorizonData:
    """Load and validate the three hourly series files.

    When ``nodes``/``storage_ids`` are given (normally from the system file),
    every listed column must be present and the returned arrays follow that
    order.  Extra columns are ignored.
    """
    d_cols, demand = _read_table(Path(demand_path), nodes)
    r_cols, renew = _read_table(Path(renewables_path), nodes)
    i_cols, inflows = _read_table(Path(inflows_path), storage_ids)
    if nodes is None and d_cols != r_cols:
        raise DataFormatError(
            f"demand columns {d_cols} do not match renewables columns {r_cols}")
    p = demand.shape[0]
    for label, arr in (("renewables", renew), ("inflows", inflows)):
        if arr.shape[0] != p:
            raise DataFormatError(
                f"{label} cover {arr.shape[0]} hours but demand covers {p}")
    data = TimeHorizonData(nodes=d_cols, storage_ids=i_cols,
                           demand=demand, renewable_avail=renew, inflows=inflows)
    data.validate()
    return data


def save_horizon(data: TimeHorizonData, directory) -> None:
    """Write demand.csv / renewables.csv / inflows.csv into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for fname, cols, arr in (("demand.csv", data.nodes, data.demand),
                             ("renewables.csv", data.nodes, data.renewable_avail),
                             ("inflows.csv", data.storage_ids, data.inflows)):
        with open(directory / fname, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in arr:
                writer.writerow([repr(float(v)) for v in row])


@dataclass(frozen=True)
class NormalizedFeatures:
    """Per-hour feature matrix scaled to [0, 1] column-wise.

    Column layout is fixed: demand per node, then renewable availability per
    node, then inflow per storage unit.  A constant series maps to all-zeros
    and its scale is stored as 0, so de-normalization recovers it exactly.
    """

    matrix: np.ndarray     # (P, F) in [0, 1]
    mins: np.ndarray       # (F,)
    scales: np.ndarray     # (F,) == max - min, 0 for constant columns
    num_nodes: int
    num_storage: int

    def denormalize(self, rows: np.ndarray) -> np.ndarray:
        """Map normalized feature rows back to physical units."""
        rows = np.asarray(rows, dtype=float)
        return self.mins + rows * self.scales

    def split_physical(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """De-normalize rows and split into (demand, renewables, inflows) blocks."""
        phys = np.atleast_2d(self.denormalize(rows))
        n, h = self.num_nodes, self.num_storage
        return phys[:, :n], phys[:, n:2 * n], phys[:, 2 * n:2 * n + h]


def normalize_series(data: TimeHorizonData) -> NormalizedFeatures:
    """Stack the hourly series into one min-max normalized feature matrix."""
    raw = np.hstack([data.demand, data.renewable_avail, data.inflows])
    mins = raw.min(axis=0)
    scales = raw.max(axis=0) - mins
    matrix = np.zeros_like(raw)
    nonconst = scales > 0
    matrix[:, nonconst] = (raw[:, nonconst] - mins[nonconst]) / scales[nonconst]
    return NormalizedFeatures(matrix=matrix, mins=mins, scales=scales,
                              num_nodes=len(data.nodes), num_storage=len(data.storage_ids))
