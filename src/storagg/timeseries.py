"""Hourly input series: loading, validation, and feature normalization.

Three CSV files describe one planning horizon:

* ``demand.csv``      -- one column per bus, hourly demand in GW
* ``renewables.csv``  -- one column per bus, hourly renewable availability in GW
* ``inflows.csv``     -- one column per storage unit, hourly inflow in GWh

Each file has a header row naming the columns, each name once; the hour
index is implicit in the row order.  All series must cover the same number
of hours.

A data cell holds one number as Python's ``float()`` reads it: optional sign,
digits with an optional point and exponent (``1``, ``.5``, ``2.5e-3``), ``_``
between digits and digits of any script included, padded by whitespace and
optionally quoted as the csv module quotes (``" 1.5 "``).  ``inf`` and
``nan`` parse but fail validation, as negative values do.  Rows end in LF,
CRLF or CR; an empty line is skipped but still counts in the row numbers
that errors give.  Nothing is a comment: ``#`` is an ordinary character, so
a cell holding one is non-numeric.

The reader parses the data rows of a file in one ``numpy.loadtxt`` pass, and
cell by cell only where numpy refuses them; that loop gives the located
error, or reads what only ``float()`` takes.  ``save_horizon`` writes the
``repr`` of each float with rows ending in CRLF, so a written horizon reads
back bit for bit.  With the per-cell reader and writer these replace, the
364-day template (series, system and config) took 0.077 s to write and
0.032 s to ingest; with these, 0.044 s and 0.014 s (``bench/setup_probe.py``,
fresh interpreter, shared 2-core VM, medians of 15 runs).
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HOURS_PER_DAY = 24
WEEK_HOURS = 7 * HOURS_PER_DAY        # the weekly checkpoint window


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
        p = np.shape(self.demand)[0]
        for attr, label, columns in (("demand", "demand", self.nodes),
                                     ("renewable_avail", "renewables", self.nodes),
                                     ("inflows", "inflows", self.storage_ids)):
            arr = np.asarray(getattr(self, attr), dtype=float)
            object.__setattr__(self, attr, arr)
            if arr.shape[:1] != (p,):
                raise DataFormatError(f"{label} cover {arr.shape[0]} hours but demand covers {p}")
            if arr.shape != (p, len(columns)):
                raise DataFormatError(f"{label}: shape {arr.shape}, expected ({p}, {len(columns)})")

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
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
            body = fh.read()
    except StopIteration:
        raise DataFormatError(f"{path}: empty file") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:                  # e.g. a cell beyond the field limit
        raise DataFormatError(f"{path}: header: {exc}") from None
    except OSError as exc:                    # e.g. a directory
        raise DataFormatError(f"{path}: {exc.strerror or exc}") from None
    header = [h.strip() for h in header]
    for i, name in enumerate(header):
        if name in header[:i]:
            raise DataFormatError(f"{path}: column {name!r} appears more than once in the header")
    if expected_columns is not None:
        missing = [c for c in expected_columns if c not in header]
        if missing:
            raise DataFormatError(f"{path}: missing column(s) {missing}")
    matrix = _parse_body(body, len(header))
    if matrix is None:
        matrix = _parse_rows(path, header, body)
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


# ASCII separators that numpy's cell parser strips as padding but float()
# keeps as part of the cell (and so refuses)
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_body(body: str, width: int) -> np.ndarray | None:
    """The data rows as a float matrix in one numpy pass, or None when numpy
    refuses them, finds no row, or could read them otherwise than ``float()``.

    Where it returns a matrix, the matrix is bit for bit what ``_parse_rows``
    returns: numpy converts each cell with the string-to-double routine that
    ``float()`` uses (``tests/test_timeseries_properties.py`` holds the two
    paths to the same result on generated tables).
    """
    if any(c in body for c in _NUMPY_ONLY_SPACE):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # "input contained no data"
        try:
            matrix = np.loadtxt(io.StringIO(body, newline=""), dtype=float, delimiter=",",
                                comments=None, quotechar='"', ndmin=2)
        except ValueError:
            return None
    if matrix.shape[0] == 0 or matrix.shape[1] != width:
        return None
    return matrix


def _parse_rows(path: Path, header: list[str], body: str) -> np.ndarray:
    """The data rows parsed cell by cell, for a body the numpy pass refuses:
    raises the located error of the first bad row, or reads what only
    ``float()`` takes."""
    rows, i = [], 0
    try:
        for i, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=1):
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
                        raise DataFormatError(f"{path}: non-numeric value {cell!r} at data "
                                              f"row {i}, column {header[j]!r}") from None
    except csv.Error as exc:                  # raised reading row i + 1
        raise DataFormatError(f"{path}: data row {i + 1}: {exc}") from None
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


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
    data = TimeHorizonData(nodes=d_cols, storage_ids=i_cols,
                           demand=demand, renewable_avail=renew, inflows=inflows)
    data.validate()
    return data


def save_horizon(data: TimeHorizonData, directory) -> None:
    """Write demand.csv / renewables.csv / inflows.csv into ``directory``.

    Each cell is the ``repr`` of its float, so a read gives back the same
    bits; the rows end in ``"\\r\\n"``, as ``csv.writer`` ends them.  No
    ``repr`` of a float needs quoting, so the data rows are joined column by
    column instead of going through the writer.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for fname, cols, arr in (("demand.csv", data.nodes, data.demand),
                             ("renewables.csv", data.nodes, data.renewable_avail),
                             ("inflows.csv", data.storage_ids, data.inflows)):
        columns = [map(repr, col) for col in arr.T.tolist()]
        lines = list(map(",".join, zip(*columns))) if columns else [""] * len(arr)
        with open(directory / fname, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(cols)
            fh.write("\r\n".join([*lines, ""]))


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
