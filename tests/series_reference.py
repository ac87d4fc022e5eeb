"""Reference implementations of the hourly-series reader and writer.

These are the per-row, per-cell versions that ``storagg.timeseries`` replaced
by array passes.  The property tests in ``test_timeseries_properties.py``
hold the array versions to them: the same bytes out, and the same arrays or
the same error in.
"""

import csv
from pathlib import Path

import numpy as np

from storagg import DataFormatError


def read_table_reference(path: Path, expected_columns):
    """(column names, float matrix) of one series file, read row by row."""
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


def save_horizon_reference(data, directory) -> None:
    """demand.csv / renewables.csv / inflows.csv, written cell by cell."""
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
