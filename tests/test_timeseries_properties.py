"""The array-pass series reader and writer against their per-cell references
(``series_reference.py``): the writer gives the same bytes, the reader the
same arrays bit for bit or the same error, and a well-formed table is read
in the one numpy pass."""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from storagg import DataFormatError, TimeHorizonData, save_horizon
from storagg.timeseries import _parse_body, _read_table

from series_reference import read_table_reference, save_horizon_reference

# floats whose repr is easy to get wrong: signed zero, subnormals, the
# largest double, integral values, and any other double
special = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                           1.7976931348623157e308, -1.7976931348623157e308,
                           1.0, 3.0, 1e16, 1e22, 2.0 ** 53, 0.1])
doubles = special | st.integers(-2 ** 60, 2 ** 60).map(float) | \
    st.floats(allow_nan=True, allow_infinity=True)
column_names = st.text(st.sampled_from('ab ,"\r'), min_size=1, max_size=4)


@st.composite
def horizons(draw):
    hours = draw(st.integers(0, 12))
    nodes = draw(st.lists(column_names, min_size=1, max_size=3))
    storage = draw(st.lists(column_names, max_size=2))

    def block(width):
        return np.array(draw(st.lists(doubles, min_size=hours * width,
                                      max_size=hours * width)),
                        dtype=float).reshape(hours, width)

    return TimeHorizonData(nodes=nodes, storage_ids=storage, demand=block(len(nodes)),
                           renewable_avail=block(len(nodes)), inflows=block(len(storage)))


@given(horizons())
@settings(max_examples=150, deadline=None)
def test_save_horizon_bytes_match_reference(data):
    with tempfile.TemporaryDirectory() as tmp:
        save_horizon(data, Path(tmp) / "new")
        save_horizon_reference(data, Path(tmp) / "ref")
        for name in ("demand.csv", "renewables.csv", "inflows.csv"):
            assert (Path(tmp) / "new" / name).read_bytes() == \
                (Path(tmp) / "ref" / name).read_bytes(), name


# cells every reader takes: numbers in several spellings, padded or quoted
padding = st.text(st.sampled_from(" \t\xa0 "), max_size=2)
numbers = st.floats(min_value=0, allow_infinity=False).map(repr) | \
    st.integers(0, 10 ** 20).map(str) | \
    st.sampled_from(["0", "-0.0", "+3", ".5", "5.", "1e5", "1E-3", "2.5e-320",
                     "1.7976931348623157e308", "0001"])


@st.composite
def clean_cells(draw):
    cell = draw(padding) + draw(numbers) + draw(padding)
    return f'"{cell}"' + draw(padding) if draw(st.booleans()) else cell


# cells at least one of the readers refuses, or reads only by float()
odd_cells = st.sampled_from([
    "", " ", "-1.5", "-inf", "inf", "nan", "-nan", "Infinity", "1_0", "2_5.0_1",
    "١٢", "１", "abc", "#", "#1", "1#", "1\x1c", "\x1d2", "\x1e", "\x1f1", "0x10", "1 2",
    '1"2"', ' "1"', '"1""', '"1', '"1,2"', '"1\n"', '"1\r\n2"', '"1\n2"', "1\x00",
    '""', "1e400", "1e-400",
])
blank_lines = st.sampled_from(["", "", "   ", '""', "#", "#1,2", "\t"])
line_ends = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def tables(draw):
    """(text of one series file, the column order asked for, whether the
    table is well formed).  A well-formed table has a header, at least one
    row of ``clean_cells`` of the header's width, and empty lines."""
    names = draw(st.permutations(["a", "b", "c"]))[:draw(st.integers(1, 3))]
    header = [draw(padding) + name + draw(padding) for name in names]
    rows = [[draw(clean_cells()) for _ in names] for _ in range(draw(st.integers(1, 6)))]
    clean = True
    for _ in range(draw(st.integers(0, 2))):
        clean = False
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(names) - 1))
        damage = draw(st.sampled_from(["cell"] * 4 + ["drop", "add", "header-only"]))
        if damage == "cell":
            rows[i][j:j + 1] = [draw(odd_cells)]
        elif damage == "drop":
            rows[i] = rows[i][:-1]
        elif damage == "add":
            rows[i] = rows[i] + [draw(clean_cells())]
        else:
            rows = []
            break
    lines = [",".join(header)]
    for row in rows:
        if draw(st.integers(0, 3)) == 0:
            blank = draw(blank_lines)
            clean = clean and blank == ""
            lines.append(blank)
        lines.append(",".join(row))
    ends = draw(st.lists(line_ends, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    wanted = draw(st.none() | st.permutations(names))
    return text, wanted, clean


def outcome(read, path, wanted):
    try:
        columns, matrix = read(path, wanted)
    except DataFormatError as exc:
        return "error", str(exc)
    return "ok", columns, matrix.dtype.str, matrix.shape, matrix.tobytes()


@given(tables())
@settings(max_examples=400, deadline=None)
@example(("a\r\n1\r\n#x\r\n", None, False))
@example(("a,b\r\n1,2#\r\n", None, False))
@example(('a,b\r\n"1"," 2 "\r\n', ["b", "a"], True))
@example(("a,b\r\n1_0,2\r\n", None, False))
@example(("a,b\r\n\x1c1,2\r\n", None, False))
@example((" a , b \n", None, False))
def test_read_table_matches_reference(table):
    """Same columns and bits, or the same error; and a well-formed table
    never leaves the one-pass parse."""
    text, wanted, clean = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        path.write_bytes(text.encode())
        assert outcome(_read_table, path, wanted) == outcome(read_table_reference, path, wanted)
        with open(path, newline="") as fh:
            width = len(next(csv.reader(fh)))
            body = fh.read()
    if clean:
        assert _parse_body(body, width) is not None
