import numpy as np
import pytest

from storagg import (TimeHorizonData, DataFormatError, load_horizon,
                     save_horizon, normalize_series)

from storagg.timeseries import _read_table

from conftest import make_data


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    data = TimeHorizonData(
        nodes=["n1", "n2"], storage_ids=["h1"],
        demand=rng.random((48, 2)), renewable_avail=rng.random((48, 2)),
        inflows=rng.random((48, 1)))
    save_horizon(data, tmp_path)
    back = load_horizon(tmp_path / "demand.csv", tmp_path / "renewables.csv",
                        tmp_path / "inflows.csv")
    assert back.nodes == ["n1", "n2"]
    assert back.storage_ids == ["h1"]
    # repr-formatted cells survive the round trip bit-exactly
    assert np.array_equal(back.demand, data.demand)
    assert np.array_equal(back.inflows, data.inflows)


def test_column_reorder_to_schema(tmp_path):
    write_csv(tmp_path / "d.csv", ["b", "a"], [[1.0, 2.0]] * 24)
    write_csv(tmp_path / "r.csv", ["a", "b"], [[0.0, 0.0]] * 24)
    write_csv(tmp_path / "i.csv", ["s"], [[0.5]] * 24)
    data = load_horizon(tmp_path / "d.csv", tmp_path / "r.csv", tmp_path / "i.csv",
                        nodes=["a", "b"], storage_ids=["s"])
    assert data.nodes == ["a", "b"]
    assert data.demand[0, 0] == 2.0 and data.demand[0, 1] == 1.0


def test_missing_column_is_located(tmp_path):
    write_csv(tmp_path / "d.csv", ["a"], [[1.0]] * 24)
    write_csv(tmp_path / "r.csv", ["a"], [[0.0]] * 24)
    write_csv(tmp_path / "i.csv", ["s"], [[0.0]] * 24)
    with pytest.raises(DataFormatError, match=r"missing column\(s\) \['b'\]"):
        load_horizon(tmp_path / "d.csv", tmp_path / "r.csv", tmp_path / "i.csv",
                     nodes=["a", "b"], storage_ids=["s"])


def test_bad_cell_is_located(tmp_path):
    rows = [[1.0]] * 24
    rows[4] = ["oops"]
    write_csv(tmp_path / "d.csv", ["a"], rows)
    write_csv(tmp_path / "r.csv", ["a"], [[0.0]] * 24)
    write_csv(tmp_path / "i.csv", ["s"], [[0.0]] * 24)
    with pytest.raises(DataFormatError, match="data row 5, column 'a'"):
        load_horizon(tmp_path / "d.csv", tmp_path / "r.csv", tmp_path / "i.csv")


def test_negative_value_rejected(tmp_path):
    rows = [[1.0]] * 24
    rows[7] = [-0.5]
    write_csv(tmp_path / "d.csv", ["a"], rows)
    write_csv(tmp_path / "r.csv", ["a"], [[0.0]] * 24)
    write_csv(tmp_path / "i.csv", ["s"], [[0.0]] * 24)
    with pytest.raises(DataFormatError, match="negative value at data row 8"):
        load_horizon(tmp_path / "d.csv", tmp_path / "r.csv", tmp_path / "i.csv")


def test_repeated_column_rejected(tmp_path):
    """A header naming a column twice is refused, not read from its first
    copy, whether or not the column is asked for."""
    (tmp_path / "d.csv").write_text("a,a\n1.0,2.0\n")
    for nodes in (["a"], None):
        with pytest.raises(DataFormatError, match=r"d\.csv: column 'a' appears more than once"):
            _read_table(tmp_path / "d.csv", nodes)
    (tmp_path / "d.csv").write_text("a, b ,b\n1.0,2.0,3.0\n")
    with pytest.raises(DataFormatError, match="column 'b' appears more than once"):
        _read_table(tmp_path / "d.csv", ["a"])


def test_series_that_is_not_utf8_is_located(tmp_path, capsys):
    """A series file is read as UTF-8 whatever the locale: a 0xff byte in
    its header is a DataFormatError naming the file, and at ``ingest`` an
    input error (exit 2), not a UnicodeDecodeError traceback."""
    from storagg import emit_scenario_template
    from storagg.cli import main
    (tmp_path / "d.csv").write_bytes(b"\xffa\n1.0\n")
    write_csv(tmp_path / "r.csv", ["a"], [[0.0]])
    write_csv(tmp_path / "i.csv", ["s"], [[0.0]])
    with pytest.raises(DataFormatError, match=r"d\.csv: not UTF-8 text: .* byte 0xff"):
        load_horizon(tmp_path / "d.csv", tmp_path / "r.csv", tmp_path / "i.csv")
    scenario = emit_scenario_template(tmp_path / "scen", days=1)
    demand = tmp_path / "scen" / "demand.csv"
    demand.write_bytes(b"\xff" + demand.read_bytes())
    assert main(["ingest", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert f"{demand}: not UTF-8 text" in err and "Traceback" not in err


def test_ragged_row_rejected(tmp_path):
    (tmp_path / "d.csv").write_text("a,b\n1.0,2.0\n1.0\n")
    write_csv(tmp_path / "r.csv", ["a", "b"], [[0.0, 0.0]] * 2)
    write_csv(tmp_path / "i.csv", ["s"], [[0.0]] * 2)
    with pytest.raises(DataFormatError, match="data row 2 has 1 fields"):
        load_horizon(tmp_path / "d.csv", tmp_path / "r.csv", tmp_path / "i.csv")


def test_mismatched_hour_counts(tmp_path):
    write_csv(tmp_path / "d.csv", ["a"], [[1.0]] * 24)
    write_csv(tmp_path / "r.csv", ["a"], [[0.0]] * 25)
    write_csv(tmp_path / "i.csv", ["s"], [[0.0]] * 24)
    with pytest.raises(DataFormatError, match="25 hours but demand covers 24"):
        load_horizon(tmp_path / "d.csv", tmp_path / "r.csv", tmp_path / "i.csv")


def test_validate_requires_whole_days():
    data = make_data(np.ones(30))
    with pytest.raises(DataFormatError, match="multiple of 24"):
        data.validate()


def test_shape_mismatch_at_construction():
    with pytest.raises(DataFormatError):
        TimeHorizonData(nodes=["a", "b"], storage_ids=[],
                        demand=np.ones((24, 1)),
                        renewable_avail=np.ones((24, 2)),
                        inflows=np.zeros((24, 0)))


def test_normalization_bounds_and_inverse():
    rng = np.random.default_rng(11)
    data = TimeHorizonData(
        nodes=["a"], storage_ids=["s"],
        demand=5 + 3 * rng.random((48, 1)),
        renewable_avail=rng.random((48, 1)),
        inflows=2 * rng.random((48, 1)))
    feats = normalize_series(data)
    assert feats.matrix.min() >= 0.0 and feats.matrix.max() <= 1.0
    # every column actually reaches both ends of [0, 1]
    assert np.allclose(feats.matrix.min(axis=0), 0.0)
    assert np.allclose(feats.matrix.max(axis=0), 1.0)
    raw = np.hstack([data.demand, data.renewable_avail, data.inflows])
    assert np.allclose(feats.denormalize(feats.matrix), raw)


def test_constant_series_normalizes_to_zero():
    data = make_data(np.full(24, 3.0), np.zeros(24))
    feats = normalize_series(data)
    assert np.all(feats.matrix == 0.0)
    assert feats.scales[0] == 0.0
    # and de-normalization recovers the constant
    assert np.allclose(feats.denormalize(feats.matrix)[:, 0], 3.0)


def test_split_physical_blocks():
    rng = np.random.default_rng(5)
    data = TimeHorizonData(
        nodes=["a", "b"], storage_ids=["s"],
        demand=rng.random((24, 2)), renewable_avail=rng.random((24, 2)),
        inflows=rng.random((24, 1)))
    feats = normalize_series(data)
    d, r, i = feats.split_physical(feats.matrix)
    assert np.allclose(d, data.demand)
    assert np.allclose(r, data.renewable_avail)
    assert np.allclose(i, data.inflows)
