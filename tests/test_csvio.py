import os

import numpy as np
import pytest

from rstokes.csvio import (
    format_value,
    read_field_csv,
    read_series_csv,
    write_csv,
    write_field_csv,
)


def test_format_value_covers_the_artifact_types():
    assert format_value("label") == "label"
    assert format_value(True) == "true"
    assert format_value(np.bool_(False)) == "false"
    assert format_value(7) == "7"
    assert format_value(np.int64(7)) == "7"
    assert format_value(0.1) == "0.10000000000000001"  # full precision


def test_float_round_trip_is_lossless():
    rng = np.random.default_rng(6)
    for x in rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50):
        assert float(format_value(x)) == x


def test_write_csv_layout(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a", "b"], [(1, 0.5), (2, 1.5)])
    text = open(path).read()
    assert text == "a,b\n1,0.5\n2,1.5\n"


def test_write_csv_is_atomic(tmp_path):
    path = str(tmp_path / "x.csv")
    write_csv(path, ["v"], [(1,)])
    before = open(path).read()

    def exploding_rows():
        yield (2,)
        raise RuntimeError("mid-write failure")

    with pytest.raises(RuntimeError):
        write_csv(path, ["v"], exploding_rows())
    # the original file survives and no temp files are left behind
    assert open(path).read() == before
    assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []


def test_field_csv_round_trip(tmp_path):
    path = str(tmp_path / "g.csv")
    lam = np.array([1.0, 4.0, 9.0])
    coeffs = np.array([0.5, 0.0, -0.25])
    write_field_csv(path, lam, coeffs)
    np.testing.assert_array_equal(read_field_csv(path, 3), coeffs)
    # reading into a bigger basis pads with zeros
    np.testing.assert_array_equal(
        read_field_csv(path, 5), np.array([0.5, 0.0, -0.25, 0.0, 0.0])
    )


def test_field_csv_validation(tmp_path):
    path = str(tmp_path / "bad.csv")
    path2 = str(tmp_path / "dup.csv")
    open(path, "w").write("index,lambda,coefficient\n4,1.0,0.5\n")
    with pytest.raises(ValueError, match="outside"):
        read_field_csv(path, 3)
    open(path2, "w").write("index,lambda,coefficient\n1,1.0,0.5\n1,1.0,0.7\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_field_csv(path2, 3)
    with pytest.raises(ValueError):
        write_field_csv(str(tmp_path / "w.csv"), np.ones(3), np.ones(4))


def test_series_csv_round_trip(tmp_path):
    path = str(tmp_path / "s.csv")
    t = np.linspace(0.0, 1.0, 9)
    v = np.sin(t)
    write_csv(path, ["t", "value"], zip(t, v))
    t2, v2 = read_series_csv(path)
    np.testing.assert_array_equal(t2, t)
    np.testing.assert_array_equal(v2, v)


def test_series_csv_requires_increasing_time(tmp_path):
    path = str(tmp_path / "s.csv")
    open(path, "w").write("t,value\n0.0,1.0\n0.0,2.0\n")
    with pytest.raises(ValueError, match="increasing"):
        read_series_csv(path)
    open(path, "w").write("t,value\n")
    with pytest.raises(ValueError, match="no data"):
        read_series_csv(path)


@pytest.mark.parametrize("row", ["nan,1.0", "0.5,nan", "0.5,inf", "-inf,1.0"])
def test_series_csv_rejects_non_finite_samples(tmp_path, row):
    path = str(tmp_path / "s.csv")
    open(path, "w").write(f"t,value\n0.25,1.0\n{row}\n1.0,2.0\n")
    with pytest.raises(ValueError, match="s.csv:3: t and value must be finite"):
        read_series_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.5,abc", "could not convert string to float: 'abc'"),
        ("x,1.0", "could not convert string to float: 'x'"),
    ],
)
def test_series_csv_parse_errors_name_path_and_line(tmp_path, row, message):
    path = str(tmp_path / "s.csv")
    open(path, "w").write(f"t,value\n0.25,1.0\n{row}\n")
    with pytest.raises(ValueError, match=f"s.csv:3: {message}"):
        read_series_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("x,1.0,0.5", "invalid literal for int"),
        ("2,1.0,abc", "could not convert string to float: 'abc'"),
    ],
)
def test_field_csv_parse_errors_name_path_and_line(tmp_path, row, message):
    path = str(tmp_path / "g.csv")
    open(path, "w").write(f"index,lambda,coefficient\n1,1.0,0.5\n{row}\n")
    with pytest.raises(ValueError, match=f"g.csv:3: {message}"):
        read_field_csv(path, 3)


@pytest.mark.parametrize("n_rows", [0, 1, 255, 256, 257, 600])
def test_float_table_blocks_match_the_row_path_byte_for_byte(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    table = rng.standard_normal((n_rows, 4)) * 10.0 ** rng.integers(-300, 300, (n_rows, 4))
    if n_rows:
        table[0] = [np.nan, np.inf, -np.inf, -0.0]
    blocks = str(tmp_path / "blocks.csv")
    rows = str(tmp_path / "rows.csv")
    write_csv(blocks, ["a", "b", "c", "d"], table)
    write_csv(rows, ["a", "b", "c", "d"], (list(r) for r in table))
    assert open(blocks, "rb").read() == open(rows, "rb").read()


def test_float_table_must_be_2d_float(tmp_path):
    path = str(tmp_path / "bad.csv")
    with pytest.raises(ValueError):
        write_csv(path, ["a"], np.arange(3))
    with pytest.raises(ValueError):
        write_csv(path, ["a"], np.ones(3))
    assert not os.path.exists(path)
