import numpy as np
import pytest

from scopesets.csvio import read_table, write_columns, write_csv
from scopesets.errors import ParameterError


def test_write_csv_uses_lf_and_leads_with_comments(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, "x,y"], [2, ""]], comments=["k=1"])
    assert path.read_bytes() == b'# k=1\na,b\n1,"x,y"\n2,\n'


def test_write_columns_writes_what_write_csv_wrote_with_format_6g(tmp_path):
    edge = [np.inf, -np.inf, -0.0, 0.0, 1e-300, 1e16, 5e-324, 1.7976931348623157e308, np.nan,
            0.1, -2.5e-7, 123456.5, 1234567.0, 999999.5, 1e-5, 1e-4]
    values = edge + np.random.default_rng(0).standard_normal(50).tolist()
    cells = [np.float64(v) for v in reversed(values)]  # numpy scalars format alike
    words = ["below", "middle", "above"] * (len(values) // 3 + 1)
    header, meta = ["index", "mean", "sd", "class"], ["alpha=0.1", "k=1.5"]
    write_columns(tmp_path / "c.csv", header, "%d,%.6g,%.6g,%s\n",
                  (range(len(values)), values, cells, words), meta)
    rows = ([i, format(float(a), ".6g"), format(float(b), ".6g"), w]
            for i, a, b, w in zip(range(len(values)), values, cells, words))
    write_csv(tmp_path / "r.csv", header, rows, meta)
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[:3] == ["# alpha=0.1", "# k=1.5", "index,mean,sd,class"]
    means = [line.split(",")[1] for line in lines[3:12]]
    assert means == ["inf", "-inf", "-0", "0", "1e-300", "1e+16", "4.94066e-324", "1.79769e+308",
                     "nan"]
    write_columns(tmp_path / "e.csv", ["index", "direction", "height"], "%d,%s,%.6g\n",
                  ([], [], []))
    assert (tmp_path / "e.csv").read_bytes() == b"index,direction,height\n"


def test_read_table_round_trips_and_skips_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "y"], [[1, "inf"], [-2.5, "1e3"]])
    path.write_bytes(path.read_bytes() + b"\n")
    header, body = read_table(path)
    assert header == ["x", "y"]
    assert body.tolist() == [[1.0, float("inf")], [-2.5, 1000.0]]


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x,y\n1,2\n\n3\n", "t.csv line 4: 1 fields, header has 2"),
        ("x,y\n1,2\n3,4,5\n", "t.csv line 3: 3 fields, header has 2"),
        ("x,y\n1,2\n3,abc\n", "t.csv line 3: could not convert string to float: 'abc'"),
        ("x,y\n1,\n", "t.csv line 2: could not convert string to float: ''"),
    ],
    ids=["short_after_blank", "long", "non_numeric", "empty_cell"],
)
def test_read_table_names_the_first_bad_line(tmp_path, text, expected):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ParameterError) as info:
        read_table(path)
    assert str(info.value) == f"{tmp_path / expected}"


def test_read_table_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"x,y\n1,\xff\n")
    with pytest.raises(ParameterError, match="t.csv"):
        read_table(path)
