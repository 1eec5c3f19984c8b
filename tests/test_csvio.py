import pytest

from scopesets.csvio import read_table, write_csv
from scopesets.errors import ParameterError


def test_write_csv_uses_lf_and_leads_with_comments(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, "x,y"], [2, ""]], comments=["k=1"])
    assert path.read_bytes() == b'# k=1\na,b\n1,"x,y"\n2,\n'


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
