"""The one place that reads and writes CSV tables: UTF-8 with LF line endings,
optional ``# `` comment lines, then a header row and data rows."""

from __future__ import annotations

import csv

import numpy as np

from .errors import ParameterError


def write_csv(path, header, rows, comments=()) -> None:
    """Write ``# `` comment lines, then the header and the rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def read_table(path) -> tuple[list[str], np.ndarray]:
    """The header and the rows as a (rows, len(header)) float array.

    Blank lines are skipped.  A ragged or non-numeric row raises
    ``ParameterError`` naming the file and the line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh)) or [[]]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParameterError(f"{path}: {exc}") from None
    body = [row for row in rows if row]
    try:  # numpy raises ValueError on a ragged or non-numeric body
        return header, np.array(body, dtype=float).reshape(len(body), len(header))
    except ValueError:
        pass
    # only a bad row gets here: find the first one
    for lineno, row in enumerate(rows, start=2):
        if row and len(row) != len(header):
            raise ParameterError(
                f"{path} line {lineno}: {len(row)} fields, header has {len(header)}")
        try:
            np.array(row, dtype=float)
        except ValueError as exc:
            raise ParameterError(f"{path} line {lineno}: {exc}") from None
