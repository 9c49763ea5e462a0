"""The package's CSV format: one writer for every table, one reader of integer rows.

Every table the package writes as CSV is a header line and then one row
per element of its columns: comma-separated, LF-terminated (the last row
too).  Floats print with '.17g', every other value with str.  The hologram
CSV (export_hologram(field, "csv")) is no table: a bare matrix, no header.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

# Rows joined at a time, which bounds the list of cell strings.
_BLOCK_ROWS = 4096
_INT64 = np.iinfo(np.int64)


Indexed = NamedTuple("Indexed", [("values", np.ndarray), ("index", np.ndarray)])


def _distinct_texts(column, end: str):
    """Texts of column's distinct values, each formatted once and followed by end, and each element's index into them.

    An integer column whose range is shorter than the column is indexed by value - min, with no sort.  Floats
    are told apart by bit pattern, so -0.0 and each NaN keep their own text.  An Indexed column is values[index],
    index flattened in C order, and only its values are formatted.
    """
    if isinstance(column, Indexed):
        texts, inverse = _distinct_texts(column.values, end)
        return texts, inverse[column.index.ravel()]
    values = np.asarray(column).ravel()
    if values.dtype.kind in "iu" and values.size and int(values.max()) - int(values.min()) < values.size:
        low = values.min()
        inverse = np.subtract(values, low, dtype=np.intp, casting="unsafe")  # exact mod 2**64, and in [0, size)
        texts = np.empty(int(inverse.max()) + 1, dtype=object)
        present = np.flatnonzero(np.bincount(inverse))
        texts[present] = [str(int(low) + v) + end for v in present.tolist()]
        return texts, inverse
    if values.dtype.kind == "f":
        distinct, inverse = np.unique(values.astype(np.float64, copy=False).view(np.uint64), return_inverse=True)
        texts = [format(v, ".17g") + end for v in distinct.view(np.float64).tolist()]
    else:
        distinct, inverse = np.unique(values, return_inverse=True)
        texts = [str(v) + end for v in distinct.tolist()]
    return np.array(texts, dtype=object), inverse


def format_table(header: str, *columns) -> str:
    """CSV text of header and the rows zip(*columns), each column (an Indexed one's index) flattened in C order."""
    fields = [_distinct_texts(column, end) for column, end in zip(columns, [","] * (len(columns) - 1) + ["\n"])]
    step, rows = len(fields), len(fields[0][1])
    parts = [header + "\n"]
    for start in range(0, rows, _BLOCK_ROWS):
        block = min(_BLOCK_ROWS, rows - start)
        cells = [""] * (step * block)
        for k, (texts, inverse) in enumerate(fields):
            cells[k::step] = texts[inverse[start : start + block]].tolist()
        parts.append("".join(cells))
    return "".join(parts)


def parse_int_rows(body: bytes, width: int):
    """The int64 rows of body before its first malformed line, and that line (None if none).

    A well-formed line is width fields '-?[0-9]+', each within int64,
    joined by ',' and ended by LF.  Empty lines at the end of body are
    ignored.
    """
    body = body.rstrip(b"\n") + b"\n"
    # Possessive quantifiers: a digit run always ends at ',' or LF, so giving digits back never helps,
    # and the match keeps no backtracking state per row (16 MB at 40,401 rows without them).
    good = re.match(rb"(?:-?[0-9]++" + rb",-?[0-9]++" * (width - 1) + rb"\n)*+", body).end()
    rows = np.fromstring(body[:good].replace(b"\n", b","), dtype=np.int64, sep=",").reshape(-1, width)
    # fromstring saturates a field beyond int64, so a row with a field at a limit is read again exactly.
    end = len(rows)
    for r in np.flatnonzero(((rows == _INT64.min) | (rows == _INT64.max)).any(axis=1)).tolist():
        if not all(_INT64.min <= int(field) <= _INT64.max for field in body.split(b"\n", r + 1)[r].split(b",")):
            end = r
            break
    if end == len(rows) and not body[good:].strip(b"\n"):
        return rows, None
    return rows[:end], body.split(b"\n", end + 1)[end].decode(errors="replace")
