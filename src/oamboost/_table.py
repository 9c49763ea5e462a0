"""The package's CSV format: one writer for every table and matrix, one reader of integer rows.

Every table the package writes as CSV is a header line and then one row per element of its columns: comma-separated,
LF-terminated (the last row too).  Floats print with '.17g', every other value with str.  The hologram CSV
(export_hologram(field, "csv")) is a bare matrix, no header.  A Table makes the text as bytes, a block at a time.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

_BLOCK_CELLS = 3 * 4096  # cells joined at a time: 4,096 rows of a three-column table
_INT64 = np.iinfo(np.int64)


Indexed = NamedTuple("Indexed", [("values", np.ndarray), ("index", np.ndarray)])


class Table:
    """A CSV of rows, width cells each: blocks() yields head, then the text of _BLOCK_CELLS cells at a time, which
    cells_of(start, stop) gives field by field (a field being one or more adjacent columns) as an object array of
    texts shaped (rows, columns).  Blocks are UTF-8, as the whole text was; len() remakes them to count their bytes."""

    def __init__(self, head: bytes, rows: int, width: int, cells_of):
        self.head, self.rows, self.step, self.cells_of = head, rows, max(1, _BLOCK_CELLS // width), cells_of

    def blocks(self) -> Iterator[bytes]:
        yield self.head
        for start in range(0, self.rows, self.step):
            yield "".join(np.concatenate(self.cells_of(start, start + self.step), axis=1).ravel().tolist()).encode()

    def __len__(self) -> int:
        return sum(map(len, self.blocks()))


def _distinct_texts(column, end: str):
    """Texts of column's distinct values, each formatted once and followed by end, and each element's index into them.

    The index has the column's shape and the least unsigned type that holds it.  An integer column whose range is
    shorter than the column is indexed by value - min, with no sort.  Floats are told apart by bit pattern, so -0.0 and
    each NaN keep their own text.  An Indexed column is values[index]; only its values are formatted."""
    if isinstance(column, Indexed):
        texts, inverse = _distinct_texts(column.values, end)
        return texts, inverse[column.index]
    values = np.asarray(column)
    if values.dtype.kind in "iu" and values.size and int(values.max()) - int(values.min()) < values.size:
        low, span = values.min(), int(values.max()) - int(values.min())
        inverse = np.subtract(values, low, dtype=np.min_scalar_type(span), casting="unsafe")  # exact mod 2**k
        present = np.zeros(span + 1, dtype=bool)
        present[inverse] = True
        texts = np.empty(span + 1, dtype=object)
        texts[present] = [str(int(low) + v) + end for v in np.flatnonzero(present).tolist()]
        return texts, inverse
    if values.dtype.kind == "f":
        distinct, inverse = np.unique(values.astype(float, copy=False).ravel().view(np.uint64), return_inverse=True)
        texts = [format(v, ".17g") + end for v in distinct.view(np.float64).tolist()]
    else:
        distinct, inverse = np.unique(values.ravel(), return_inverse=True)
        texts = [str(v) + end for v in distinct.tolist()]
    return np.array(texts, dtype=object), inverse.reshape(values.shape).astype(np.min_scalar_type(len(texts)))


def format_table(header: str, *columns) -> Table:
    """The CSV of header and the rows zip(*columns), each column (an Indexed one's index) flattened in C order."""
    fields = [_distinct_texts(column, end) for column, end in zip(columns, [","] * (len(columns) - 1) + ["\n"])]
    head, rows = (header + "\n").encode(), fields[0][1].size
    return Table(head, rows, len(fields), lambda start, stop: [t[i.reshape(-1, 1)[start:stop]] for t, i in fields])


def format_matrix(rows_of, height: int, width: int) -> Table:
    """The CSV, no header, of height x width floats, rows_of(start, stop) giving rows start..stop; a row at a time."""
    row = ",".join(["%.17g"] * width) + "\n"  # '%.17g' % v is format(v, '.17g')
    return Table(b"", height, width, lambda start, stop: [
        np.array([[row % tuple(r)] for r in rows_of(start, stop).tolist()], dtype=object)])


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
