"""The CSV writer and the counts reader against the per-row code they replaced.

The reference functions below are the package's former writers and its
former line-by-line counts reader, kept verbatim in behaviour.  The
table writer must reproduce their bytes exactly, and the numpy reader
must return the same spectrum and name the same first bad line.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oamboost import spectrum as spectrum_module
from oamboost._table import (
    _BLOCK_CELLS,
    Indexed,
    Table,
    _distinct_texts,
    format_matrix,
    format_table,
    parse_int_rows,
)
from oamboost.cli import main
from oamboost.estimate import FitResult, batch_csv
from oamboost.relativity import frame_from_gamma
from oamboost.simulate import (
    CountSpectrum,
    NoiseModel,
    count_spectrum_sidecar,
    count_spectrum_to_csv,
    read_count_spectrum,
    sidecar_path,
)
from oamboost.spectrum import (
    JointSpectrum,
    OamWindow,
    conditional_slice,
    joint_spectrum,
    joint_spectrum_to_csv,
    measurement_sum,
    mode_count_closed,
)

INT64 = np.iinfo(np.int64)


def csv_text(table):
    """A table's blocks joined as text; its len() must be their byte count."""
    data = b"".join(table.blocks())
    assert len(table) == len(data)
    return data.decode("ascii")


def reference_joint_csv(spectrum):
    lines = ["l_a,l_b,value"]
    for i, la in enumerate(spectrum.window_a.indices()):
        for j, lb in enumerate(spectrum.window_b.indices()):
            lines.append(f"{la},{lb},{spectrum.values[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def generic_joint_csv(spectrum):
    """The joint CSV with every column on the table writer's generic path, as before values were indexed by sum."""
    grid = np.ix_(spectrum.window_a.indices(), spectrum.window_b.indices())
    return csv_text(format_table("l_a,l_b,value", *np.broadcast_arrays(*grid, spectrum.values)))


def reference_count_csv(counts):
    lines = ["l_a,l_b,count"]
    for i, la in enumerate(counts.window_a.indices()):
        for j, lb in enumerate(counts.window_b.indices()):
            lines.append(f"{la},{lb},{counts.counts[i, j]}")
    return "\n".join(lines) + "\n"


def reference_batch_csv(records):
    lines = ["seed,gamma_encoded,gamma_meas,method,residual"]
    for seed, gamma_encoded, result in records:
        lines.append(
            f"{seed},{gamma_encoded:.17g},{result.gamma_meas:.17g},{result.method},{result.residual:.17g}"
        )
    return "\n".join(lines) + "\n"


def reference_conditional_csv(window, values):
    lines = ["l_b,value"] + [f"{lb},{value:.17g}" for lb, value in zip(window.indices(), values)]
    return "\n".join(lines) + "\n"


def reference_sweep_csv(gammas):
    lines = ["gamma,omega_closed,m,eta,beta"]
    for gamma in gammas:
        frame = frame_from_gamma(gamma)
        lines.append(
            f"{gamma:.17g},{mode_count_closed(gamma):.17g},{measurement_sum(gamma):.17g},"
            f"{frame.rapidity:.17g},{frame.beta:.17g}"
        )
    return "\n".join(lines) + "\n"


def reference_read_counts(csv_path):
    """The former counts reader: one int() parse and one check per line."""
    meta = json.loads(sidecar_path(csv_path).read_text(encoding="utf-8"))
    window_a = OamWindow(*meta["windows"]["a"])
    window_b = OamWindow(*meta["windows"]["b"])
    model = NoiseModel(**meta["model"])
    counts = np.zeros((len(window_a), len(window_b)), dtype=np.int64)
    seen = np.zeros(counts.shape, dtype=bool)
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    if lines[0] != "l_a,l_b,count":
        raise ValueError(f"{csv_path}: expected header 'l_a,l_b,count', got {lines[0]!r}")
    rows, cols = counts.shape
    for lineno, line in enumerate(lines[1:], 2):
        try:
            la, lb, count = map(int, line.split(","))
        except ValueError:
            raise ValueError(f"{csv_path}:{lineno}: expected 'l_a,l_b,count' integers, got {line!r}") from None
        i, j = la - window_a.l_min, lb - window_b.l_min
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(
                f"{csv_path}:{lineno}: cell ({la}, {lb}) lies outside the windows "
                f"{meta['windows']['a']} x {meta['windows']['b']}"
            )
        if seen[i, j]:
            raise ValueError(f"{csv_path}:{lineno}: second row for cell ({la}, {lb})")
        seen[i, j] = True
        counts[i, j] = count
    if not seen.all():
        i, j = np.argwhere(~seen)[0]
        raise ValueError(
            f"{csv_path}: no row for cell ({window_a.l_min + i}, {window_b.l_min + j}); "
            f"expected {seen.size} rows, got {len(lines) - 1}"
        )
    return CountSpectrum(
        window_a=window_a,
        window_b=window_b,
        counts=counts,
        seed=int(meta["seed"]),
        model=model,
        gamma_encoded=float(meta["gamma_encoded"]),
    )


def reference_table(header, *columns):
    """Per-row formatting: '.17g' for each numpy float, str for anything else."""
    lines = [header]
    for row in zip(*(np.asarray(column).ravel() for column in columns)):
        lines.append(",".join(f"{v:.17g}" if isinstance(v, np.floating) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def matrix_table(matrix):
    """format_matrix's Table of a whole matrix, its rows sliced as they are written."""
    return format_matrix(lambda start, stop: matrix[start:stop], *matrix.shape)


def reference_format_matrix(matrix):
    """The former matrix writer: each block's cells ending in ',' deduplicated together with np.unique, those ending
    in LF apart, each distinct bit pattern formatted once."""
    return Table(b"", *matrix.shape, lambda start, stop: [texts[index] for texts, index in (
        _distinct_texts(matrix[start:stop, :-1], ","), _distinct_texts(matrix[start:stop, -1:], "\n"))])


EDGE_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3, 1.0, 123456789.0, 1e17, 1e16]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True, width=64))
int64s = st.one_of(st.sampled_from([0, -1, 1, INT64.min, INT64.max]), st.integers(INT64.min, INT64.max))


def table_column(kind, rows, rng):
    """A column of one kind: integer columns whose range is shorter than the column take the sort-free path."""
    if kind == "narrow int64":
        return rng.integers(INT64.min, INT64.max - rows, endpoint=True) + rng.integers(0, rows, rows)
    if kind == "sparse int64":
        return rng.choice([INT64.min, INT64.max, 0, -1]) + 3 * rng.integers(-rows, rows, rows, endpoint=True)
    if kind == "int8":
        return rng.integers(-128, 128, rows).astype(np.int8)  # wraps in int8 when taken as value - min
    if kind == "narrow uint64 at 2**64":
        return np.uint64(2**64 - 1) - rng.integers(0, rows, rows).astype(np.uint64)
    if kind == "wide uint64":
        return rng.integers(0, 2**64 - 1, rows, dtype=np.uint64, endpoint=True)
    if kind == "bool":
        return rng.integers(0, 2, rows).astype(bool)
    if kind == "float":
        return np.where(rng.random(rows) < 0.5, rng.choice(EDGE_FLOATS, rows), rng.normal(0.0, 1e3, rows))
    if kind == "object":
        return np.array([int(v) for v in rng.integers(0, 2**63 - 1, rows)] + [2**64 - 1], dtype=object)[-rows:]
    return rng.choice(["m_sum", "least_squares", ""], rows)


INT_KINDS = ["narrow int64", "sparse int64", "int8"]
COLUMN_KINDS = INT_KINDS + ["narrow uint64 at 2**64", "wide uint64", "bool", "float", "object", "str"]
# a block holds _BLOCK_CELLS // columns rows: the row counts on either side of a block end for 1 to 4 columns
BLOCK_ENDS = [_BLOCK_CELLS // columns + d for columns in (1, 2, 3, 4) for d in (0, 1)]
table_rows = st.one_of(st.integers(1, 30), st.sampled_from([200, 300, *BLOCK_ENDS]))


class TestFormatTable:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(floats, int64s, floats), max_size=60))
    @example([(-0.0, 0, 0.0), (0.0, -1, -0.0), (math.nan, 5, -math.nan), (math.inf, 5, -math.inf)])
    def test_bytes_equal_per_row_reference(self, rows):
        a = np.array([r[0] for r in rows], dtype=float)
        k = np.array([r[1] for r in rows], dtype=np.int64)
        b = np.array([r[2] for r in rows], dtype=float)
        assert csv_text(format_table("a,k,b", a, k, b)) == reference_table("a,k,b", a, k, b)

    def test_nan_payloads_and_signed_zero_keep_their_text(self):
        bits = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x8000000000000000, 0, 1], dtype=np.uint64)
        values = bits.view(np.float64)
        assert csv_text(format_table("v", values)) == reference_table("v", values)
        assert csv_text(format_table("v", values)).splitlines()[3:] == ["-0", "0", "4.9406564584124654e-324"]

    def test_blocks_join_seamlessly(self):
        rows = 3 * 4096 + 17
        values = np.random.default_rng(5).integers(-50, 50, rows)
        text = csv_text(format_table("i,v,w", np.arange(rows), values, values / 7.0))
        assert text == reference_table("i,v,w", np.arange(rows), values, values / 7.0)

    def test_empty_columns_give_the_header_only(self):
        assert csv_text(format_table("a,b", [], [])) == "a,b\n"

    def test_unsigned_object_and_text_columns(self):
        seeds = np.array([0, 2**63, 2**64 - 1], dtype=object)
        big = np.array([2**63, 2**64 - 1, 2**63], dtype=np.uint64)
        text = csv_text(format_table("seed,u,method", seeds, big, ["m_sum", "least_squares", "m_sum"]))
        assert text == reference_table("seed,u,method", seeds, big, ["m_sum", "least_squares", "m_sum"])


    @settings(max_examples=80, deadline=None)
    @given(rows=table_rows, kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    @example(rows=1, kinds=["narrow int64", "wide uint64", "bool", "str"], seed=0)
    @example(rows=_BLOCK_CELLS // 4 + 1, kinds=["int8", "narrow uint64 at 2**64", "float", "object"], seed=1)
    def test_mixed_columns_equal_per_row_reference(self, rows, kinds, seed):
        rng = np.random.default_rng(seed)
        columns = [table_column(kind, rows, rng) for kind in kinds]
        header = ",".join(f"c{k}" for k in range(len(columns)))
        assert csv_text(format_table(header, *columns)) == reference_table(header, *columns)

    def test_narrow_integer_columns_need_no_sort(self, monkeypatch):
        l_a, l_b = np.broadcast_arrays(np.arange(-20, 21)[:, None], np.arange(-20, 21))
        wrapped = np.array([-128, 127, 0] * 100, dtype=np.int8)
        top = np.array([2**64 - 1, 2**64 - 300] * 150, dtype=np.uint64)
        expected = [reference_table("l_a,l_b", l_a, l_b), reference_table("w,t", wrapped, top)]

        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique was called")

        monkeypatch.setattr(np, "unique", no_sort)
        assert [csv_text(format_table("l_a,l_b", l_a, l_b)), csv_text(format_table("w,t", wrapped, top))] == expected

    def test_indexed_column_prints_its_gathered_values(self):
        values, index = np.array([0.5, -0.0, math.nan, 0.0, 0.5]), np.random.default_rng(9).integers(0, 5, (7, 9))
        expected = reference_table("k,v", np.arange(63), values[index])
        assert csv_text(format_table("k,v", np.arange(63), Indexed(values, index))) == expected

    @settings(max_examples=80, deadline=None)
    @given(rows=table_rows, kinds=st.lists(st.sampled_from(INT_KINDS), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_int_columns_parse_back(self, rows, kinds, seed):
        rng = np.random.default_rng(seed)
        columns = [table_column(kind, rows, rng).astype(np.int64) for kind in kinds]
        body = b"".join(format_table("h", *columns).blocks()).split(b"\n", 1)[1]
        parsed, malformed = parse_int_rows(body, len(columns))
        assert malformed is None and parsed.dtype == np.int64
        assert parsed.tobytes() == np.column_stack(columns).tobytes()


class TestFormatMatrix:
    @settings(max_examples=60, deadline=None)
    @given(width=st.one_of(st.integers(1, 3), st.sampled_from([4, 97, 4096, 4097])), data=st.data())
    @example(width=1, data=None)
    def test_bytes_equal_the_former_per_block_writer(self, width, data):
        # heights across the block seams; cells repeat within and across blocks, and -0.0, NaN payloads, infinities
        # and subnormals each keep their own text
        rows = max(1, _BLOCK_CELLS // width)
        height = data.draw(st.sampled_from([0, 1, rows - 1, rows, rows + 1, 2 * rows + 1])) if data else rows + 1
        rng = np.random.default_rng(width * 100_003 + height)
        payloads = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x000FFFFFFFFFFFFF], dtype=np.uint64)
        edges = np.append(EDGE_FLOATS, payloads.view(np.float64))
        repeats = rng.standard_normal(20) * 10.0 ** rng.integers(-20, 20, 20)
        matrix = np.where(rng.random((height, width)) < 0.4, rng.choice(edges, (height, width)),
                          rng.choice(repeats, (height, width)))
        matrix[rng.random((height, width)) < 0.3] = rng.random() * 7.0
        blocks, expected = list(matrix_table(matrix).blocks()), list(reference_format_matrix(matrix).blocks())
        assert blocks == expected and len(blocks) == 1 + -(-height // rows)
        assert b"".join(blocks) == b"".join(
            (",".join(f"{v:.17g}" for v in row) + "\n").encode() for row in matrix.tolist())

    def test_cells_need_no_sort(self, monkeypatch):
        matrix = np.array([[-0.0, math.nan, math.inf], [5e-324, -math.inf, 0.0]])
        expected = b"".join(reference_format_matrix(matrix).blocks())

        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique was called")

        monkeypatch.setattr(np, "unique", no_sort)
        assert b"".join(matrix_table(matrix).blocks()) == expected == b"-0,nan,inf\n4.9406564584124654e-324,-inf,0\n"


class TestWritersMatchReferences:
    @pytest.mark.parametrize(
        ("gamma", "window_a", "window_b", "n_modes"),
        [
            (1.0, OamWindow(-3, 3), OamWindow(-3, 3), 1),
            (3.0, OamWindow(-20, 20), OamWindow(-20, 20), 2),
            (12.7, OamWindow(-5, 9), OamWindow(2, 40), 3),
            (1e6, OamWindow(0, 0), OamWindow(-7, 7), 1),
        ],
    )
    def test_joint_spectrum_csv(self, gamma, window_a, window_b, n_modes):
        spec = joint_spectrum(gamma, window_a, window_b, n_modes)
        assert csv_text(joint_spectrum_to_csv(spec)) == reference_joint_csv(spec)

    def test_count_spectrum_csv(self):
        rng = np.random.default_rng(3)
        windows = (OamWindow(-4, 6), OamWindow(-30, 1))
        values = rng.integers(0, 10**6, (11, 32))
        values[0, :3] = [0, INT64.max, 10**18]
        counts = CountSpectrum(*windows, counts=values, seed=2**64 - 1, model=NoiseModel(), gamma_encoded=4.0)
        assert csv_text(count_spectrum_to_csv(counts)) == reference_count_csv(counts)

    def test_batch_csv(self):
        def fit(gamma, method, residual):
            return FitResult(gamma, method, residual, 0.0, 0.0, 0, OamWindow(-5, 5))

        records = [
            (7, 2.0, fit(2.0000001, "m_sum", 0.0)),
            (2**63, 5, fit(4.99, "least_squares", 1e-300)),
            (2**64 - 1, 20.5, fit(50.0, "least_squares", -0.0)),
        ]
        seeds, gammas, results = zip(*records)
        columns = seeds, gammas, [r.gamma_meas for r in results], [r.method for r in results], [r.residual for r in results]
        assert csv_text(batch_csv(*columns)) == reference_batch_csv(records)
        arrays = (np.array(seeds, dtype=object), *(np.array(column) for column in columns[1:]))
        assert csv_text(batch_csv(*arrays)) == reference_batch_csv(records)
        assert csv_text(batch_csv([], [], [], [], [])) == reference_batch_csv([])

    def test_conditional_and_sweep_csv(self, tmp_path):
        window = OamWindow.symmetric(6)
        assert main(["spectrum", "--gamma", "2.5", "--half-width", "6", "--out", str(tmp_path)]) == 0
        expected = reference_conditional_csv(window, conditional_slice(0, window, 2.5).values)
        assert (tmp_path / "conditional_g2.5_la0.csv").read_text() == expected
        gammas = [1.0, 1.5, 7.25, 1e6]
        assert main(["sweep", "--gamma", ",".join(map(repr, gammas)), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "sweep.csv").read_text() == reference_sweep_csv(gammas)


@st.composite
def oam_windows(draw):
    low = draw(st.integers(-40, 40))
    return OamWindow(low, low + draw(st.one_of(st.just(0), st.integers(0, 60))))


def value_columns(monkeypatch):
    """Spy on joint_spectrum_to_csv: the type of each value column it hands the table writer."""
    seen, write = [], spectrum_module.format_table

    def spy(header, *columns):
        seen.append(type(columns[-1]))
        return write(header, *columns)

    monkeypatch.setattr(spectrum_module, "format_table", spy)
    return seen


class TestJointCsvIndexedBySum:
    @settings(max_examples=120, deadline=None)
    @given(window_a=oam_windows(), window_b=oam_windows(), gamma=st.one_of(st.just(1.0), st.floats(1.0, 1e6)),
           n_modes=st.integers(1, 7))
    @example(window_a=OamWindow(3, 3), window_b=OamWindow(-20, 11), gamma=2.0, n_modes=1)  # 1 x N
    @example(window_a=OamWindow(-20, 11), window_b=OamWindow(-4, -4), gamma=2.0, n_modes=3)  # N x 1
    @example(window_a=OamWindow(0, 0), window_b=OamWindow(0, 0), gamma=1.0, n_modes=1)
    @example(window_a=OamWindow(-5, 9), window_b=OamWindow(2, 40), gamma=1.0, n_modes=2)  # the delta spectrum
    def test_bytes_equal_generic_path(self, window_a, window_b, gamma, n_modes):
        spec = joint_spectrum(gamma, window_a, window_b, n_modes)
        assert csv_text(joint_spectrum_to_csv(spec)) == generic_joint_csv(spec)

    def test_joint_spectrum_takes_the_indexed_path(self, monkeypatch):
        seen = value_columns(monkeypatch)
        spec = joint_spectrum(7.0, OamWindow.symmetric(200), OamWindow.symmetric(200))
        assert csv_text(joint_spectrum_to_csv(spec)) == generic_joint_csv(spec)
        assert seen == [Indexed]

    @pytest.mark.parametrize("case", ["not by sum", "signed zeros", "nan"])
    def test_other_matrices_take_the_generic_path(self, monkeypatch, case):
        windows = OamWindow(-4, 5), OamWindow(-6, 2)
        values = joint_spectrum(3.0, *windows).values.copy()
        if case == "not by sum":
            values *= np.arange(1, 11)[:, None]
        elif case == "signed zeros":
            values[0, 1] = -0.0  # l_a + l_b = -9, beside the 0.0 at (1, 0) on the same anti-diagonal
        else:
            values[3, 3] = math.nan
        spec = JointSpectrum(*windows, values=values, n_modes=1, gamma=3.0)
        seen = value_columns(monkeypatch)
        assert csv_text(joint_spectrum_to_csv(spec)) == generic_joint_csv(spec) == reference_joint_csv(spec)
        assert seen == [np.ndarray]


def write_counts_files(tmp_path, counts, body_lines=None):
    """Counts CSV and sidecar of counts; body_lines replaces the data rows when given."""
    csv_file = tmp_path / "counts.csv"
    lines = csv_text(count_spectrum_to_csv(counts)).splitlines()
    body = lines[1:] if body_lines is None else body_lines
    csv_file.write_text("\n".join([lines[0]] + body) + "\n", encoding="utf-8")
    sidecar_path(csv_file).write_text(json.dumps(count_spectrum_sidecar(counts)), encoding="utf-8")
    return csv_file


@st.composite
def count_spectra(draw):
    l_min_a, l_min_b = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    window_a = OamWindow(l_min_a, l_min_a + draw(st.integers(0, 5)))
    window_b = OamWindow(l_min_b, l_min_b + draw(st.integers(0, 7)))
    cells = len(window_a) * len(window_b)
    values = draw(st.lists(st.one_of(st.just(INT64.max), st.integers(0, INT64.max)), min_size=cells, max_size=cells))
    model = NoiseModel(draw(st.floats(1.0, 1e6)), draw(st.floats(0.0, 10.0)), draw(st.floats(0.1, 10.0)))
    return CountSpectrum(
        window_a,
        window_b,
        np.array(values, dtype=np.int64).reshape(len(window_a), len(window_b)),
        draw(st.integers(0, 2**64 - 1)),
        model,
        draw(st.floats(1.0, 1e6)),
    )


class TestCountsReader:
    @settings(max_examples=100, deadline=None)
    @given(counts=count_spectra(), data=st.data())
    def test_round_trip_in_any_row_order(self, tmp_path_factory, counts, data):
        tmp_path = tmp_path_factory.mktemp("rt")
        rows = csv_text(count_spectrum_to_csv(counts)).splitlines()[1:]
        order = data.draw(st.permutations(range(len(rows))))
        back = read_count_spectrum(write_counts_files(tmp_path, counts, [rows[k] for k in order]))
        np.testing.assert_array_equal(back.counts, counts.counts)
        assert (back.window_a, back.window_b, back.seed, back.model, back.gamma_encoded) == (
            counts.window_a, counts.window_b, counts.seed, counts.model, counts.gamma_encoded
        )

    def test_single_cell(self, tmp_path):
        counts = CountSpectrum(OamWindow(3, 3), OamWindow(-2, -2), [[9]], 0, NoiseModel(), 1.0)
        back = read_count_spectrum(write_counts_files(tmp_path, counts))
        assert back.counts.tolist() == [[9]]
        assert (back.window_a, back.window_b) == (counts.window_a, counts.window_b)

    def test_line_end_variants(self, tmp_path):
        counts = CountSpectrum(OamWindow(0, 1), OamWindow(0, 1), [[1, 2], [3, 4]], 0, NoiseModel(), 1.0)
        csv_file = write_counts_files(tmp_path, counts)
        text = csv_file.read_text()
        variants = (text.rstrip("\n"), text + "\n\n", text.replace("\n", "\r\n"), text.replace("\n", "\r"),
                    "\n \r\n" + text + " \n\t")
        for variant in variants:
            csv_file.write_bytes(variant.encode())
            assert read_count_spectrum(csv_file).counts.tolist() == [[1, 2], [3, 4]]

    GRID = CountSpectrum(OamWindow(-1, 1), OamWindow(0, 2), np.arange(9).reshape(3, 3), 5, NoiseModel(), 2.0)
    # Lines the former reader also rejected, so both must name the same first bad line.
    BAD_LINES = ["x", "", "1,2", "0,0,0,0", "5,0,1", "0,-9,1", "-1,0,0", "1,1,1", "1,2,3.5", "1,,2", "--1,0,0"]

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        around=st.sampled_from([("", ""), ("\n\n", ""), ("\r\n \n", " \r\n\n"), ("", "\t")]),
    )
    def test_same_first_error_as_former_reader(self, tmp_path_factory, data, newline, around):
        rows = csv_text(count_spectrum_to_csv(self.GRID)).splitlines()[1:]
        body = data.draw(st.lists(st.one_of(st.sampled_from(rows), st.sampled_from(self.BAD_LINES)), max_size=12))
        csv_file = write_counts_files(tmp_path_factory.mktemp("bad"), self.GRID, body)
        lines = csv_file.read_text().splitlines()
        csv_file.write_bytes((around[0] + newline.join(lines) + newline + around[1]).encode())
        try:
            expected = reference_read_counts(csv_file)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                read_count_spectrum(csv_file)
            assert str(caught.value) == str(exc)
        else:
            np.testing.assert_array_equal(read_count_spectrum(csv_file).counts, expected.counts)

    ROW_PIECES = ["0", "7", "12", "-", ",", "\n", " ", "+", "_", "x", "\r", "1,2,3\n",
                  str(INT64.max), str(INT64.min), str(INT64.max + 1), str(INT64.min - 1), "99999999999999999999"]

    @staticmethod
    def reference_int_rows(body, width):
        """Rows of body up to its first line that is not width plain int64 fields, and that line."""
        rows = []
        for line in body.rstrip("\n").split("\n") if body.strip("\n") else []:
            fields = line.split(",")
            if len(fields) != width or not all(
                re.fullmatch(r"-?[0-9]+", f) and INT64.min <= int(f) <= INT64.max for f in fields
            ):
                return rows, line
            rows.append([int(f) for f in fields])
        return rows, None

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(ROW_PIECES), max_size=16), st.integers(1, 4))
    def test_rows_follow_the_line_grammar(self, parts, width):
        body = "".join(parts)
        rows, malformed = parse_int_rows(body.encode(), width)
        assert (rows.tolist(), malformed) == self.reference_int_rows(body, width)

    def test_parse_int_rows_stops_at_the_first_malformed_line(self):
        rows, malformed = parse_int_rows(b"1,2\n-3,40\n7_0,1\n5,6\n", 2)
        assert rows.tolist() == [[1, 2], [-3, 40]]
        assert malformed == "7_0,1"
        rows, malformed = parse_int_rows(b"8\n-9\n\n\n", 1)
        assert (rows.tolist(), malformed) == ([[8], [-9]], None)
        body = "".join(f"{k % 7 - 3},{k},{k * 1000003}\n" for k in range(5000)).encode()
        rows, malformed = parse_int_rows(body + b"1,2, 3\n4,5,6\n", 3)
        assert (len(rows), malformed) == (5000, "1,2, 3")

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("", r"counts\.csv: expected header 'l_a,l_b,count', got ''"),
            ("\n", r"counts\.csv: expected header 'l_a,l_b,count', got ''"),
            ("l_a;l_b;count\n", r"expected header 'l_a,l_b,count', got 'l_a;l_b;count'"),
        ],
    )
    def test_empty_or_foreign_header(self, tmp_path, text, message):
        csv_file = write_counts_files(tmp_path, self.GRID)
        csv_file.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_count_spectrum(csv_file)

    def test_fields_beyond_int64_are_malformed(self, tmp_path):
        rows = csv_text(count_spectrum_to_csv(self.GRID)).splitlines()[1:]
        for line in (f"0,1,{INT64.max + 1}", "0,1,99999999999999999999", f"{INT64.min - 1},1,2"):
            body = rows[:4] + [line] + rows[5:]
            csv_file = write_counts_files(tmp_path, self.GRID, body)
            pattern = re.escape(f":6: expected 'l_a,l_b,count' integers, got '{line}'")
            with pytest.raises(ValueError, match=pattern):
                read_count_spectrum(csv_file)
        body = rows[:4] + [f"0,1,{INT64.max}"] + rows[5:]
        assert read_count_spectrum(write_counts_files(tmp_path, self.GRID, body)).counts[1, 1] == INT64.max
        body = rows[:4] + [f"{INT64.min},1,2"] + rows[5:]
        with pytest.raises(ValueError, match=re.escape(f":6: cell ({INT64.min}, 1) lies outside the windows")):
            read_count_spectrum(write_counts_files(tmp_path, self.GRID, body))
