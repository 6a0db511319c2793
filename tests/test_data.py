import csv
import hashlib
import io
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regrobust.data as data_mod
from regrobust.data import (
    NA_MARKERS,
    TEST,
    TRAIN,
    VAL,
    Dataset,
    Neighbors,
    Normalizer,
    apply_normalizer,
    compute_neighbors,
    fit_normalizer,
    load_csv,
    load_dataset_cache,
    nearest_train_distance,
    normalize_dataset,
    save_dataset_cache,
    split_dataset,
)
from regrobust.errors import ConfigError, DataError, DimensionError, NonFiniteError

from conftest import BOSTON_CSV


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadCsv:
    def test_small_fixture(self, tmp_path):
        p = write(tmp_path, "a,b,target\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(p, target_column="target", name="tiny")
        assert ds.n_rows == 3 and ds.n_features == 2
        assert np.array_equal(ds.features, [[1.0, 2.0], [4.0, 5.0], [7.0, 8.0]])
        assert np.array_equal(ds.targets, [3.0, 6.0, 9.0])
        assert ds.feature_names == ("a", "b")
        assert ds.split is None

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        p = write(tmp_path, "a,target\n1,2\nbogus,4\n")
        with pytest.raises(DataError, match=r"line 3.*'a'.*bogus"):
            load_csv(p, target_column="target")

    def test_line_numbers_count_physical_lines(self, tmp_path):
        # The quoted newline makes the first record span lines 2 and 3.
        p = write(tmp_path, 'a,target\n"1\n",2\n3,4\n5,bogus\n')
        with pytest.raises(DataError, match=r"line 5, column 'target': cannot parse 'bogus'"):
            load_csv(p, target_column="target")

    def test_missing_target_column(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="target"):
            load_csv(p, target_column="y")

    @pytest.mark.parametrize("header,features,targets", [
        ("y,a,b", [[2.0, 3.0], [5.0, 6.0]], [1.0, 4.0]),
        ("a,b,y", [[1.0, 2.0], [4.0, 5.0]], [3.0, 6.0]),
    ])
    def test_utf8_byte_order_mark_is_dropped(self, tmp_path, header, features, targets):
        # Spreadsheet "CSV UTF-8" exports start with U+FEFF.
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + f"{header}\n1,2,3\n4,5,6\n".encode())
        ds = load_csv(p, target_column="y")
        assert ds.feature_names == ("a", "b")
        assert np.array_equal(ds.features, features) and np.array_equal(ds.targets, targets)

    @pytest.mark.parametrize("line", [b"caf\xe9,3\n", b"1,2\n" * 300 + b"4\xe9,5\n"],
                             ids=["first-chunk", "late-chunk"])
    def test_not_utf8_names_the_file(self, tmp_path, line):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"a,y\n1,2\n" + line)
        with pytest.raises(DataError, match=r"latin1\.csv is not UTF-8 text"):
            load_csv(p, target_column="y")

    @pytest.mark.parametrize("header,message", [
        ("y,a,y", "header name 'y' is repeated; columns are ['y', 'a', 'y']"),
        ("a, y ,y", "header name 'y' is repeated; columns are ['a', 'y', 'y']"),
        ("a,,y", "header name '' is empty; columns are ['a', '', 'y']"),
        ("a, ,y", "header name '' is empty; columns are ['a', '', 'y']"),
    ])
    def test_header_names_are_unique_and_non_empty(self, tmp_path, header, message):
        p = write(tmp_path, f"{header}\n1,2,1\n3,4,3\n")
        with pytest.raises(DataError, match=re.escape(message)):
            load_csv(p, target_column="y")

    @pytest.mark.parametrize("missing", ["error", "drop_rows", "drop_columns"])
    def test_target_only_file_has_no_feature_columns(self, tmp_path, missing):
        # Checked before the missing-value policy, which reads a missing cell first.
        p = write(tmp_path, "y\n1\nNA\n3\n")
        with pytest.raises(DataError, match=re.escape(
                "d.csv: no feature columns; the only column is the target 'y'")):
            load_csv(p, target_column="y", missing=missing)

    def test_missing_value_default_policy_errors(self, tmp_path):
        p = write(tmp_path, "a,target\n1,2\nNA,4\n")
        with pytest.raises(DataError, match=r"line\(s\) \[3\]"):
            load_csv(p, target_column="target")

    def test_missing_value_drop_rows(self, tmp_path):
        p = write(tmp_path, "a,b,target\n1,2,3\n?,5,6\n7,,9\n10,11,12\n")
        ds = load_csv(p, target_column="target", missing="drop_rows")
        assert ds.n_rows == 2
        assert np.array_equal(ds.targets, [3.0, 12.0])

    def test_missing_value_drop_columns(self, tmp_path):
        p = write(tmp_path, "a,b,target\n1,2,3\nna,5,6\n7,8,9\n")
        ds = load_csv(p, target_column="target", missing="drop_columns")
        assert ds.feature_names == ("b",)
        assert np.array_equal(ds.features, [[2.0], [5.0], [8.0]])
        assert ds.n_rows == 3

    def test_drop_columns_still_drops_missing_targets(self, tmp_path):
        p = write(tmp_path, "a,target\n1,2\n3,NA\n5,6\n")
        ds = load_csv(p, target_column="target", missing="drop_columns")
        assert np.array_equal(ds.targets, [2.0, 6.0])

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_csv(write(tmp_path, ""), target_column="y")

    def test_all_rows_dropped(self, tmp_path):
        p = write(tmp_path, "a,target\nNA,1\n")
        with pytest.raises(DataError, match="no usable rows"):
            load_csv(p, target_column="target", missing="drop_rows")

    def test_nonexistent_path(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv", target_column="y")

    def test_ragged_row_rejected(self, tmp_path):
        p = write(tmp_path, "a,b,target\n1,2,3\n4,5\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(p, target_column="target")

    def test_bounded_flag_validated(self, tmp_path):
        p = write(tmp_path, "a,target\n1,0.5\n2,3.0\n")
        with pytest.raises(DataError, match="target_bounded_01"):
            load_csv(p, target_column="target", target_bounded_01=True)

    def test_boston_shape(self):
        ds = load_csv(BOSTON_CSV, target_column="MEDV", name="boston")
        assert ds.n_rows == 506 and ds.n_features == 13
        assert ds.targets.min() == 5.0 and ds.targets.max() == 50.0
        assert ds.feature_names[0] == "CRIM"

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e400", "-1e309"])
    def test_infinite_cell_names_line_and_column(self, tmp_path, cell):
        p = write(tmp_path, f"a,b,target\n1,2,3\n4,5,6\n7,{cell},9\n")
        with pytest.raises(DataError, match=rf"line 4, column 'b': '{cell}' is not a finite"):
            load_csv(p, target_column="target")

    @pytest.mark.parametrize("missing", ["drop_rows", "drop_columns"])
    def test_infinite_target_rejected_under_any_policy(self, tmp_path, missing):
        p = write(tmp_path, "a,target\n1,2\nNA,3\n5,inf\n")
        with pytest.raises(DataError, match=r"line 4, column 'target': 'inf'"):
            load_csv(p, target_column="target", missing=missing)


def reference_cell(cell: str):
    """What the per-cell parse makes of one cell: its float, or the start of its error."""
    cell = cell.strip()
    if cell.lower() in NA_MARKERS:
        return "missing values on line"
    try:
        v = float(cell)
    except ValueError:
        return "line 3, column 'a': cannot parse"
    if math.isnan(v):
        return "missing values on line"
    return v if math.isfinite(v) else "line 3, column 'a':"


# Cells as written in the file: the quoted ones reach the parser unquoted.
CSV_CELLS = [" 1.5 ", "+1", "-0", "1_000", "1e400", ".5", "\u0661\u0662\u0663", "", "0x10",
             '"1,5"', '"2.5"', "nan", "-inf", "5e-324", "1e308", "NA", "bogus"]


@pytest.mark.parametrize("raw", CSV_CELLS, ids=repr)
def test_load_csv_matches_per_cell_float(tmp_path, raw):
    p = tmp_path / "d.csv"
    p.write_text(f"a,target\n0.25,1\n{raw},2\n-3.5,3\n", encoding="utf-8")
    want = reference_cell((next(csv.reader([raw])) or [""])[0])
    if isinstance(want, str):
        with pytest.raises(DataError, match=re.escape(want)):
            load_csv(p, target_column="target")
        return
    ds = load_csv(p, target_column="target")
    expected = np.array([[0.25], [want], [-3.5]])
    assert ds.features.view(np.int64).tolist() == expected.view(np.int64).tolist()


def write_grid(tmp_path, values, late=None):
    """A CSV of columns a, b, target holding values; late maps a line number to its text."""
    lines = ["a,b,target"] + [",".join(repr(float(v)) for v in row) for row in values]
    for line_no, text in (late or {}).items():
        lines[line_no - 1] = text
    return write(tmp_path, "\n".join(lines) + "\n")


class TestStreamedParse:
    """Cells past the first chunk of rows behave exactly as in a one-chunk file."""

    N = 2 * data_mod._CHUNK_ROWS + 37
    LATE = data_mod._CHUNK_ROWS + 20  # a line number in the second chunk

    def grid(self):
        return np.random.default_rng(8).normal(size=(self.N, 3))

    def test_streamed_rows_keep_every_bit(self, tmp_path):
        values = self.grid()
        ds = load_csv(write_grid(tmp_path, values), target_column="target")
        assert ds.features.tobytes() == values[:, :2].tobytes()
        assert ds.targets.tobytes() == values[:, 2].tobytes()

    @pytest.mark.parametrize("text,message", [
        ("1,bogus,3", "line {ln}, column 'b': cannot parse 'bogus' as a number"),
        ("1,NA,3", "missing values on line(s) [{ln}] (policy 'error')"),
        ("1,inf,3", "line {ln}, column 'b': 'inf' is not a finite number"),
        ("1,2", "line {ln} has 2 cells, expected 3"),
    ], ids=["malformed", "na", "infinite", "ragged"])
    def test_late_bad_row_gives_exact_error(self, tmp_path, text, message):
        p = write_grid(tmp_path, self.grid(), {self.LATE: text})
        with pytest.raises(DataError) as err:
            load_csv(p, target_column="target")
        assert str(err.value) == f"{p}: " + message.format(ln=self.LATE)

    def test_late_missing_value_drop_rows(self, tmp_path):
        values = self.grid()
        ds = load_csv(write_grid(tmp_path, values, {self.LATE: "1,NA,3"}),
                      target_column="target", missing="drop_rows")
        kept = np.delete(values, self.LATE - 2, axis=0)
        assert ds.features.tobytes() == kept[:, :2].tobytes()
        assert ds.targets.tobytes() == kept[:, 2].tobytes()

    def test_late_missing_value_drop_columns(self, tmp_path):
        values = self.grid()
        values[self.LATE - 2] = [1.0, np.nan, 3.0]
        ds = load_csv(write_grid(tmp_path, values, {self.LATE: "1,NA,3"}),
                      target_column="target", missing="drop_columns")
        assert ds.feature_names == ("a",)
        assert ds.features.tobytes() == values[:, :1].tobytes()
        assert ds.targets.tobytes() == values[:, 2].tobytes()

    @pytest.mark.parametrize("text", ["1,bogus,3", "1,2", "1,NA,3"],
                             ids=["malformed", "ragged", "na"])
    @pytest.mark.parametrize("line", [3, LATE], ids=["first-chunk", "late"])
    def test_missing_target_column_wins_over_bad_cell(self, tmp_path, text, line):
        p = write_grid(tmp_path, self.grid(), {line: text})
        with pytest.raises(DataError) as err:
            load_csv(p, target_column="y")
        assert str(err.value) == (f"{p}: target column 'y' not found; "
                                  f"columns are ['a', 'b', 'target']")

    @staticmethod
    def wide_csv(tmp_path, na_line=None):
        """A 2000 x 33 CSV (target y); na_line, if given, holds one NA cell."""
        values = np.random.default_rng(9).normal(size=(2000, 33))
        p = tmp_path / "w.csv"
        with open(p, "w") as f:
            f.write(",".join(f"c{j}" for j in range(32)) + ",y\n")
            for line_no, row in enumerate(values, start=2):
                cells = [repr(float(v)) for v in row]
                if line_no == na_line:
                    cells[5] = "NA"
                f.write(",".join(cells) + "\n")
        return p, values

    @staticmethod
    def peak_bytes(load):
        tracemalloc.start()
        try:
            load()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_is_a_few_arrays(self, tmp_path):
        # Holding every cell as a str before one conversion peaked at about
        # 6.5 MB here, 12x the 0.5 MB feature array; chunked, about 1.8 MB.
        p, _ = self.wide_csv(tmp_path)
        assert self.peak_bytes(lambda: load_csv(p, target_column="y")) < 4e6

    def test_peak_memory_with_late_missing_cell(self, tmp_path):
        # Reading the whole file again as str cells once one cell was missing
        # peaked at about 6.6 MB; converting only that chunk cell by cell,
        # about 1.8 MB.
        p, values = self.wide_csv(tmp_path, na_line=1900)
        loaded = []
        peak = self.peak_bytes(
            lambda: loaded.append(load_csv(p, target_column="y", missing="drop_rows")))
        assert peak < 4e6
        kept = np.delete(values, 1900 - 2, axis=0)
        assert loaded[0].features.tobytes() == kept[:, :32].tobytes()
        assert loaded[0].targets.tobytes() == kept[:, 32].tobytes()


class TestSinglePass:
    """Each data line is converted once, and a record keeps its physical line numbers."""

    N = 3 * data_mod._CHUNK_ROWS + 5
    LATE = 2 * data_mod._CHUNK_ROWS + 40  # a line number in the third chunk
    BOUNDARY = data_mod._CHUNK_ROWS + 2  # the second chunk's first line
    CALLS = 1  # chunks that reach the per-cell loop

    def grid(self):
        return np.random.default_rng(11).normal(size=(self.N, 3))

    def expected_lines(self):
        """The line numbers handed to the per-cell loop, in order."""
        third = 2 * data_mod._CHUNK_ROWS + 2
        return list(range(third, third + data_mod._CHUNK_ROWS))

    def test_one_pass_converts_only_the_rejected_chunk(self, tmp_path):
        values = self.grid()
        p = write_grid(tmp_path, values, {self.LATE: "1,NA,3"})
        with mock.patch.object(data_mod, "_convert_chunk", wraps=data_mod._convert_chunk) as conv, \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as c_reader:
            ds = load_csv(p, target_column="target", missing="drop_rows")
        assert conv.call_count == self.CALLS
        assert [ln for call in conv.call_args_list for ln, _ in call.args[2]] \
            == self.expected_lines()
        assert c_reader.call_count == 4
        assert all(isinstance(call.args[0], list) and len(call.args[0]) <= data_mod._CHUNK_ROWS
                   for call in c_reader.call_args_list)
        kept = np.delete(values, self.LATE - 2, axis=0)
        assert ds.features.tobytes() == kept[:, :2].tobytes()
        assert ds.targets.tobytes() == kept[:, 2].tobytes()

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_quoted_newline_across_chunk_boundary(self, tmp_path, shift):
        values = self.grid()
        start = self.BOUNDARY + shift
        p = write_grid(tmp_path, values, {start: '1,"1.5\n",3'})
        values[start - 2] = [1.0, 1.5, 3.0]
        ds = load_csv(p, target_column="target")
        assert ds.features.tobytes() == values[:, :2].tobytes()
        assert ds.targets.tobytes() == values[:, 2].tobytes()

        # The record took two physical lines, so a later record sits one line further.
        p = write_grid(tmp_path, values, {start: '1,"1.5\n",3', start + 3: "1,bogus,3"})
        with pytest.raises(DataError) as err:
            load_csv(p, target_column="target")
        assert str(err.value) == (f"{p}: line {start + 4}, column 'b': "
                                  f"cannot parse 'bogus' as a number")


def refuse_c_reader(*args, **kwargs):
    raise ValueError("C reader disabled")


@pytest.fixture
def per_cell_only(monkeypatch):
    """load_csv with numpy's C reader disabled: every file takes the per-cell path."""
    monkeypatch.setattr(np, "loadtxt", refuse_c_reader)


@pytest.mark.usefixtures("per_cell_only")
class TestLoadCsvPerCell(TestLoadCsv):
    """Every TestLoadCsv case again on the per-cell path alone."""


@pytest.mark.usefixtures("per_cell_only")
class TestStreamedParsePerCell(TestStreamedParse):
    """Every TestStreamedParse case again on the per-cell path alone."""


@pytest.mark.usefixtures("per_cell_only")
class TestSinglePassPerCell(TestSinglePass):
    """Every TestSinglePass case again on the per-cell path alone: each chunk, once."""

    CALLS = 4

    def expected_lines(self):
        return list(range(2, self.N + 2))


@pytest.mark.parametrize("raw", CSV_CELLS, ids=repr)
def test_per_cell_path_matches_per_cell_float(tmp_path, raw, per_cell_only):
    test_load_csv_matches_per_cell_float(tmp_path, raw)


def outcome(p):
    """load_csv's features, targets and names as bytes and a tuple, or its DataError's message."""
    try:
        ds = load_csv(p, target_column="target")
    except DataError as e:
        return str(e)
    return ds.features.tobytes(), ds.targets.tobytes(), ds.feature_names


class TestCReader:
    """Files at the edges of numpy's C reader end as on the per-cell path."""

    def test_finite_file_never_reaches_per_cell_path(self, tmp_path):
        values = np.random.default_rng(10).normal(size=(300, 3))
        with mock.patch.object(data_mod, "_convert_chunk", side_effect=AssertionError):
            ds = load_csv(write_grid(tmp_path, values), target_column="target")
        assert ds.features.tobytes() == values[:, :2].tobytes()

    @pytest.mark.parametrize("text,want", [
        ("a,b,target\n1,2,3\n   \n4,5,6\n", "line 3 has 1 cells, expected 3"),
        ("a,b,target\r\n1,2,3\r\n4,5,6\r\n", [[1, 2, 3], [4, 5, 6]]),
        ("a,b,target\n1,2,3\n4,5,6", [[1, 2, 3], [4, 5, 6]]),
        ("a,b,target\n1,2,3,\n4,5,6,\n", "line 2 has 4 cells, expected 3"),
        ("a,b,target\n1,2,3\n#4,5,6\n", "line 3, column 'a': cannot parse '#4' as a number"),
        ("a,b,target\n1,2,3\n\n4,5,6\n", [[1, 2, 3], [4, 5, 6]]),
        ("a,b,target\n", "no usable rows after applying missing policy 'error'"),
        ("a,b,target\n\n\r\n", "no usable rows after applying missing policy 'error'"),
    ], ids=["whitespace-line", "crlf", "no-final-newline", "trailing-delimiter", "hash-row",
            "empty-line", "header-only", "empty-lines-only"])
    def test_edge_file_matches_per_cell_path(self, tmp_path, monkeypatch, text, want):
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode())
        if isinstance(want, str):
            want = f"{p}: {want}"
        else:
            grid = np.array(want, dtype=np.float64)
            want = (grid[:, :2].tobytes(), grid[:, 2].tobytes(), ("a", "b"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt's "input contained no data" must not escape
            fast = outcome(p)
        monkeypatch.setattr(np, "loadtxt", refuse_c_reader)
        assert fast == outcome(p) == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30),
           st.sampled_from(["%r", "%.17g", "%.6g"]))
    def test_finite_doubles_keep_float_bits(self, tmp_path_factory, values, fmt):
        cells = [fmt % v for v in values]
        p = tmp_path_factory.mktemp("doubles") / "d.csv"
        p.write_text("a,target\n" + "".join(f"{c},{i}\n" for i, c in enumerate(cells)))
        with mock.patch.object(data_mod, "_convert_chunk", side_effect=AssertionError):
            ds = load_csv(p, target_column="target")
        assert ds.features[:, 0].tobytes() == np.array([float(c) for c in cells]).tobytes()


class TestSplit:
    def test_sizes_with_floor_and_remainder_to_train(self):
        rng = np.random.default_rng(0)
        ds = Dataset(features=rng.normal(size=(506, 3)), targets=rng.normal(size=506), split=None)
        ds = split_dataset(ds, (0.6, 0.2, 0.2), seed=1)
        sizes = [(ds.split == s).sum() for s in (TRAIN, VAL, TEST)]
        assert sizes == [304, 101, 101]

    def test_exact_fractions(self):
        rng = np.random.default_rng(0)
        ds = Dataset(features=rng.normal(size=(10, 2)), targets=rng.normal(size=10), split=None)
        ds = split_dataset(ds, (0.6, 0.2, 0.2), seed=4)
        assert [(ds.split == s).sum() for s in (TRAIN, VAL, TEST)] == [6, 2, 2]

    def test_deterministic_and_seed_sensitive(self):
        rng = np.random.default_rng(3)
        ds = Dataset(features=rng.normal(size=(50, 2)), targets=rng.normal(size=50), split=None)
        a = split_dataset(ds, seed=7).split
        b = split_dataset(ds, seed=7).split
        c = split_dataset(ds, seed=8).split
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_empty_split_rejected(self):
        rng = np.random.default_rng(3)
        ds = Dataset(features=rng.normal(size=(3, 2)), targets=rng.normal(size=3), split=None)
        with pytest.raises(DataError, match="empty"):
            split_dataset(ds, (0.98, 0.01, 0.01), seed=0)

    def test_bad_fractions_rejected(self):
        rng = np.random.default_rng(3)
        ds = Dataset(features=rng.normal(size=(10, 2)), targets=rng.normal(size=10), split=None)
        with pytest.raises(ConfigError):
            split_dataset(ds, (0.5, 0.2, 0.2), seed=0)

    @pytest.mark.parametrize("fractions", [(math.nan, 0.5, 0.5), (0.5, 0.5, math.nan),
                                           (math.nan,) * 3])
    def test_non_finite_fractions_rejected(self, fractions):
        rng = np.random.default_rng(3)
        ds = Dataset(features=rng.normal(size=(10, 2)), targets=rng.normal(size=10), split=None)
        with pytest.raises(ConfigError, match="3 finite positive numbers summing to 1"):
            split_dataset(ds, fractions, seed=0)

    def test_part_is_the_rows_of_one_split(self):
        rng = np.random.default_rng(3)
        ds = Dataset(features=rng.normal(size=(20, 2)), targets=rng.normal(size=20), split=None)
        ds = split_dataset(ds, seed=1)
        for which in (TRAIN, VAL, TEST):
            rows, X, Y = ds.part(which)
            assert np.array_equal(rows, np.flatnonzero(ds.split == which))
            assert np.array_equal(X, ds.features[rows]) and np.array_equal(Y, ds.targets[rows])
            assert not np.shares_memory(X, ds.features)


class TestNormalizer:
    def test_hand_computed(self):
        ds = Dataset(
            features=np.array([[1.0], [2.0], [3.0]]),
            targets=np.zeros(3),
            split=np.array([TRAIN, TRAIN, TRAIN]),
        )
        norm = fit_normalizer(ds)
        assert norm.mean[0] == 2.0
        assert norm.std[0] == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-15)
        z = apply_normalizer(norm, ds.features)
        assert z[0, 0] == pytest.approx(-1.0 / np.sqrt(2.0 / 3.0), rel=1e-15)

    def test_constant_feature_normalizes_to_zero(self):
        ds = Dataset(
            features=np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]]),
            targets=np.zeros(3),
            split=np.array([TRAIN, TRAIN, TRAIN]),
        )
        norm = fit_normalizer(ds)
        z = apply_normalizer(norm, ds.features)
        assert np.all(z[:, 0] == 0.0)

    def test_train_rows_near_standard_after_normalizing(self):
        rng = np.random.default_rng(11)
        ds = Dataset(features=rng.normal(3.0, 2.5, size=(100, 4)), targets=rng.normal(size=100),
                     split=None)
        ds = split_dataset(ds, seed=2)
        ds2 = normalize_dataset(ds, fit_normalizer(ds))
        Xtr = ds2.features[ds2.rows(TRAIN)]
        assert np.abs(Xtr.mean(axis=0)).max() < 1e-12
        assert np.abs(Xtr.std(axis=0) - 1.0).max() < 1e-12

    def test_fit_ignores_val_and_test_rows(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 2))
        ds = Dataset(features=X.copy(), targets=rng.normal(size=30), split=None)
        ds = split_dataset(ds, seed=5)
        norm = fit_normalizer(ds)
        shifted = ds.features.copy()
        shifted[ds.rows(TEST)] += 100.0  # corrupt only test rows
        ds_shifted = Dataset(features=shifted, targets=ds.targets, split=ds.split)
        norm2 = fit_normalizer(ds_shifted)
        assert np.array_equal(norm.mean, norm2.mean)
        assert np.array_equal(norm.std, norm2.std)

    def test_dimension_mismatch(self):
        ds = Dataset(features=np.ones((4, 2)), targets=np.zeros(4),
                     split=np.array([TRAIN] * 4))
        norm = fit_normalizer(ds)
        with pytest.raises(DimensionError):
            apply_normalizer(norm, np.ones((3, 5)))


class TestPreparedDataset:
    """The split, normalizer and neighbors a Dataset takes are checked where it takes them."""

    @staticmethod
    def _prepared(n=30, d=2):
        rng = np.random.default_rng(21)
        ds = split_dataset(Dataset(features=rng.normal(size=(n, d)), targets=rng.normal(size=n),
                                   split=None), seed=4)
        ds = normalize_dataset(ds, fit_normalizer(ds))
        return replace(ds, neighbors=compute_neighbors(ds))

    @pytest.mark.parametrize("split,bad", [
        ([0, 0, 7, 1, 2, 0], "row 2 holds 7 (int64)"),
        ([0, 1, 2, -1, 0, 0], "row 3 holds -1 (int64)"),
        ([0.0, 0.5, 1.0, 2.0, 0.0, 0.0], "row 1 holds 0.5 (float64)"),
        ([0.0, 1.0, 2.0, 0.0, 0.0, 0.0], "row 0 holds 0.0 (float64)"),
        ([True, False, True, False, True, False], "row 0 holds True (bool)"),
    ])
    def test_split_outside_the_three_codes_rejected(self, split, bad):
        with pytest.raises(DataError, match=re.escape(bad)):
            Dataset(features=np.zeros((6, 2)), targets=np.zeros(6), split=np.array(split))

    @pytest.mark.parametrize("mean,std", [
        ([0.0], [1.0, 1.0]),
        ([0.0, 0.0], [0.0, -3.0]),
        ([0.0, np.nan], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, np.inf]),
        ([[0.0, 0.0]], [[1.0, 1.0]]),
    ])
    def test_malformed_normalizer_rejected(self, mean, std):
        with pytest.raises(DataError, match="normalizer needs a finite mean and std > 0"):
            Dataset(features=np.zeros((3, 2)), targets=np.zeros(3), split=None,
                    normalizer=Normalizer(np.array(mean), np.array(std)))

    def test_neighbors_must_cover_the_train_split(self):
        ds = self._prepared()
        n_train = len(ds.rows(TRAIN))
        short = Neighbors(*(col[:-1] for col in ds.neighbors))
        with pytest.raises(DataError, match=rf"one entry per train row \({n_train}\)"):
            replace(ds, neighbors=short)
        not_train = np.flatnonzero(ds.split != TRAIN)[0]
        for k, value in [(0, -1), (0, ds.n_rows), (0, not_train), (1, -0.5), (2, np.nan)]:
            bad = list(ds.neighbors)
            bad[k] = np.where(np.arange(n_train) == 3, value, bad[k]).astype(bad[k].dtype)
            with pytest.raises(DataError, match="the index of a train row, and a finite"):
                replace(ds, neighbors=Neighbors(*bad))
        with pytest.raises(DataError, match="no split assigned"):
            replace(ds, split=None)

    @pytest.mark.parametrize("field", ["split", "neighbors", "features", "normalizer", "name"])
    def test_no_field_can_be_reassigned_past_the_checks(self, field):
        ds = self._prepared()
        before = getattr(ds, field)
        bad = {"split": np.full(ds.n_rows, 7),  # codes the checks refuse, and twice the rows
               "neighbors": Neighbors(*(np.concatenate([c, c]) for c in ds.neighbors)),
               "features": np.zeros((2, 1)), "normalizer": None, "name": "other"}[field]
        with pytest.raises(FrozenInstanceError):
            setattr(ds, field, bad)
        assert getattr(ds, field) is before

    def test_split_and_normalize_drop_the_neighbors(self):
        ds = self._prepared()
        resplit = split_dataset(ds, seed=9)
        assert resplit.neighbors is None
        assert all(a is b for a, b in zip(resplit.normalizer, ds.normalizer))
        norm = fit_normalizer(resplit)
        renormalized = normalize_dataset(ds, norm)
        assert renormalized.neighbors is None
        assert all(np.array_equal(a, b) for a, b in zip(renormalized.normalizer, norm))


def brute_force_neighbors(X, y, rows):
    """Independent O(N^2) re-implementation used as an oracle."""
    out = {}
    for i_pos, i in enumerate(rows):
        best_j, best_d = None, np.inf
        for j_pos, j in enumerate(rows):
            if i == j:
                continue
            d = float(np.max(np.abs(X[i_pos] - X[j_pos])))
            if d < best_d:
                best_d, best_j = d, j
        out[int(i)] = (int(best_j), best_d, float(abs(y[i_pos] - y[list(rows).index(best_j)])))
    return out


class TestNeighbors:
    def test_hand_computed_1d(self):
        # Train points at 0, 1, 3: neighbor of 3 is 1 at distance 2.
        ds = Dataset(
            features=np.array([[0.0], [1.0], [3.0]]),
            targets=np.array([10.0, 11.0, 20.0]),
            split=np.array([TRAIN, TRAIN, TRAIN]),
        )
        nb = compute_neighbors(ds)
        assert nb.index[2] == 1
        assert nb.distance[2] == 2.0
        assert nb.label_gap[2] == 9.0
        assert nb.index[0] == 1 and nb.index[1] == 0

    def test_duplicates_give_zero_distance(self):
        ds = Dataset(
            features=np.array([[1.0, 2.0], [1.0, 2.0], [9.0, 9.0]]),
            targets=np.array([1.0, 4.0, 0.0]),
            split=np.array([TRAIN, TRAIN, TRAIN]),
        )
        nb = compute_neighbors(ds)
        assert nb.distance[0] == 0.0 and nb.index[0] == 1
        assert nb.distance[1] == 0.0 and nb.index[1] == 0
        assert nb.label_gap[0] == 3.0

    def test_ties_break_to_lowest_index(self):
        ds = Dataset(
            features=np.array([[0.0], [1.0], [-1.0]]),
            targets=np.zeros(3),
            split=np.array([TRAIN, TRAIN, TRAIN]),
        )
        nb = compute_neighbors(ds)
        assert nb.index[0] == 1  # rows 1 and 2 tie at distance 1

    def test_only_train_rows_participate(self):
        ds = Dataset(
            features=np.array([[0.0], [0.05], [10.0]]),
            targets=np.array([1.0, 2.0, 3.0]),
            split=np.array([TRAIN, VAL, TRAIN]),
        )
        nb = compute_neighbors(ds)
        assert all(len(col) == 2 for col in nb)  # one entry per train row: 0 and 2
        assert nb.index[0] == 2 and nb.distance[0] == 10.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        ds = Dataset(features=rng.normal(size=(60, 4)), targets=rng.normal(size=60), split=None)
        ds = split_dataset(ds, seed=9)
        rows = ds.rows(TRAIN)
        nb = compute_neighbors(ds)
        oracle = brute_force_neighbors(ds.features[rows], ds.targets[rows], list(rows))
        assert list(oracle) == rows.tolist()
        for k, (j, d, gap) in enumerate(oracle.values()):
            assert nb.index[k] == j
            assert nb.distance[k] == d
            assert nb.label_gap[k] == gap

    def test_distance_is_a_true_minimum(self):
        rng = np.random.default_rng(22)
        ds = Dataset(features=rng.normal(size=(40, 3)), targets=rng.normal(size=40), split=None)
        ds = split_dataset(ds, seed=10)
        rows = ds.rows(TRAIN)
        nb = compute_neighbors(ds)
        X = ds.features
        for k, i in enumerate(rows):
            for j in rows:
                if i != j:
                    assert nb.distance[k] <= np.max(np.abs(X[i] - X[j])) + 1e-15

    def test_needs_two_train_rows(self):
        ds = Dataset(features=np.ones((2, 1)), targets=np.zeros(2),
                     split=np.array([TRAIN, TEST]))
        with pytest.raises(DataError):
            compute_neighbors(ds)

    def test_neighbor_arrays_alignment(self):
        # Entry k belongs to the k-th train row; index holds dataset row indices.
        ds = Dataset(
            features=np.array([[0.0], [7.0], [1.0], [3.0]]),
            targets=np.array([10.0, 0.0, 11.0, 20.0]),
            split=np.array([TRAIN, VAL, TRAIN, TRAIN]),
        )
        nb = compute_neighbors(ds)
        assert np.array_equal(nb.index, [2, 0, 2])
        assert np.array_equal(nb.distance, [1.0, 1.0, 2.0])
        assert np.array_equal(nb.label_gap, [1.0, 1.0, 9.0])
        assert nb.index.dtype == np.int64

    def test_nearest_train_distance(self):
        ds = Dataset(
            features=np.array([[0.0], [4.0], [1.5]]),
            targets=np.zeros(3),
            split=np.array([TRAIN, TRAIN, TEST]),
        )
        d = nearest_train_distance(ds, np.array([[1.0], [3.5]]))
        assert np.array_equal(d, [1.0, 0.5])


def linf_matrix(A, B):
    """Full (len(A), len(B)) L-inf distance matrix in one broadcast: the oracle."""
    return np.abs(A[:, None, :] - B[None, :, :]).max(axis=2)


def assert_neighbors_exact(X, y, stats=None):
    ds = Dataset(features=X, targets=y, split=np.full(len(X), TRAIN))
    nb = compute_neighbors(ds, stats=stats)
    d = linf_matrix(X, X)
    np.fill_diagonal(d, np.inf)
    j = d.argmin(axis=1)  # lowest index among ties
    assert nb.index.tolist() == j.tolist()
    assert np.array_equal(nb.distance, d[np.arange(len(X)), j])
    assert np.array_equal(nb.label_gap, np.abs(y - y[j]))
    return nb


def grid_ambiguous_count(X):
    """Rows whose two smallest int16-grid distances differ by less than 3, from the full matrix."""
    peak = np.abs(X).max()
    q = np.rint(X * (16383 / peak)) if peak > 0 else np.zeros_like(X)
    d = linf_matrix(q, q)
    np.fill_diagonal(d, np.inf)
    two = np.sort(d, axis=1)[:, :2]
    return int((two[:, 1] - two[:, 0] < 3).sum())


def normalized(X):
    """Z-scored columns, as prepare leaves them; a constant column becomes 0."""
    std = X.std(axis=0)
    return (X - X.mean(axis=0)) / np.where(std > 0, std, 1.0)


class TestTiledSearchExact:
    """compute_neighbors and nearest_train_distance against the full matrix, with ==."""

    def test_many_tiles_continuous(self):
        rng = np.random.default_rng(41)
        X, y = rng.normal(size=(700, 3)), rng.normal(size=700)
        assert_neighbors_exact(X, y)

    def test_many_tiles_integer_ties_and_duplicates(self):
        rng = np.random.default_rng(42)
        X = rng.integers(0, 3, size=(650, 2)).astype(np.float64)
        assert len(np.unique(X, axis=0)) < 10  # nearly every row has duplicates
        y = rng.integers(0, 5, size=650).astype(np.float64)
        assert_neighbors_exact(X, y)

    def test_one_feature(self):
        rng = np.random.default_rng(43)
        X, y = rng.integers(0, 50, size=(640, 1)).astype(np.float64), rng.normal(size=640)
        assert_neighbors_exact(X, y)

    def test_two_rows(self):
        assert_neighbors_exact(np.array([[0.5, -1.0], [2.0, 3.0]]), np.array([1.0, -2.0]))
        assert_neighbors_exact(np.array([[1.0], [1.0]]), np.array([0.0, 0.0]))

    @pytest.mark.parametrize("n", [300, 400])
    def test_shuffled_line_confirms_every_ambiguous_row(self, n):
        # Evenly spaced points: every inner row's two neighbours tie, so nearly
        # all rows are confirmed, over several float64 row blocks.
        X = np.random.default_rng(7).permutation(n)[:, None].astype(np.float64)
        y = np.arange(n, dtype=np.float64)
        for Z in (X, normalized(X)):
            stats = {}
            assert_neighbors_exact(Z, y, stats)
            assert stats["confirmed"] > 256

    @pytest.mark.parametrize("integer", [False, True], ids=["normal", "integer"])
    def test_nearest_train_distance_many_tiles(self, integer):
        rng = np.random.default_rng(44)

        def draw(n):
            return rng.integers(-2, 3, size=(n, 4)).astype(np.float64) if integer \
                else rng.normal(size=(n, 4))

        ds = Dataset(features=draw(900), targets=np.zeros(900), split=None)
        ds = split_dataset(ds, fractions=(0.7, 0.1, 0.2), seed=5)
        Q = draw(750)
        d = nearest_train_distance(ds, Q)
        assert np.array_equal(d, linf_matrix(Q, ds.features[ds.rows(TRAIN)]).min(axis=1))

    def test_nearest_train_distance_rejects_wrong_width(self):
        ds = Dataset(features=np.zeros((3, 2)), targets=np.zeros(3), split=np.full(3, TRAIN))
        with pytest.raises(DimensionError):
            nearest_train_distance(ds, np.zeros((1, 3)))

    def test_outlier_coarsens_the_grid(self):
        # One 60-sigma cell sets the int16 grid's scale, so its step is about
        # 0.004 and many nearest/second-nearest gaps fall below three steps.
        rng = np.random.default_rng(46)
        X, y = rng.normal(size=(700, 4)), rng.normal(size=700)
        X[123, 2] = 60.0
        assert grid_ambiguous_count(X) > 10
        assert_neighbors_exact(X, y)

    def test_near_tie_below_one_screen_step(self):
        # Row 0 lies between row 1 (the lower index, farther by delta) and row
        # 2. The 1000 sets the grid, whose step is 1000 / 16383, about 0.061.
        step = 1000 / 16383
        for delta in (0.2 * step, 0.5 * step, 0.9 * step, 1.1 * step):
            X = np.array([[0.0, 0.0], [0.5 + delta, 0.3], [-0.5, 0.1], [1000.0, 0.0]])
            if delta < 0.3 * step:  # on the grid, rows 1 and 2 tie for row 0
                q = np.rint(X / step)
                assert np.abs(q[1] - q[0]).max() == np.abs(q[2] - q[0]).max()
            nb = assert_neighbors_exact(X, np.arange(4.0))
            assert nb.index[0] == 2

    def test_all_binary_mostly_confirmed(self):
        rng = np.random.default_rng(47)
        X, y = rng.integers(0, 2, size=(600, 16)).astype(np.float64), rng.normal(size=600)
        assert grid_ambiguous_count(X) > 500  # distance 1 ties for nearly every row
        assert_neighbors_exact(X, y)
        X = normalized(X)  # unequal column gaps: fewer exact ties
        assert grid_ambiguous_count(X) > 100
        assert_neighbors_exact(X, y)

    def test_constant_columns_and_identical_rows(self):
        rng = np.random.default_rng(48)
        X, y = rng.normal(size=(500, 4)), rng.normal(size=500)
        X[:, 1], X[:, 3] = 0.0, 7.5
        assert_neighbors_exact(X, y)
        assert_neighbors_exact(np.full((300, 3), 2.5), y[:300])
        assert_neighbors_exact(np.zeros((300, 2)), y[:300])

    def test_extreme_magnitudes(self):
        # Differences of +-1e308 overflow to inf, so row 0's distances all
        # tie in float64 although the grid sees row 2 nearer; at 1e-310 the
        # cells are subnormal. Both go to the float64 search.
        for scale in (1e308, 1e-310):
            X = np.array([[-1.0], [1.0], [0.9]]) * scale
            with np.errstate(over="ignore"):
                assert_neighbors_exact(X, np.zeros(3))

    @pytest.mark.parametrize("seed", [49, 50, 51])
    def test_confirmed_count_matches_grid(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(400, 5))
        X[: 200 * (seed - 49)] = rng.integers(0, 3, size=(200 * (seed - 49), 5))  # 0-400 tie-prone
        ds = Dataset(features=X, targets=np.zeros(400), split=np.full(400, TRAIN))
        stats = {}
        compute_neighbors(ds, stats=stats)
        assert stats == {"confirmed": grid_ambiguous_count(X)}

    def test_nearest_train_distance_queries_outside_train_range(self):
        # The queries reach 50 while the train rows stay near 0, so the
        # shared grid is coarse for the train rows.
        rng = np.random.default_rng(52)
        ds = Dataset(features=rng.normal(size=(600, 3)), targets=np.zeros(600), split=None)
        ds = split_dataset(ds, fractions=(0.7, 0.1, 0.2), seed=6)
        Q = np.concatenate([rng.uniform(-50, 50, size=(200, 3)), rng.normal(size=(300, 3)),
                            ds.features[ds.rows(TRAIN)][:50] + 1e-9])
        d = nearest_train_distance(ds, Q)
        assert np.array_equal(d, linf_matrix(Q, ds.features[ds.rows(TRAIN)]).min(axis=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nearest_train_distance_rejects_non_finite(self, bad):
        ds = Dataset(features=np.zeros((3, 2)), targets=np.zeros(3), split=np.full(3, TRAIN))
        with pytest.raises(NonFiniteError, match="X"):
            nearest_train_distance(ds, np.array([[0.0, 1.0], [bad, 0.0]]))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_property_matches_full_matrix(self, data):
        n, d = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 5))
        grid = data.draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d))
        jitter = data.draw(st.lists(st.sampled_from([0.0, 0.0, 1e-12, -3e-9, 2e-5, -1e-3]),
                                    min_size=n * d, max_size=n * d))
        scale = data.draw(st.sampled_from([1.0, 0.5, 1e-3, 1e3]))
        X = (np.array(grid, dtype=np.float64) * scale + np.array(jitter)).reshape(n, d)
        y = np.arange(n, dtype=np.float64)
        assert_neighbors_exact(X, y)
        ds = Dataset(features=X, targets=y, split=np.array([TRAIN, TEST] * n)[:n])
        train = X[ds.rows(TRAIN)]
        assert np.array_equal(nearest_train_distance(ds, X), linf_matrix(X, train).min(axis=1))

    @pytest.mark.parametrize("case", ["normal", "binary", "queries"])
    def test_memory_stays_at_two_tiles(self, case):
        # A (rows, n, D) broadcast in ~4M-element chunks holds about 33 MB here.
        # On the all-binary set nearly every row is confirmed in float64, so
        # the confirmation must stay in tiles too, and so must the float64
        # sweep of 1,500 queries against the train rows.
        rng = np.random.default_rng(45)
        X = rng.integers(0, 2, size=(1500, 32)).astype(np.float64) if case == "binary" \
            else rng.normal(size=(1500, 32))
        ds = Dataset(features=X, targets=rng.normal(size=1500), split=np.full(1500, TRAIN))
        Q = rng.normal(size=(1500, 32))
        tracemalloc.start()
        try:
            if case == "queries":
                nearest_train_distance(ds, Q)
            else:
                compute_neighbors(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestCache:
    def _prepared(self):
        rng = np.random.default_rng(33)
        ds = Dataset(features=rng.normal(size=(40, 3)), targets=rng.normal(size=40),
                     split=None, name="cached")
        ds = split_dataset(ds, seed=3)
        ds = normalize_dataset(ds, fit_normalizer(ds))
        return replace(ds, neighbors=compute_neighbors(ds))

    def test_roundtrip_exact(self, tmp_path):
        ds = self._prepared()
        p = tmp_path / "cache.json"
        save_dataset_cache(p, ds)
        ds2 = load_dataset_cache(p)
        assert np.array_equal(ds2.features, ds.features)
        assert np.array_equal(ds2.targets, ds.targets)
        assert np.array_equal(ds2.split, ds.split)
        assert ds2.name == ds.name
        for col2, col in zip([*ds2.normalizer, *ds2.neighbors], [*ds.normalizer, *ds.neighbors]):
            assert col2.dtype == col.dtype and np.array_equal(col2, col)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_roundtrip_keeps_every_bit(self, data):
        edge = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-309,
                                1e308, -1e308, 1.7976931348623157e308])
        n, d = data.draw(st.integers(3, 12)), data.draw(st.integers(1, 4))
        values = data.draw(st.lists(st.one_of(edge, st.floats(allow_nan=False,
                                                              allow_infinity=False)),
                                    min_size=n * d, max_size=n * d))
        features = np.array(values).reshape(n, d)
        n_train = len(range(0, n, 3))
        ds = Dataset(features=features, targets=np.zeros(n), split=np.arange(n) % 3,
                     normalizer=Normalizer(np.zeros(d), np.ones(d)),
                     neighbors=Neighbors(np.zeros(n_train, dtype=np.int64),
                                         *np.zeros((2, n_train))))
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "cache.json"
            save_dataset_cache(p, ds)
            loaded = load_dataset_cache(p).features
        assert loaded.flags.writeable and loaded.flags.c_contiguous
        assert loaded.view(np.int64).tolist() == features.view(np.int64).tolist()

    def test_two_saves_byte_identical(self, tmp_path):
        ds = self._prepared()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_dataset_cache(p1, ds)
        save_dataset_cache(p2, ds)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.npy").read_bytes() == (tmp_path / "b.npy").read_bytes()

    def test_bytes_match_reference_json_dump(self, tmp_path):
        # Edge floats, non-ASCII names (escaped by the default ensure_ascii)
        # and a provenance block, against json.dumps of the whole document,
        # and np.save of the features next to it.
        ds = self._prepared()
        norm, nb = ds.normalizer, ds.neighbors
        features = ds.features.copy()
        features[:4, 0] = [-0.0, 2.2250738585072014e-309, 5e-324, 1e308]
        ds = replace(ds, features=features, name="Bost\u00f6n \u623f",
                     feature_names=("\u00e9t\u00e9", "\u03b2", "x\U0001f600"))
        provenance = {"seed": 3, "fractions": [0.6, 0.2, 0.2], "dataset.name": ds.name,
                      "csv_sha256": "ab" * 32}
        p = tmp_path / "cache.json"
        save_dataset_cache(p, ds, provenance)
        doc = {
            "name": ds.name,
            "target_bounded_01": ds.target_bounded_01,
            "feature_names": list(ds.feature_names),
            "features": {"sha256": hashlib.sha256(features.astype("<f8").tobytes()).hexdigest()},
            "targets": ds.targets.tolist(),
            "split": [("train", "val", "test")[s] for s in ds.split],
            "normalizer": {"mean": norm.mean.tolist(), "std": norm.std.tolist()},
            "neighbors": {"index": nb.index.tolist(), "distance": nb.distance.tolist(),
                          "label_gap": nb.label_gap.tolist()},
            "provenance": provenance,
        }
        assert p.read_text(encoding="ascii") == json.dumps(doc, sort_keys=True) + "\n"
        reference = io.BytesIO()
        np.save(reference, features)
        assert (tmp_path / "cache.npy").read_bytes() == reference.getvalue()
        ds2 = load_dataset_cache(p)
        assert ds2.features.view(np.int64).tolist() == features.view(np.int64).tolist()

    # Each edit(doc, npy, ds) leaves a cache pair that must be refused.
    FEATURE_EDITS = {
        "list-format": lambda doc, npy, ds: doc.update(features=ds.features.tolist()),
        "dtype-f4": lambda doc, npy, ds: np.save(npy, ds.features.astype("<f4")),
        "shape-vs-targets": lambda doc, npy, ds: doc["targets"].append(0.0),
        "shape-vs-feature-names": lambda doc, npy, ds: doc["feature_names"].pop(),
        "missing": lambda doc, npy, ds: npy.unlink(),
        "truncated": lambda doc, npy, ds: npy.write_bytes(npy.read_bytes()[:-8]),
        "object-dtype": lambda doc, npy, ds: np.save(npy, ds.features.astype(object)),
        "fortran-order": lambda doc, npy, ds: np.save(npy, np.asfortranarray(ds.features)),
        "other-prepare": lambda doc, npy, ds: np.save(npy, np.nextafter(ds.features, 9.0)),
    }

    @pytest.mark.parametrize("case", list(FEATURE_EDITS))
    def test_malformed_features_rejected(self, tmp_path, case):
        ds = self._prepared()
        p, npy = tmp_path / "cache.json", tmp_path / "cache.npy"
        save_dataset_cache(p, ds)
        doc = json.loads(p.read_text())
        self.FEATURE_EDITS[case](doc, npy, ds)
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="run prepare again$") as err:
            load_dataset_cache(p)
        assert str(p) in str(err.value)
        if case != "list-format":  # the fault is in the .npy, which is named too
            assert str(npy) in str(err.value)

    def test_malformed_cache_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"name": "x"}\n')
        with pytest.raises(DataError, match="malformed"):
            load_dataset_cache(p)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cols: [col.pop() for col in cols.values()],
            lambda cols: cols["distance"].__setitem__(3, -0.5),
            lambda cols: cols["label_gap"].__setitem__(0, float("nan")),
            lambda cols: cols["index"].__setitem__(1, -5),
            lambda cols: cols["index"].__setitem__(2, 10**9),
        ],
        ids=["short-columns", "negative-distance", "nan-gap", "negative-index",
             "index-past-the-rows"],
    )
    def test_malformed_neighbors_rejected(self, tmp_path, edit):
        ds = self._prepared()
        p = tmp_path / "cache.json"
        save_dataset_cache(p, ds)
        doc = json.loads(p.read_text())
        edit(doc["neighbors"])
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="malformed .*run prepare again"):
            load_dataset_cache(p)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda norm: norm.update(mean=norm["mean"][:1]),
            lambda norm: norm.update(std=[0.0, -3.0, 5.0]),
            lambda norm: norm["std"].__setitem__(1, float("inf")),
            lambda norm: norm["mean"].__setitem__(2, float("nan")),
        ],
        ids=["short-mean", "non-positive-std", "inf-std", "nan-mean"],
    )
    def test_malformed_normalizer_rejected(self, tmp_path, edit):
        ds = self._prepared()
        p = tmp_path / "cache.json"
        save_dataset_cache(p, ds)
        doc = json.loads(p.read_text())
        edit(doc["normalizer"])
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="malformed .*run prepare again"):
            load_dataset_cache(p)

    def test_repeated_key_rejected(self, tmp_path):
        p = tmp_path / "cache.json"
        save_dataset_cache(p, self._prepared())
        text = p.read_text()
        assert text.startswith('{"feature_names"')
        p.write_text('{"name": "other", ' + text[1:])  # a second "name", which would win
        with pytest.raises(DataError, match=re.escape(
                f"malformed dataset cache {p}: key 'name' is repeated in one object; "
                "run prepare again")):
            load_dataset_cache(p)

    def test_unsplit_dataset_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = Dataset(features=rng.normal(size=(5, 2)), targets=rng.normal(size=5), split=None)
        ds = normalize_dataset(ds, fit_normalizer(ds))
        with pytest.raises(DataError, match="not prepared"):
            save_dataset_cache(tmp_path / "c.json", ds)

    @staticmethod
    def _wide():
        """A split 4000 x 64 set with neighbor columns for its 2,400 train rows."""
        rng = np.random.default_rng(34)
        features, targets = rng.normal(size=(4000, 64)), rng.normal(size=4000)
        return Dataset(features=features, targets=targets,
                       split=np.repeat([TRAIN, VAL, TEST], [2400, 800, 800]),
                       normalizer=Normalizer(np.zeros(64), np.ones(64)),
                       neighbors=Neighbors(np.arange(2400), *np.abs(rng.normal(size=(2, 2400)))))

    def test_save_never_copies_the_features(self, tmp_path):
        # np.save writes the array's own buffer, and the sha256 reads it in place.
        ds = self._wide()
        p = tmp_path / "cache.json"
        tracemalloc.start()
        try:
            save_dataset_cache(p, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ds.features.nbytes
        assert np.load(tmp_path / "cache.npy").tobytes() == ds.features.tobytes()

    def test_load_decodes_into_the_result(self, tmp_path):
        # The .npy is read straight into the result, so the peak is the
        # features plus the parsed JSON (2.99 MB against 2.05 MB of features).
        ds = self._wide()
        p = tmp_path / "cache.json"
        save_dataset_cache(p, ds)
        tracemalloc.start()
        try:
            features = load_dataset_cache(p).features
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * ds.features.nbytes
        assert features.flags.writeable and features.tobytes() == ds.features.tobytes()
