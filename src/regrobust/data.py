"""CSV ingestion, splits, normalization, and nearest-neighbor precomputation.

Conventions: rows are examples, one named column is the regression target,
everything else is a feature. Splits are encoded per row as 0/1/2 for
train/val/test. All distances here are L-infinity in normalized feature
space. Nearest-row search is exact and has one float64 sweep (_nearest_in):
the test rows' distances to the train rows go straight through it, and
compute_neighbors screens the train rows on an int16 grid first, so the sweep
confirms only the rows the screen leaves uncertain. Distances are built in
cache-sized tiles one feature at a time, ties go to the lowest index, and
memory is bounded by two tile buffers.

Set-up holds each array once. The CSV is read once, one chunk of lines at
a time: numpy's C reader converts every chunk, and a chunk it cannot take,
with every cell finite, goes through the per-cell loop, the reference for
every value and message.

The dataset cache is a pair of files. The features, its only (N, D) block,
are numpy's .npy of their little-endian float64 array, next to the cache's
JSON document, which holds everything else and the sha256 of the features'
bytes. Both are written and read at C speed, and the features keep every
bit. A prepared Dataset carries its Normalizer and its Neighbors, three
arrays aligned with the train rows, which the cache stores as the same three
JSON columns; Dataset checks both, so a cache that loads is a valid one.
"""
import csv
import hashlib
import itertools
import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, DimensionError, NonFiniteError, unique_keys

TRAIN, VAL, TEST = 0, 1, 2
SPLIT_NAMES = ("train", "val", "test")

NA_MARKERS = frozenset({"", "na", "n/a", "nan", "null", "?"})
MISSING_POLICIES = ("error", "drop_rows", "drop_columns")


class Normalizer(NamedTuple):
    """Per-feature z-score parameters: features are (x - mean) / std."""

    mean: np.ndarray  # (D,)
    std: np.ndarray  # (D,)


class Neighbors(NamedTuple):
    """Nearest train neighbor of each train row, aligned with dataset.rows(TRAIN)."""

    index: np.ndarray  # (n_train,) int64 dataset row index of the neighbor
    distance: np.ndarray  # (n_train,) L-inf distance to it
    label_gap: np.ndarray  # (n_train,) |target - neighbor's target|


@dataclass(frozen=True)
class Dataset:
    """Rows of features and targets, and each row's split once assigned;
    part(which) gives one split's row indices, features and targets.

    A prepared dataset also carries the normalizer its features went through
    and its train rows' nearest neighbors. Each is None until normalize_dataset
    or replace(ds, neighbors=compute_neighbors(ds)) sets it, and is checked here.
    Frozen, so no field can be reassigned past these checks.
    """

    features: np.ndarray  # (N, D) float64
    targets: np.ndarray  # (N,) float64
    split: np.ndarray | None  # (N,) int in {0,1,2}, or None before splitting
    name: str = "dataset"
    target_bounded_01: bool = False
    feature_names: tuple = ()
    normalizer: Normalizer | None = None
    neighbors: Neighbors | None = None

    def __post_init__(self):
        def coerce(name, value):  # a frozen dataclass sets its fields through object
            object.__setattr__(self, name, value)
            return value
        features = coerce("features", np.asarray(self.features, dtype=np.float64))
        targets = coerce("targets", np.asarray(self.targets, dtype=np.float64))
        if features.ndim != 2 or features.shape[1] < 1:
            raise DimensionError(f"features must be (N, D>=1), got {features.shape}")
        n, d = features.shape
        if targets.shape != (n,):
            raise DimensionError(f"targets must have shape ({n},), got {targets.shape}")
        if not np.all(np.isfinite(features)) or not np.all(np.isfinite(targets)):
            raise DataError("dataset contains NaN or infinity after ingestion")
        if self.split is not None:
            split = coerce("split", np.asarray(self.split))
            if split.shape != (n,):
                raise DimensionError(f"split must have shape ({n},), got {split.shape}")
            bad = ~np.isin(split, (TRAIN, VAL, TEST))
            if bad.any() or (n and split.dtype.kind not in "iu"):
                i = bad.argmax()  # the first bad code, else row 0 of a non-integer split
                raise DataError(f"split must hold the integer codes 0/1/2 (train/val/test); "
                                f"row {i} holds {split[i].item()!r} ({split.dtype})")
        if self.normalizer is not None:
            mean, std = coerce("normalizer", Normalizer(*map(np.asarray, self.normalizer,
                                                             (float, float))))
            if mean.shape != (d,) or std.shape != (d,) or not (
                    np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
                raise DataError(f"normalizer needs a finite mean and std > 0 for each of {d} "
                                f"features, got shapes {mean.shape} and {std.shape}")
        if self.neighbors is not None:
            nb = coerce("neighbors", Neighbors(*map(np.asarray, self.neighbors,
                                                    (np.int64, float, float))))
            rows = self.rows(TRAIN)
            n_train = len(rows)
            if any(c.shape != (n_train,) for c in nb) or not np.isin(nb.index, rows).all() \
                    or not all(np.isfinite(c).all() and (c >= 0).all() for c in nb[1:]):
                raise DataError(f"neighbors need one entry per train row ({n_train}): the index "
                                "of a train row, and a finite distance and label gap >= 0")
        if not self.feature_names:
            coerce("feature_names", tuple(f"x{j}" for j in range(d)))

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def rows(self, which: int) -> np.ndarray:
        """Row indices of one split, in ascending order."""
        if self.split is None:
            raise DataError("dataset has no split assigned")
        return np.flatnonzero(self.split == which)

    def part(self, which: int) -> tuple:
        """(rows, features, targets) of one split: rows(which) and copies of its rows."""
        rows = self.rows(which)
        return rows, self.features[rows], self.targets[rows]


_CHUNK_ROWS = 256  # CSV lines per C-reader call


def _convert_chunk(path, header: list, chunk: list, missing_lines: list) -> np.ndarray:
    """The (line_no, row) records of chunk as one (len(chunk), width) float64 block.

    Cell by cell: a cell is read as float(cell.strip()), a missing cell (an
    NA marker or NaN) is stored as NaN and its line appended to missing_lines,
    and a ragged row, a malformed cell or an infinite one is rejected, naming
    its line.
    """
    width = len(header)
    block = np.empty((len(chunk), width))
    for i, (line_no, row) in enumerate(chunk):
        if len(row) != width:
            raise DataError(f"{path}: line {line_no} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            cell = cell.strip()
            if cell.lower() in NA_MARKERS:
                v = np.nan
            else:
                try:
                    v = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: line {line_no}, column {header[j]!r}: "
                        f"cannot parse {cell!r} as a number"
                    ) from None
                if math.isinf(v):
                    raise DataError(
                        f"{path}: line {line_no}, column {header[j]!r}: "
                        f"{cell!r} is not a finite number"
                    )
            if math.isnan(v):
                missing_lines.append(line_no)
            block[i, j] = v
    return block


def load_csv(
    path,
    target_column: str,
    name: str | None = None,
    target_bounded_01: bool = False,
    missing: str = "error",
) -> Dataset:
    """Read a headered numeric UTF-8 CSV into a Dataset (split unassigned).

    A leading byte-order mark is dropped, and the header names, stripped, must
    be unique and non-empty. missing controls cells matching the usual NA
    markers: "error" rejects the file naming the offending lines, "drop_rows"
    removes those rows, and "drop_columns" removes feature columns containing
    any missing value (rows whose target is missing are dropped). Cells that
    are neither numeric nor a recognized NA marker, and infinite cells, are
    always an error naming the line and column.

    The file is read once. After the header, numpy's C reader parses each
    chunk of _CHUNK_ROWS lines with float()'s syntax and bits, skipping only
    empty lines, as the csv module does; its block is kept if it has a column
    per name and every cell is finite. Any other chunk is read again from its
    lines by the csv module, which finishes a quoted record running past the
    chunk from the file, and goes through the per-cell loop, the reference
    for every value and message (_convert_chunk); line numbers stay physical.
    The missing cells are then the NaN cells of the result.
    """
    if missing not in MISSING_POLICIES:
        raise ConfigError(f"missing policy must be one of {MISSING_POLICIES}, got {missing!r}")
    missing_lines = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            header = [h.strip() for h in header]
            for i, h in enumerate(header):
                if not h or h in header[:i]:
                    raise DataError(f"{path}: header name {h!r} is "
                                    f"{'repeated' if h else 'empty'}; columns are {header}")
            if target_column not in header:
                raise DataError(
                    f"{path}: target column {target_column!r} not found; columns are {header}"
                )
            if len(header) < 2:
                raise DataError(f"{path}: no feature columns; the only column is the target "
                                f"{target_column!r}")
            width = len(header)
            offset, values, n = reader.line_num, np.empty((0, width)), 0
            while raw := list(itertools.islice(f, _CHUNK_ROWS)):
                try:
                    with warnings.catch_warnings():  # a chunk of empty lines warns of "no data"
                        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                        block = np.loadtxt(raw, delimiter=",", comments=None, ndmin=2,
                                           dtype=np.float64)
                except ValueError:
                    block = None
                if block is not None and block.shape[1] == width and np.isfinite(block).all():
                    offset += len(raw)
                else:
                    reader, chunk = csv.reader(itertools.chain(raw, f)), []
                    for row in reader:
                        if row:
                            chunk.append((offset + reader.line_num, row))
                        if reader.line_num >= len(raw):
                            break
                    offset += reader.line_num
                    block = _convert_chunk(path, header, chunk, missing_lines)
                # Grown in place (no view of it exists yet): blocks joined at the end would
                # leave their space too broken up for the feature copy, +1.5 MB RSS on 4000 x 65.
                if n + len(block) > len(values):
                    values.resize((max(2 * n, n + len(block)), width), refcheck=False)
                values[n : n + len(block)] = block
                n += len(block)
                del raw, block  # freed before the next chunk is read
            values.resize((n, width), refcheck=False)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path} is not UTF-8 text: {e}") from e

    if missing_lines and missing == "error":
        lines = sorted(set(missing_lines))
        raise DataError(
            f"{path}: missing values on line(s) {lines[:20]}"
            f"{' ...' if len(lines) > 20 else ''} (policy 'error')"
        )

    t_col = header.index(target_column)
    keep_cols = [j for j in range(len(header)) if j != t_col]
    is_missing = np.isnan(values)
    if missing == "drop_columns":
        keep_cols = [j for j in keep_cols if not is_missing[:, j].any()]
        # A missing target cannot be recovered by dropping a feature column.
        keep_rows = ~is_missing[:, t_col]
    else:  # "drop_rows"; under "error" no cell is missing by now
        keep_rows = ~is_missing.any(axis=1)
    col_names = [header[j] for j in keep_cols]

    if not keep_cols:
        raise DataError(f"{path}: every feature column had missing values")
    features = values[np.ix_(keep_rows, keep_cols)]
    targets = values[keep_rows, t_col]
    if features.shape[0] == 0:
        raise DataError(f"{path}: no usable rows after applying missing policy {missing!r}")
    if target_bounded_01 and (targets.min() < 0.0 or targets.max() > 1.0):
        raise DataError(
            f"{path}: target_bounded_01 is set but targets span "
            f"[{targets.min()}, {targets.max()}]"
        )
    return Dataset(
        features=features,
        targets=targets,
        split=None,
        name=name or str(path),
        target_bounded_01=target_bounded_01,
        feature_names=tuple(col_names),
    )


def split_dataset(dataset: Dataset, fractions=(0.6, 0.2, 0.2), seed: int = 0) -> Dataset:
    """Random train/val/test split; rounding leftovers go to the train split.
    The result drops dataset's neighbors, which belong to the old train rows."""
    fr = tuple(float(f) for f in fractions)
    if len(fr) != 3 or not all(0 < f <= 1 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must be 3 finite positive numbers summing to 1, "
                          f"got {fractions}")
    n = dataset.n_rows
    sizes = [int(math.floor(n * f)) for f in fr]
    sizes[0] += n - sum(sizes)
    if min(sizes) < 1:
        raise DataError(f"split of {n} rows with fractions {fr} leaves an empty split: {sizes}")
    perm = np.random.default_rng(seed).permutation(n)
    split = np.empty(n, dtype=np.int64)
    split[perm[: sizes[0]]] = TRAIN
    split[perm[sizes[0] : sizes[0] + sizes[1]]] = VAL
    split[perm[sizes[0] + sizes[1] :]] = TEST
    return replace(dataset, split=split, neighbors=None)


def fit_normalizer(dataset: Dataset) -> Normalizer:
    """Per-feature z-score parameters from the train split only.

    Population std (ddof 0). Constant features get std 1 and mean equal to
    the constant, so they normalize to exactly zero.
    """
    rows = dataset.rows(TRAIN) if dataset.split is not None else np.arange(dataset.n_rows)
    X = dataset.features[rows]
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    constant = np.ptp(X, axis=0) == 0.0
    if constant.any():
        mean = np.where(constant, X[0], mean)
        std = np.where(constant, 1.0, std)
    return Normalizer(mean=mean, std=std)


def apply_normalizer(norm: Normalizer, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != norm.mean.shape[0]:
        raise DimensionError(
            f"normalizer is for {norm.mean.shape[0]} features, got {X.shape[-1]}"
        )
    return (X - norm.mean) / norm.std


def normalize_dataset(dataset: Dataset, norm: Normalizer) -> Dataset:
    """dataset with its features put through norm, which it then carries; the
    result drops dataset's neighbors, whose distances were in the old features."""
    return replace(dataset, features=apply_normalizer(norm, dataset.features), normalizer=norm,
                   neighbors=None)


_TILE_BYTES = 1 << 19  # bytes per distance tile: 0.5 MB, cache-resident
_TOP = np.iinfo(np.int16).max  # > any int16 grid distance


def _linf_tiles(A: np.ndarray, B: np.ndarray, upper: bool = False):
    """Yield (s, tile) for each row block [s, s + len(tile)) of A.

    tile[i, j] = max_k |A[s + i, k] - B[c + j, k]| with c = s when upper (the
    block meets only columns j >= s) and c = 0 otherwise, in A's dtype. Each
    tile is built one feature at a time in two preallocated buffers sized
    from len(B), and is overwritten by the next one.
    """
    BT = np.ascontiguousarray(B.T)
    step = max(1, min(len(A), _TILE_BYTES // (A.itemsize * len(B))))  # rows per tile
    bufs = np.empty((2, step * len(B)), dtype=A.dtype)
    for s in range(0, len(A), step):
        rows, cols = A[s : s + step], BT[:, s:] if upper else BT
        tile, tmp = (buf[: len(rows) * cols.shape[1]].reshape(len(rows), -1) for buf in bufs)
        np.subtract(rows[:, :1], cols[0], out=tile)
        np.abs(tile, out=tile)
        for k in range(1, A.shape[1]):
            np.subtract(rows[:, k : k + 1], cols[k], out=tmp)
            np.abs(tmp, out=tmp)
            np.maximum(tile, tmp, out=tile)
        yield s, tile


def _two_smallest(tile: np.ndarray, axis: int) -> tuple:
    """(smallest, its lowest position, second smallest) along axis, a tie counting twice."""
    first = tile.min(axis)
    if axis == 0:  # argmin(0) runs one short search per column; a weighted max is one pass
        weights = np.arange(len(tile), 0, -1, dtype=np.min_scalar_type(len(tile)))[:, None]
        pos = len(tile) - ((tile == first) * weights).max(0).astype(np.int64)
        at = (pos, np.arange(len(pos)))
    else:
        pos = tile.argmin(1)
        at = (np.arange(len(pos)), pos)
    tile[at] = _TOP  # hide the smallest, then put it back
    second = tile.min(axis)
    tile[at] = first
    return first, pos, second


def _keep_nearer(held, found) -> None:
    """In place: merge found (distance, index, second) into held; ties go to the lower index."""
    (dist, idx, second), (d, cand, d2) = held, found
    np.minimum(second, np.minimum(np.maximum(dist, d), d2), out=second)
    better = (d < dist) | ((d == dist) & (cand < idx))
    dist[better] = d[better]
    idx[better] = cand[better]


def _nearest_from_blocks(X: np.ndarray) -> tuple:
    """(distance, index, second) of each row of X over the other rows of X.

    Each pair is met once. Ties go to the lowest index; a lone row keeps _TOP.
    """
    n = len(X)
    held = (np.full(n, _TOP, X.dtype), np.zeros(n, dtype=np.int64), np.full(n, _TOP, X.dtype))
    for s, tile in _linf_tiles(X, X, upper=True):
        r, e = len(tile), s + len(tile)
        tile[np.arange(r), np.arange(r)] = _TOP
        # Later rows' candidates from this block, then this block's own rows.
        d, j, d2 = _two_smallest(tile[:, r:], 0)
        _keep_nearer([a[e:] for a in held], (d, s + j, d2))
        d, j, d2 = _two_smallest(tile, 1)
        _keep_nearer([a[s:e] for a in held], (d, s + j, d2))
    return held


def _nearest_in(Q: np.ndarray, T: np.ndarray, own=None) -> tuple:
    """(distance, lowest index) in float64 of each row of Q over the rows of T.

    When own is given, Q[i] is T[own[i]], and that row is skipped.
    """
    dist, idx = np.empty(len(Q)), np.empty(len(Q), dtype=np.int64)
    for s, tile in _linf_tiles(Q, T):
        e, r = s + len(tile), np.arange(len(tile))
        if own is not None:
            tile[r, own[s:e]] = np.inf
        idx[s:e] = j = tile.argmin(1)
        dist[s:e] = tile[r, j]
    return dist, idx


def _quantized(A: np.ndarray) -> np.ndarray:
    """A on an int16 grid, rint(s * x), s = 16383 / max|x|: differences fit in int16."""
    peak = float(np.abs(A).max(initial=0.0))
    scale = 16383 / peak if 1e-300 < peak < 8e307 else 0.0  # else s or a difference overflows
    return np.rint(A * scale).astype(np.int16)


def compute_neighbors(dataset: Dataset, stats: dict | None = None) -> Neighbors:
    """Nearest neighbor among the other train rows, for every train row.

    Expects normalized features; distances are L-inf and exact: the lowest
    index among the nearest rows, and the float64 distance bit for bit.

    Screen: the rows are quantized once to int16 (scale s), and the grid
    distances D_q are swept over the upper triangle (d(i, j) equals d(j, i)
    bit for bit, so a row block meets only the columns from its first row
    on, and column minima carry to later rows), keeping per row the smallest
    D_q, the lowest index reaching it, and the second smallest. Since
    |D_q - s*D| <= 1 + 1e-11 (rint, plus float64 rounding), a gap of 3 or
    more certifies the screened row. Confirm: every other row is searched
    again in float64 over all train rows but itself (_nearest_in), and keeps
    the tile's distance. A certified row's distance is recomputed in float64
    from the two rows.
    stats, if given, gets "confirmed": the count.
    """
    rows, X, y = dataset.part(TRAIN)
    if len(rows) < 2:
        raise DataError("nearest-neighbor computation needs at least 2 train rows")
    d, idx, second = _nearest_from_blocks(_quantized(X))
    amb = np.flatnonzero(second.astype(np.int32) - d < 3)  # not certified
    dist = np.abs(X - X[idx]).max(1)
    if len(amb):
        dist[amb], idx[amb] = _nearest_in(X[amb], X, amb)
    if stats is not None:
        stats["confirmed"] = len(amb)
    return Neighbors(rows[idx], dist, np.abs(y - y[idx]))


def nearest_train_distance(dataset: Dataset, X) -> np.ndarray:
    """Exact L-inf distance from each row of X to the closest train row.

    One float64 sweep against every train row, with no int16 screen: the
    distance is the tile's, bit for bit. Memory stays at two (rows, n_train)
    tiles. X must be finite.
    """
    rows = dataset.rows(TRAIN)
    if len(rows) < 1:
        raise DataError("no train rows")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != dataset.n_features:
        raise DimensionError(f"X has {X.shape[1]} features, dataset has {dataset.n_features}")
    if not np.isfinite(X).all():
        raise NonFiniteError("nearest_train_distance: X contains NaN or infinity")
    return _nearest_in(X, dataset.features[rows])[0]


def save_dataset_cache(path, dataset: Dataset, provenance: dict | None = None) -> None:
    """Write a prepared dataset, with its normalizer and neighbors, as a cache pair.

    The features go first, to path with the suffix .npy: np.save of their
    C-ordered '<f8' array. The JSON document goes last, to path, in the bytes
    of json.dump(doc, f, sort_keys=True) plus a newline (json.dumps uses the
    C encoder; json.dump always runs the pure-Python one). In it the features
    are {"sha256": <hex sha256 of their row-major '<f8' bytes>}, every other
    key is plain JSON, and the neighbors are columns {"index": [...],
    "distance": [...], "label_gap": [...]}, aligned with the train rows.

    provenance, if given, is stored as is: a flat JSON object of the fields
    the cache was built from, which load_dataset_cache can later check.
    """
    norm, neighbors = dataset.normalizer, dataset.neighbors
    if norm is None or neighbors is None:
        raise DataError("cannot cache a dataset that is not prepared: it needs its normalizer "
                        "and its neighbors")
    npy = Path(path).with_suffix(".npy")
    if npy == Path(path):
        raise DataError(f"dataset cache {path} would be overwritten by its own features")
    features = np.ascontiguousarray(dataset.features, dtype="<f8")
    np.save(npy, features, allow_pickle=False)
    doc = {
        "name": dataset.name,
        "target_bounded_01": dataset.target_bounded_01,
        "feature_names": list(dataset.feature_names),
        "features": {"sha256": hashlib.sha256(features).hexdigest()},
        "targets": dataset.targets.tolist(),
        "split": [SPLIT_NAMES[s] for s in dataset.split],
        "normalizer": {"mean": norm.mean.tolist(), "std": norm.std.tolist()},
        "neighbors": {name: col.tolist() for name, col in neighbors._asdict().items()},
    }
    if provenance is not None:
        doc["provenance"] = provenance
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, sort_keys=True) + "\n")


def check_provenance(what: str, stamped: dict, provenance: dict, remedy: str) -> None:
    """Raise a ConfigError unless the stamp equals provenance, naming the first
    field that differs: a field of provenance, then a stamped field it lacks.

    what says where the stamp came from ("dataset cache ... was prepared"),
    remedy what to run to rebuild it.
    """
    for field in [*provenance, *(k for k in stamped if k not in provenance)]:
        if field not in stamped or field not in provenance or stamped[field] != provenance[field]:
            have, want = (f"{field}={d[field]!r}" if field in d else f"no {field}"
                          for d in (stamped, provenance))
            raise ConfigError(f"{what} with {have} but this run has {want}; {remedy}")


def load_dataset_cache(path, provenance: dict | None = None) -> Dataset:
    """Inverse of save_dataset_cache: the prepared Dataset, with its normalizer and neighbors.

    The features are read, never unpickled, from path with the suffix .npy
    into a new writable array, which must be C-ordered '<f8' of shape
    [len(targets), len(feature_names)] and hash to the document's sha256.
    The rest must pass Dataset's checks, and no JSON object may repeat a key.
    A cache that fails a check, or a file of it that cannot be read, raises a
    DataError naming the file and saying to run prepare again. If provenance
    is given, the cache's stamp must equal it; otherwise a ConfigError names
    the first field that differs.
    """
    npy = Path(path).with_suffix(".npy")
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, object_pairs_hook=unique_keys)
        n, d = len(doc["targets"]), len(doc["feature_names"])
        with open(npy, "rb") as f:
            try:
                features = np.lib.format.read_array(f, allow_pickle=False)
            except ValueError as e:
                raise ValueError(f"{npy} is not a readable .npy array: {e}") from None
        if features.dtype != "<f8" or features.shape != (n, d) \
                or not features.flags.c_contiguous:
            order = "C" if features.flags.c_contiguous else "Fortran"
            raise ValueError(f"{npy} holds a {order}-ordered {features.dtype.str!r} array of "
                             f"shape {features.shape}, not a C-ordered '<f8' one of shape "
                             f"{(n, d)}")
        if hashlib.sha256(features).hexdigest() != doc["features"]["sha256"]:
            raise ValueError(f"{npy} is not the features this cache was prepared with "
                             "(sha256 differs)")
        dataset = Dataset(
            features=features,
            targets=np.asarray(doc["targets"], dtype=np.float64),
            split=np.array([SPLIT_NAMES.index(s) for s in doc["split"]], dtype=np.int64),
            name=doc["name"],
            target_bounded_01=bool(doc["target_bounded_01"]),
            feature_names=tuple(doc["feature_names"]),
            normalizer=Normalizer(**doc["normalizer"]),
            neighbors=Neighbors(**doc["neighbors"]),
        )
    except (KeyError, ValueError, TypeError) as e:  # ValueError: a DataError of Dataset's too
        raise DataError(f"malformed dataset cache {path}: {e}; run prepare again") from e
    except OSError as e:
        raise DataError(f"cannot read dataset cache {path}: {e}; run prepare again") from e
    if provenance is not None:
        check_provenance(f"dataset cache {path} was prepared", doc.get("provenance") or {},
                         provenance, "run prepare again")
    return dataset
