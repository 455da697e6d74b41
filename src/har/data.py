"""Dataset ingestion, CSV tables, unit-cube scaling, seeded splits, and metrics.

`read_table` parses a headed CSV and `write_table` writes one with every
float as its ``repr``.  `write_predictions` writes what `read_table` read
plus a prediction column, copying each kept row line as written;
`_row_lines` alone decides which body lines are rows, for both.  These two
and `write_json` write every file through `_replacing`, so a failed write
leaves the old file in place; `read_json` reads every JSON file.

All randomness in the package flows through `rng_from`: one 64-bit master
seed plus a structured key yields an independent PCG64 stream, so every
experiment cell can state exactly where its draws came from.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidParameterError,
    NonNumericColumnError,
    SchemaError,
    _as_matrix,
    _as_vector,
    _check_int,
    _check_real,
)

#: Identity of the base generator, echoed into run artifacts.
GENERATOR_NAME = "numpy.random.PCG64"


def rng_from(seed: int, *key) -> np.random.Generator:
    """Deterministic child stream of a master seed.

    Key parts (ints or strings) become the SeedSequence spawn key; strings
    hash through sha256 to a 32-bit word, ints are masked to 32 bits.  Same
    (seed, key) always gives the same stream; distinct keys give streams that
    are independent by SeedSequence construction.
    """
    seed = _check_int("seed", seed, 0)
    parts = []
    for part in key:
        if isinstance(part, str):
            digest = hashlib.sha256(part.encode("utf-8")).digest()
            parts.append(int.from_bytes(digest[:4], "big"))
        elif isinstance(part, (int, np.integer)) and not isinstance(part, bool):
            parts.append(int(part) & 0xFFFFFFFF)
        else:
            raise InvalidParameterError(f"rng key parts must be ints or strings, got {part!r}")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(parts))
    return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Numeric regression data: features (n, p), target (n,), names, and the
    count of rows dropped during ingestion."""

    features: np.ndarray
    target: np.ndarray
    feature_names: tuple
    target_name: str
    n_dropped: int = 0

    def __post_init__(self):
        feats = _as_matrix(self.features, "features")
        targ = _as_vector(self.target, feats.shape[0], "target", "the features")
        if np.ndim(self.target) != 1:
            raise DimensionMismatchError(f"target must be 1-D, got shape {np.shape(self.target)}")
        if len(self.feature_names) != feats.shape[1]:
            raise DimensionMismatchError(f"{len(self.feature_names)} feature names for {feats.shape[1]} columns")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "target", targ)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


class _Table(tuple):
    """What `read_table` returns: the tuple (header, rows, dropped), which also
    records, for `write_predictions`, the file it came from and `kept`, the
    row filter's mask over the body's row lines."""

    def __new__(cls, header, rows, dropped, source, kept):
        table = super().__new__(cls, (header, rows, dropped))
        table.source, table.kept = source, kept
        return table


def read_table(path) -> tuple[list, np.ndarray, int]:
    """Parse a headed CSV into (column names, float rows, dropped-row count).

    Cells must be numeric or blank.  A blank or non-finite cell (nan/inf)
    drops its whole row, counted and warned about once; a non-blank cell that
    fails to parse as a number rejects the file, naming the column, and so
    does a file that is not UTF-8 text (a leading byte-order mark is skipped).
    The row array may have zero rows (header-only file).

    Each row line (`_row_lines`: every line not empty once its line end is
    stripped) is one row.  The body is parsed by one `np.loadtxt` call when it
    can be; any body that call rejects (a blank, quoted or otherwise unusual
    cell, a whitespace-only line, a ragged row, no row line) is parsed cell by
    cell instead, the same row lines one at a time, and that loop alone
    decides every message.  Every cell `np.loadtxt` accepts, Python ``float``
    parses to the same value, so both give the same rows.  Either parser keeps
    non-finite cells; one row filter after both drops and counts their rows.
    The returned tuple also carries what `write_predictions` needs to copy the
    kept row lines: the path and that filter's mask.
    """
    with _opened(path) as (fh, header):
        body = fh.tell()
        rows = _loadtxt_body(fh, len(header))
        if rows is None:
            fh.seek(body)
            rows = _parse_cells(path, header, fh)
    finite = np.isfinite(rows).all(axis=1)
    dropped = rows.shape[0] - int(np.count_nonzero(finite))
    if dropped:
        rows = rows[finite]
        warnings.warn(f"{path}: dropped {dropped} rows with missing or non-finite cells")
    return _Table(header, rows, dropped, path, finite)


@contextmanager
def _opened(path):
    """`path` opened for reading with its header row read by strict `csv`
    and checked: yields (file at the first body line, column names).  A
    leading byte-order mark is skipped, line ends are kept for `_row_lines`,
    and text that is not UTF-8 is a SchemaError naming the file, as is
    malformed quoting, naming the line too."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            # lines pulled by readline, not by iteration, keep fh.tell() usable
            reader = csv.reader(iter(fh.readline, ""), strict=True)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty file, expected a header row") from None
            except csv.Error as exc:
                raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
            header = [name.strip() for name in header]
            if any(not name for name in header):
                raise SchemaError(f"{path}: blank column name in header")
            if len(set(header)) != len(header):
                raise SchemaError(f"{path}: duplicate column names in header")
            yield fh, header
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _row_lines(readline):
    """The row lines `readline` returns from here on, line ends stripped:
    every line not empty once ``\\r\\n`` is stripped, in order.  The one owner
    of which body lines are rows: `_loadtxt_body` and `_parse_cells` parse
    exactly these, one row each, and `write_predictions` copies them."""
    for line in iter(readline, ""):
        line = line.rstrip("\r\n")
        if line:
            yield line


def _loadtxt_body(fh, width: int) -> np.ndarray | None:
    """The rest of `fh` as one (rows, width) array, one row per row line,
    non-finite cells kept, or None when `np.loadtxt` rejects it, gives
    another width or would see no row line (it warns on those)."""
    lines = _row_lines(fh.readline)
    first = next(lines, None)
    if first is None:
        return None
    try:
        # comments=None: a "#" is a cell character, never the start of a comment
        rows = np.loadtxt(chain([first], lines), delimiter=",", ndmin=2, comments=None)
    except ValueError:  # UnicodeDecodeError too: the loop reports it
        return None
    return rows if rows.shape[1] == width else None


def _parse_cells(path, header: list, fh) -> np.ndarray:
    """The rest of `fh` as rows, each row line split by strict `csv` on its
    own, one ``float`` call per cell, a blank cell as NaN and other
    non-finite cells kept; the owner of every body error message and line
    number.  Text after a closing quote is an error, not part of the cell."""
    width = len(header)
    lineno = 1  # the line `readline` read last, the header being line 1

    def readline():
        nonlocal lineno
        lineno += 1
        return fh.readline()

    rows = []
    for line in _row_lines(readline):
        # a quote left open at the line's end reads on into the empty second line
        reader = csv.reader([line, ""], strict=True)
        try:
            row = next(reader)
        except csv.Error as exc:
            fault = exc if reader.line_num == 1 else "a quoted cell is not closed on its line"
            raise SchemaError(f"{path}:{lineno}: {fault}") from None
        if len(row) != width:
            raise SchemaError(f"{path}:{lineno}: expected {width} cells, got {len(row)}")
        values = []
        for name, cell in zip(header, row):
            text = cell.strip()
            try:
                values.append(float(text or "nan"))
            except ValueError:
                raise NonNumericColumnError(
                    f"{path}: column {name!r} holds non-numeric value "
                    f"{text!r} (row {lineno})"
                ) from None
        rows.append(values)
    return np.array(rows, dtype=np.float64).reshape(len(rows), width)


@contextmanager
def _replacing(path):
    """The one way a file is written: yields a UTF-8 text file, line ends
    as written, on ``<path>.partial`` beside the file `path` names (through
    any symlink), and moves it over `path` once the block completes, so the
    block may still read `path`.  On any error `path` keeps its old bytes,
    or stays absent, and no partial file is left."""
    path = os.path.realpath(path)  # a symlink keeps pointing at the output
    partial = f"{path}.partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(partial)
        raise


def write_table(path, header, rows) -> None:
    """Write a headed CSV that `read_table` reads back: csv quoting, ``\\n``
    line ends, floats as ``repr(float(v))`` (the shortest decimal that
    round-trips).  `rows` is a 2-D array, or row sequences of Python
    scalars."""
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows.tolist() if isinstance(rows, np.ndarray) else rows)


def write_predictions(path, table, column: str, preds) -> None:
    """Write `table`, as `read_table` returned it, plus a last `column` of
    `preds` (one per kept row, each as its ``repr``), with ``\\n`` line ends:
    the header csv-quoted as `write_table` does, then each kept row line as
    written, line end stripped, so cells keep their spelling; `read_table`'s
    row filter mask skips the dropped ones.

    The input is re-read one row line at a time, so no copy of its text is
    held, and a changed header or count of row lines is a SchemaError naming
    it.  The input is closed before `_replacing` moves the output into
    place, so `path` may be the input itself.
    """
    header, rows, _ = table
    preds = np.asarray(preds, dtype=np.float64)
    if preds.shape != (rows.shape[0],):
        raise DimensionMismatchError(f"{preds.shape} predictions for {rows.shape[0]} kept rows")
    changed = SchemaError(
        f"{table.source}: changed since it was read: expected its header and "
        f"{table.kept.shape[0]} row lines"
    )
    with _replacing(path) as fh, _opened(table.source) as (src, header_now):
        if header_now != header:
            raise changed
        csv.writer(fh, lineterminator="\n").writerow([*header, column])
        lines, values = _row_lines(src.readline), iter(preds.tolist())
        for keep in table.kept.tolist():
            line = next(lines, None)
            if line is None:
                raise changed
            if keep:
                fh.write(f"{line},{next(values)!r}\n")
        if next(lines, None) is not None:
            raise changed


def write_json(path, doc) -> None:
    """Write a JSON artifact: two-space indent and a trailing newline."""
    with _replacing(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_json(path) -> dict:
    """The one way a JSON file is read: UTF-8, any BOM skipped, and a JSON
    object at top level; anything else is a SchemaError naming the file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path} must hold a JSON object")
    return doc


def load_csv(path, target: str | None = None) -> Dataset:
    """Load a CSV into a Dataset.  The target is the named column, or the
    last column when no name is given."""
    header, rows, dropped = read_table(path)
    if target is None:
        t_idx = len(header) - 1
    else:
        if target not in header:
            raise SchemaError(f"{path}: no column named {target!r} (have {header})")
        t_idx = header.index(target)
    if len(header) < 2:
        raise SchemaError(f"{path}: need at least one feature column besides the target")
    if rows.shape[0] < 1:
        raise InvalidInputError(f"{path}: no usable data rows")
    f_idx = [j for j in range(len(header)) if j != t_idx]
    return Dataset(
        features=rows[:, f_idx],
        target=rows[:, t_idx],
        feature_names=tuple(header[j] for j in f_idx),
        target_name=header[t_idx],
        n_dropped=dropped,
    )


@dataclass(frozen=True, eq=False)
class ScalingParams:
    """Per-feature (min, max) pairs learned from training rows."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = _as_vector(self.mins, None, "mins")
        maxs = _as_vector(self.maxs, mins.shape[0], "maxs", "mins")
        if np.any(maxs < mins):
            raise InvalidInputError("scaling has max < min for some feature")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def p(self) -> int:
        return self.mins.shape[0]

    @classmethod
    def identity(cls, p: int) -> "ScalingParams":
        return cls(mins=np.zeros(p), maxs=np.ones(p))

    def to_dict(self) -> dict:
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}


def fit_scaling(features: np.ndarray) -> ScalingParams:
    """Column-wise min/max of the training rows."""
    feats = _as_matrix(features, "features")
    return ScalingParams(mins=feats.min(axis=0), maxs=feats.max(axis=0))


def apply_scaling(features: np.ndarray, params: ScalingParams) -> np.ndarray:
    """Map each column through (v - min) / (max - min), clamped to [0, 1].

    A constant training column (max == min) maps everything to 0.5.  Rows
    outside the training range (test data) clamp to the cube boundary.
    """
    feats = _as_matrix(features, "features")
    if feats.shape[1] != params.p:
        raise DimensionMismatchError(
            f"features have p={feats.shape[1]} but scaling has p={params.p}"
        )
    span = params.maxs - params.mins
    safe = np.where(span == 0.0, 1.0, span)
    scaled = (feats - params.mins[None, :]) / safe[None, :]
    scaled = np.where((span == 0.0)[None, :], 0.5, scaled)
    return np.clip(scaled, 0.0, 1.0)


@dataclass(frozen=True)
class SplitSpec:
    """How to split: train fraction, seed, and an optional row cap applied
    before anything else."""

    train_fraction: float = 0.8
    seed: int = 0
    max_rows: int | None = None

    def __post_init__(self):
        _check_real("train_fraction", self.train_fraction, 0.0, 1.0, "()")
        if self.max_rows is not None:
            _check_int("max_rows", self.max_rows, 2)


def split_dataset(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Seeded permutation split.

    Rows beyond ``max_rows`` are discarded first; then a permutation drawn
    from the split seed assigns the first ceil(train_fraction * n) permuted
    rows to train and the rest to test.  Same spec, same split, always.
    """
    n = dataset.n
    if spec.max_rows is not None:
        n = min(n, spec.max_rows)
    perm = rng_from(spec.seed, "split").permutation(n)
    n_train = math.ceil(spec.train_fraction * n)
    if n_train >= n:
        raise InvalidParameterError(
            f"train_fraction {spec.train_fraction} leaves no test rows for n={n}"
        )
    train_idx = perm[:n_train]
    test_idx = perm[n_train:]

    def take(idx):
        return Dataset(
            features=dataset.features[idx],
            target=dataset.target[idx],
            feature_names=dataset.feature_names,
            target_name=dataset.target_name,
        )

    return take(train_idx), take(test_idx)


def rmse(predictions, targets) -> float:
    """Root mean squared error."""
    a = np.asarray(predictions, dtype=np.float64).reshape(-1)
    b = np.asarray(targets, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.size == 0:
        raise InvalidInputError("rmse of empty arrays is undefined")
    return float(np.sqrt(np.mean((a - b) ** 2)))
