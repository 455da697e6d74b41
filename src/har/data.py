"""Dataset ingestion, unit-cube scaling, seeded splits, and metrics.

All randomness in the package flows through `rng_from`: one 64-bit master
seed plus a structured key yields an independent PCG64 stream, so every
experiment cell can state exactly where its draws came from.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from dataclasses import dataclass

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
            raise InvalidParameterError(
                f"rng key parts must be ints or strings, got {part!r}"
            )
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
            raise DimensionMismatchError(
                f"{len(self.feature_names)} feature names for {feats.shape[1]} columns"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "target", targ)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


def read_table(path) -> tuple[list, np.ndarray, int]:
    """Parse a headed CSV into (column names, float rows, dropped-row count).

    Cells must be numeric or blank.  A blank or non-finite cell (nan/inf)
    drops its whole row, counted and warned about once; a non-blank cell that
    fails to parse as a number rejects the file, naming the column, and so
    does a file that is not UTF-8 text (a leading byte-order mark is skipped).
    The row array may have zero rows (header-only file).

    The body is parsed by one `np.loadtxt` call when it can be; any file that
    call rejects (a blank, quoted or otherwise unusual cell, a ragged row, no
    data line) is parsed cell by cell instead, and that loop alone decides
    every message.  Every cell `np.loadtxt` accepts, Python ``float`` parses
    to the same value, so both give the same rows.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            # lines pulled by readline, not by iteration, keep fh.tell() usable
            reader = csv.reader(iter(fh.readline, ""))
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty file, expected a header row") from None
            header = [name.strip() for name in header]
            if any(not name for name in header):
                raise SchemaError(f"{path}: blank column name in header")
            if len(set(header)) != len(header):
                raise SchemaError(f"{path}: duplicate column names in header")
            body = fh.tell()
            rows = _loadtxt_body(fh, len(header))
            if rows is None:
                fh.seek(body)
                rows, dropped = _parse_cells(path, header, reader)
            else:
                finite = np.isfinite(rows).all(axis=1)
                dropped = rows.shape[0] - int(np.count_nonzero(finite))
                if dropped:
                    rows = rows[finite]
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} rows with missing or non-finite cells")
    return header, rows, dropped


def _loadtxt_body(fh, width: int) -> np.ndarray | None:
    """The rest of `fh` as one (rows, width) array, non-finite cells kept, or
    None when `np.loadtxt` rejects it, gives another width or would see no
    data line (it warns on those)."""
    start = fh.tell()
    has_data = any(line.strip("\r\n") for line in iter(fh.readline, ""))
    fh.seek(start)
    if not has_data:
        return None
    try:
        # comments=None: a "#" is a cell character, never the start of a comment
        rows = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except ValueError:  # UnicodeDecodeError too: the loop reports it
        return None
    return rows if rows.shape[1] == width else None


def _parse_cells(path, header: list, reader) -> tuple[np.ndarray, int]:
    """(kept rows, dropped-row count) of the body, one cell at a time; the
    owner of every body error message and line number."""
    width = len(header)
    kept = []
    dropped = 0
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue  # trailing blank line
        if len(row) != width:
            raise SchemaError(
                f"{path}:{lineno}: expected {width} cells, got {len(row)}"
            )
        parsed = np.empty(width)
        missing = False
        for j, cell in enumerate(row):
            text = cell.strip()
            if not text:
                missing = True
                continue
            try:
                value = float(text)
            except ValueError:
                raise NonNumericColumnError(
                    f"{path}: column {header[j]!r} holds non-numeric value "
                    f"{text!r} (row {lineno})"
                ) from None
            if not math.isfinite(value):
                missing = True
                continue
            parsed[j] = value
        if missing:
            dropped += 1
            continue
        kept.append(parsed)
    return (np.array(kept) if kept else np.empty((0, width))), dropped


def write_table(path, header, rows) -> None:
    """Write a headed CSV that `read_table` reads back: csv quoting, ``\\n``
    line ends, floats as ``repr(float(v))`` (the shortest decimal that
    round-trips).  `rows` is a 2-D array, or row sequences of Python
    scalars."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if not isinstance(rows, np.ndarray):
            writer.writerows(rows)
            return
        # the lines csv writes for rows of Python floats, which it never quotes
        # and writes as str, their repr; a block at a time, so a large table
        # never exists as Python objects all at once
        for start in range(0, rows.shape[0], 1024):
            fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows[start:start + 1024].tolist()]))


def write_json(path, doc) -> None:
    """Write a JSON artifact: two-space indent and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


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

    @classmethod
    def from_dict(cls, d: dict) -> "ScalingParams":
        # converted here, so text in a model file is a SchemaError, not an input fault
        return cls(*(np.asarray(d[key], dtype=np.float64) for key in ("mins", "maxs")))


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
