"""Typed dataset container, validation, and CSV ingestion for (X, A, Y) data.

A dataset holds n observations of covariates X (continuous, categorical, or
ordinal columns), a binary treatment indicator A, and a numeric outcome Y.
Categorical and ordinal cells are stored as integer codes into the declared
level lists. Datasets are immutable after construction and safe to share
across threads; the only state added later is a memo of matrices derived
from the rows (see ``Dataset.derived``).

Inside the package a subgroup is a row-index array: integer indices into
the dataset's rows, kept in the order given, duplicates allowed (a
bootstrap replicate is the resampled indices themselves, and so are the
held-out rows that select the final tree). ``SubgroupMask`` is only the
public entry to ``grow_max_tree``, which takes its indices once.
"""

from __future__ import annotations

import array
import csv
import logging
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

logger = logging.getLogger(__name__)

MISSING_TOKENS = frozenset({"", "NA", "NaN", "nan"})


class DataError(ValueError):
    """Raised for malformed input data (bad cells, bad schema, bad treatment)."""


@dataclass(frozen=True)
class Continuous:
    """Real-valued covariate."""


@dataclass(frozen=True)
class Categorical:
    """Unordered covariate with a fixed set of levels."""

    levels: tuple[str, ...]

    def __post_init__(self):
        _check_levels(self.levels)


@dataclass(frozen=True)
class Ordinal:
    """Ordered covariate; the level tuple fixes the ordering."""

    levels: tuple[str, ...]

    def __post_init__(self):
        _check_levels(self.levels)


CovariateKind = Union[Continuous, Categorical, Ordinal]


def _check_levels(levels: tuple[str, ...]) -> None:
    if len(levels) == 0:
        raise DataError("level list must be non-empty")
    if not all(isinstance(lv, str) for lv in levels):
        raise DataError(f"levels must be strings, got {levels!r}")
    if len(set(levels)) != len(levels):
        raise DataError(f"duplicate levels in {levels!r}")


_JSON_KINDS = {int: "integer", float: "finite number", str: "string", tuple: "list of strings"}


def json_value(payload: dict, key: str, kind: type, optional: bool = False):
    """``payload[key]`` read back from a JSON document under one rule: an
    ``int`` is a JSON integer, a ``float`` a JSON number within the finite
    float range (no NaN, no infinity), a ``tuple`` a list of strings
    (returned as a tuple); a bool is never a number, and null passes only
    when ``optional``. KeyError when the key is missing, ValueError when the
    value breaks the rule."""
    value = payload[key]
    if value is None and optional:
        return None
    if kind is tuple:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    elif kind is float:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind)
    if isinstance(value, bool) or not ok:
        raise ValueError(f"{key} {value!r} is not a JSON {_JSON_KINDS[kind]}")
    return tuple(value) if kind is tuple else value


@dataclass(frozen=True)
class Schema:
    """Column layout of a dataset: covariates plus treatment and outcome names."""

    columns: tuple[tuple[str, CovariateKind], ...]
    treatment: str
    outcome: str

    def __post_init__(self):
        names = [name for name, _ in self.columns]
        all_names = names + [self.treatment, self.outcome]
        if not all(isinstance(name, str) for name in all_names):
            raise DataError(f"column names must be strings, got {all_names!r}")
        if len(set(all_names)) != len(all_names):
            raise DataError("column names must be unique and distinct from treatment/outcome")

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

    def kind_of(self, name: str) -> CovariateKind:
        for col, kind in self.columns:
            if col == name:
                return kind
        raise KeyError(f"unknown covariate {name!r}")

    def column_index(self, name: str) -> int:
        for i, (col, _) in enumerate(self.columns):
            if col == name:
                return i
        raise KeyError(f"unknown covariate {name!r}")


class Dataset:
    """Immutable table of n observations with typed covariates.

    Continuous columns are stored as float64 arrays; categorical and ordinal
    columns as integer code arrays indexing their level list.

    ``derived`` memoizes read-only matrices computed from every row, keyed
    by what they were computed from (the model-design module keys root
    designs by spec). The rows never change, so entries never go stale, and
    growth, selection and the bootstrap, which all index one dataset, share it.
    """

    def __init__(
        self,
        schema: Schema,
        covariates: dict[str, np.ndarray],
        treatment: np.ndarray,
        outcome: np.ndarray,
    ):
        self.schema = schema
        treatment = np.asarray(treatment)
        outcome = np.asarray(outcome, dtype=np.float64)
        n = len(treatment)
        if len(outcome) != n:
            raise DataError("treatment and outcome lengths differ")
        if not np.isin(treatment, (0, 1)).all():
            raise DataError("invalid treatment: values must be 0 or 1")
        if not np.isfinite(outcome).all():
            raise DataError("outcome values must be finite")
        cols: dict[str, np.ndarray] = {}
        for name, kind in schema.columns:
            if name not in covariates:
                raise DataError(f"missing covariate column {name!r}")
            arr = np.asarray(covariates[name])
            if len(arr) != n:
                raise DataError(f"covariate {name!r} length differs from n")
            if isinstance(kind, Continuous):
                arr = arr.astype(np.float64)
                if not np.isfinite(arr).all():
                    raise DataError(f"non-finite value in continuous covariate {name!r}")
            else:
                arr = arr.astype(np.int64)
                if arr.min(initial=0) < 0 or arr.max(initial=0) >= len(kind.levels):
                    raise DataError(f"level code out of range in covariate {name!r}")
            arr.setflags(write=False)
            cols[name] = arr
        self.n = n
        self.covariates = cols
        self.treatment = treatment.astype(np.int8)
        self.treatment.setflags(write=False)
        self.outcome = outcome
        self.outcome.setflags(write=False)
        self.derived: dict = {}

    def column(self, name: str) -> np.ndarray:
        return self.covariates[name]

    def take(self, indices: np.ndarray) -> "Dataset":
        """New dataset holding a copy of the selected rows. The package passes
        row indices instead; this copy is the reference its tests compare to."""
        return Dataset(
            self.schema,
            {name: arr[indices] for name, arr in self.covariates.items()},
            self.treatment[indices],
            self.outcome[indices],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.n == other.n
            and np.array_equal(self.treatment, other.treatment)
            and np.array_equal(self.outcome, other.outcome)
            and all(np.array_equal(self.covariates[k], other.covariates[k]) for k in self.covariates)
        )


class SubgroupMask:
    """Boolean membership of the rows to grow a tree on; `size` counts them."""

    __slots__ = ("bits", "size")

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=bool)
        bits.setflags(write=False)
        self.bits = bits
        self.size = int(bits.sum())

    @classmethod
    def full(cls, n: int) -> "SubgroupMask":
        return cls(np.ones(n, dtype=bool))

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "SubgroupMask":
        if not isinstance(indices, np.ndarray):
            indices = np.fromiter(indices, dtype=np.intp)
        bits = np.zeros(n, dtype=bool)
        bits[indices.astype(np.intp, copy=False)] = True
        return cls(bits)

    def indices(self) -> np.ndarray:
        return np.nonzero(self.bits)[0]


def _parse_continuous(token: str, column: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataError(f"line {line}: unparseable value {token!r} for continuous column {column!r}")
    if not math.isfinite(value):
        raise DataError(f"line {line}: non-finite value in column {column!r}")
    return value


def _level_parser(levels):
    def parse(token: str, column: str, line: int) -> int:
        try:
            return levels.index(token)
        except ValueError:
            raise DataError(f"line {line}: unknown level {token!r} for column {column!r}")
    return parse


def load_csv(path, schema: Schema, missing_policy: str = "drop_rows") -> Dataset:
    """Load and validate a CSV file against a schema.

    The file must carry a header naming every schema column once (order
    free; extra or repeated columns rejected). Cells equal to one of
    ``MISSING_TOKENS`` count as missing; under ``drop_rows`` such rows are
    removed (count logged), under ``reject`` any missing cell raises
    :class:`DataError`. A file that is not UTF-8 text raises
    :class:`DataError` too.
    """
    if missing_policy not in ("reject", "drop_rows"):
        raise ValueError(f"unknown missing_policy {missing_policy!r}")
    with open(path, "r", newline="", encoding="utf-8") as fh:
        try:
            return _load_csv_stream(fh, schema, missing_policy)
        except UnicodeDecodeError as err:
            raise DataError(f"not UTF-8 text: {err}") from None


def _load_csv_stream(fh, schema: Schema, missing_policy: str) -> Dataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty CSV file")
    expected = set(schema.covariate_names) | {schema.treatment, schema.outcome}
    duplicated = sorted({name for name in header if header.count(name) > 1})
    if duplicated:
        raise DataError(f"duplicated header column(s) {duplicated!r}")
    if set(header) != expected:
        raise DataError(f"header {header!r} does not match schema columns {sorted(expected)!r}")
    pos = {name: header.index(name) for name in expected}

    # compact typed buffers so ingestion stays near the on-disk size
    columns = {
        name: array.array("d" if isinstance(kind, Continuous) else "q")
        for name, kind in schema.columns
    }
    treatment = array.array("b")
    outcome = array.array("d")
    # per-column dispatch decided once, not per cell
    a_pos, y_pos = pos[schema.treatment], pos[schema.outcome]
    cells = [
        (pos[name], columns[name].append,
         _parse_continuous if isinstance(kind, Continuous) else _level_parser(kind.levels), name)
        for name, kind in schema.columns
    ]
    n_dropped = 0
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DataError(f"line {line_no}: expected {len(header)} fields, found {len(row)}")
        # the header check makes every cell a schema column, so all are checked
        row = [token.strip() for token in row]
        if not MISSING_TOKENS.isdisjoint(row):
            if missing_policy == "reject":
                raise DataError(f"line {line_no}: missing cell")
            n_dropped += 1
            continue
        a_token = row[a_pos]
        if a_token not in ("0", "1"):
            raise DataError(f"line {line_no}: invalid treatment value {a_token!r}")
        treatment.append(int(a_token))
        y_token = row[y_pos]
        try:
            y = float(y_token)
        except ValueError:
            raise DataError(f"line {line_no}: unparseable outcome {y_token!r}")
        outcome.append(y)
        for p, append, parse, name in cells:
            append(parse(row[p], name, line_no))

    if n_dropped:
        logger.info("dropped %d rows with missing cells", n_dropped)
    arrays = {
        name: np.asarray(vals, dtype=np.float64 if isinstance(schema.kind_of(name), Continuous) else np.int64)
        for name, vals in columns.items()
    }
    return Dataset(schema, arrays, np.asarray(treatment), np.asarray(outcome))


def text_blocks(dataset: Dataset, block: int = 256):
    """Yield ``(start, stop, columns)`` for consecutive row blocks.

    ``columns`` holds the CSV text of rows ``[start, stop)``, one list per
    column in ``write_csv`` header order (covariates, treatment, outcome):
    the same text a per-cell ``repr(float(x))`` / level lookup gives, built
    a column at a time. Working in blocks bounds how many of those strings
    are alive at once.
    """
    for start in range(0, dataset.n, block):
        stop = min(start + block, dataset.n)
        columns = []
        for name, kind in dataset.schema.columns:
            values = dataset.covariates[name][start:stop].tolist()
            if isinstance(kind, Continuous):
                columns.append(list(map(repr, values)))
            else:
                columns.append([kind.levels[code] for code in values])
        columns.append(list(map(str, dataset.treatment[start:stop].tolist())))
        columns.append(list(map(repr, dataset.outcome[start:stop].tolist())))
        yield start, stop, columns


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset back to CSV; loading the result reproduces the dataset."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        names = list(dataset.schema.covariate_names)
        writer.writerow(names + [dataset.schema.treatment, dataset.schema.outcome])
        for _, _, columns in text_blocks(dataset):
            writer.writerows(zip(*columns))
