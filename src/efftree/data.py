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
held-out rows that select the final tree). No code in the package uses
``SubgroupMask``; it exists only for the benchmark tracer in ``perfbench``.
"""

from __future__ import annotations

import array
import csv
import io
import itertools
import logging
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

logger = logging.getLogger(__name__)

MISSING_TOKENS = frozenset({"", "NA", "NaN", "nan"})
# rows per block when reading and writing CSV text: blocks of 128 rows parse
# and write as fast as blocks of 256, and hold half the cell strings alive
_BLOCK_ROWS = 128


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
    # a CSV cell is read stripped, and a missing token marks a missing cell,
    # so no CSV file could hold such a level
    for lv in levels:
        if lv != lv.strip() or lv in MISSING_TOKENS:
            raise DataError(f"level {lv!r} cannot be read from CSV: it is padded with "
                            "whitespace or is a missing-value token")


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
    """Boolean row membership; `size` counts the rows."""

    __slots__ = ("bits", "size")

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=bool)
        bits.setflags(write=False)
        self.bits = bits
        self.size = int(bits.sum())

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
    :class:`DataError`. A file that is not UTF-8 text, or that the ``csv``
    reader refuses (such as a cell over its field size limit), raises
    :class:`DataError` too; a leading UTF-8 byte-order mark is skipped.
    """
    if missing_policy not in ("reject", "drop_rows"):
        raise ValueError(f"unknown missing_policy {missing_policy!r}")
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            return _load_csv_stream(reader, schema, missing_policy)
        except UnicodeDecodeError as err:
            raise DataError(f"not UTF-8 text: {err}") from None
        except csv.Error as err:
            raise DataError(f"line {reader.line_num}: {err}") from None


def _load_csv_stream(reader, schema: Schema, missing_policy: str) -> Dataset:
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
    # per-column dispatch decided once, not per cell: (position, buffer,
    # column-wise parse, row-loop parse naming the line, column name)
    a_pos = pos[schema.treatment]
    cells = [(pos[schema.outcome], outcome, float, _parse_continuous, schema.outcome)]
    for name, kind in schema.columns:
        if isinstance(kind, Continuous):
            cells.append((pos[name], columns[name], float, _parse_continuous, name))
        else:
            codes = {level: code for code, level in enumerate(kind.levels)}
            cells.append((pos[name], columns[name], codes.__getitem__, _level_parser(kind.levels),
                          name))
    fields = [(a_pos, treatment, {"0": 0, "1": 1}.__getitem__)]
    fields += [(p, buf, parse) for p, buf, parse, _, _ in cells]
    n_dropped = 0
    first_line = 2
    while block := list(itertools.islice(reader, _BLOCK_ROWS)):
        parsed = _parse_columns(block, len(header), fields)
        if parsed is not None:
            for (_, buf, _), values in zip(fields, parsed):
                buf.extend(values)
        else:
            for line_no, row in enumerate(block, start=first_line):
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
                for p, buf, _, parse, name in cells:
                    buf.append(parse(row[p], name, line_no))
        first_line += len(block)

    if n_dropped:
        logger.info("dropped %d rows with missing cells", n_dropped)
    arrays = {
        name: np.asarray(vals, dtype=np.float64 if isinstance(schema.kind_of(name), Continuous) else np.int64)
        for name, vals in columns.items()
    }
    return Dataset(schema, arrays, np.asarray(treatment), np.asarray(outcome))


def _parse_columns(block: list[list[str]], width: int, fields) -> list[list] | None:
    """The values of a block of rows, one list per ``(position, buffer,
    parse)`` field, each column parsed in one pass; None when a row has the
    wrong width, a cell does not parse or a value is not finite. A missing
    token always lands there: no level or treatment code is one, and
    ``float`` refuses it or gives NaN. The row loop then reads the block,
    so it alone drops rows, applies the missing policy and names a bad line."""
    if set(map(len, block)) != {width}:
        return None
    columns = list(zip(*block))
    try:
        parsed = [list(map(parse, columns[p])) for p, _, parse in fields]
    except (ValueError, KeyError):
        return None
    # a finite sum means finite values; a sum that overflows on finite values
    # only costs the block a pass through the row loop
    if not all(map(math.isfinite, map(sum, parsed))):
        return None
    return parsed


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row: quoted when it
    holds a comma, a quote or a line break."""
    out = io.StringIO()
    csv.writer(out).writerow([text])
    return out.getvalue()[:-2]  # without the writer's "\r\n"


def csv_blocks(dataset: Dataset, extra=()):
    """Yield the CSV text of the dataset's rows, one string per block of
    rows, each line ending in CRLF as ``csv.writer`` ends it.

    Columns come in ``write_csv`` header order (covariates, treatment,
    outcome), then one per ``(values, text)`` pair of ``extra``, where
    ``text`` maps a value to its cell. A number is written as
    ``repr(float(x))``, the shortest text that reads back as the same
    float, and a level as ``csv.writer`` writes it. Working in blocks
    bounds how many cell strings are alive at once.
    """
    spec = []
    for name, kind in dataset.schema.columns:
        if isinstance(kind, Continuous):
            spec.append((dataset.covariates[name], repr))
        else:
            spec.append((dataset.covariates[name], list(map(_csv_field, kind.levels)).__getitem__))
    spec += [(dataset.treatment, str), (dataset.outcome, repr), *extra]
    for start in range(0, dataset.n, _BLOCK_ROWS):
        cells = [map(text, values[start:start + _BLOCK_ROWS].tolist()) for values, text in spec]
        yield "\r\n".join(map(",".join, zip(*cells))) + "\r\n"


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset back to CSV; loading the result reproduces the dataset."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        names = list(dataset.schema.covariate_names)
        csv.writer(fh).writerow(names + [dataset.schema.treatment, dataset.schema.outcome])
        fh.writelines(csv_blocks(dataset))
