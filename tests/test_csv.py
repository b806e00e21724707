"""The column-wise CSV reader against the row-at-a-time reference.

``load_csv`` parses blocks of rows a column at a time and sends a block to
its row loop when anything in it is off. ``oracle.load_csv_rows`` checks
every row in turn. On generated token grids both must return the same
dataset, bit for bit, or raise a ``DataError`` with the same message. A
``write_csv`` file must load back to the dataset that was written.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efftree.data import (
    Categorical,
    Continuous,
    Dataset,
    DataError,
    Ordinal,
    Schema,
    load_csv,
    write_csv,
)
from efftree.data import _BLOCK_ROWS as BLOCK
from oracle import load_csv_rows

# row counts on both sides of the block edges
ROW_COUNTS = [2 * BLOCK + 3, BLOCK + 1, BLOCK, BLOCK - 1, 2, 1]
EDGE_ROWS = [0, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 2]
LEVELS = ["lo", "mid", "hi", "B", "a,b", 'say "hi"', "two\nlines", "x y", "0", "1.5", "NULL"]
MISSING = ["", "NA", "NaN", "nan", " NA ", "\tnan"]
NUMBER_TOKENS = ["1_0", "-0.0", "5e-324", "2.5e-310", "1e999", "-1e999", "nan", "inf", "-inf",
                 "Infinity", " 2.5 ", "\t3", "+4.", "1e5", "abc", "0x10", "1__0", "--1"]
TREATMENT_TOKENS = ["0", "1", " 1 ", "2", "1.0", "-0", "true"]


def same_result(path, schema, policy):
    """Assert that the reader and the reference give equal datasets, bit
    for bit, or DataErrors with one message."""
    results = []
    for reader in (load_csv, load_csv_rows):
        try:
            results.append(reader(path, schema, policy))
        except DataError as err:
            results.append(str(err))
    got, want = results
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert_bitwise_equal(got, want)


def assert_bitwise_equal(got: Dataset, want: Dataset) -> None:
    assert got.schema == want.schema and got.n == want.n
    pairs = [(got.treatment, want.treatment), (got.outcome, want.outcome)]
    pairs += [(got.covariates[name], want.covariates[name]) for name in want.covariates]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def schemas(draw):
    kinds = draw(st.lists(st.sampled_from(["continuous", "categorical", "ordinal"]),
                          min_size=1, max_size=3))
    columns = []
    for i, kind in enumerate(kinds):
        if kind == "continuous":
            columns.append((f"x{i}", Continuous()))
        else:
            levels = draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=5, unique=True))
            columns.append((f"c{i}", (Categorical if kind == "categorical" else Ordinal)(
                tuple(levels))))
    return Schema(tuple(columns), treatment="A", outcome="Y")


def clean_tokens(schema: Schema, n: int, rng) -> dict[str, list[str]]:
    """Valid cell text for every column: numbers as ``repr``, levels as is."""
    tokens = {schema.treatment: [str(a) for a in rng.integers(0, 2, n)],
              schema.outcome: [repr(float(y)) for y in rng.standard_normal(n) * 10.0]}
    for name, kind in schema.columns:
        if isinstance(kind, Continuous):
            tokens[name] = [repr(float(x)) for x in rng.standard_normal(n) * 100.0]
        else:
            tokens[name] = [kind.levels[c] for c in rng.integers(0, len(kind.levels), n)]
    return tokens


def odd_tokens(schema: Schema, name: str) -> list[str]:
    """Tokens to plant in a column: odd but valid, missing, and bad."""
    if name == schema.treatment:
        return TREATMENT_TOKENS + MISSING
    if name == schema.outcome:
        return NUMBER_TOKENS + MISSING
    kind = schema.kind_of(name)
    if isinstance(kind, Continuous):
        return NUMBER_TOKENS + MISSING
    return [*kind.levels, f" {kind.levels[0]} ", f"{kind.levels[-1]}\t", "zz"] + MISSING


@st.composite
def token_grids(draw):
    """(schema, header, rows, quoting, line end): a token grid with edits
    planted in clean rows, in a column order of its own."""
    schema = draw(schemas())
    names = [*schema.covariate_names, schema.treatment, schema.outcome]
    header = draw(st.permutations(names))
    n = draw(st.sampled_from(ROW_COUNTS))
    tokens = clean_tokens(schema, n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    rows = [[tokens[name][i] for name in header] for i in range(n)]
    row_at = st.one_of(st.sampled_from(EDGE_ROWS), st.integers(0, 2 * BLOCK + 2))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(row_at) % n
        j = draw(st.integers(0, len(header) - 1))
        rows[i][j] = draw(st.sampled_from(odd_tokens(schema, header[j])))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1]))):  # a row of the wrong width
        i = draw(row_at) % n
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1.0"]
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    line_end = draw(st.sampled_from(["\r\n", "\n"]))
    return schema, header, rows, quoting, line_end


@settings(max_examples=300)
@given(token_grids(), st.sampled_from(["drop_rows", "reject"]))
def test_load_csv_matches_the_row_loop_reference(tmp_path_factory, grid, policy):
    schema, header, rows, quoting, line_end = grid
    out = io.StringIO()
    writer = csv.writer(out, quoting=quoting, lineterminator=line_end)
    writer.writerow(header)
    writer.writerows(rows)
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    path.write_text(out.getvalue(), encoding="utf-8", newline="")
    same_result(path, schema, policy)


SCHEMA = Schema((("x1", Continuous()), ("c", Categorical(("lo", "hi")))), "A", "Y")


@pytest.mark.parametrize("lines", [
    ["1.0,lo,1,2.0"] * (BLOCK - 1) + [" NA ,lo,1,2.0", "1.0,hi,0,inf"],
    ["1.0,lo,1,2.0"] * BLOCK + ["1.0, hi ,0,1_0", "-0.0,lo,1,5e-324"],
    ["1.0,lo,1,2.0"] * (2 * BLOCK) + ["1.0,lo,1"],
    ['"1.5","lo","1","2.0"', "1e999,lo,0,1.0"],
], ids=["missing-then-inf-across-an-edge", "padded-level-after-an-edge",
        "short-row-after-two-blocks", "quoted-then-overflow"])
def test_load_csv_matches_the_row_loop_reference_at_block_edges(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("edge") / "edge.csv"
    path.write_text("x1,c,A,Y\n" + "\n".join(lines) + "\n", encoding="utf-8")
    for policy in ("drop_rows", "reject"):
        same_result(path, SCHEMA, policy)


@pytest.mark.parametrize("column", ["x1", "c", "A", "Y"])
def test_every_odd_token_alone_in_a_block_matches_the_row_loop_reference(tmp_path, column):
    # one planted token in the second of three blocks, the others clean, so
    # the column-wise pass alone decides whether the row loop reads it
    header = ["x1", "c", "A", "Y"]
    clean = ["1.0", "lo", "1", "2.0"]
    j = header.index(column)
    for k, token in enumerate(odd_tokens(SCHEMA, column)):
        rows = [list(clean) for _ in range(2 * BLOCK + 3)]
        rows[BLOCK + 40][j] = token
        out = io.StringIO()
        csv.writer(out).writerows([header, *rows])
        path = tmp_path / f"token{k}.csv"
        path.write_text(out.getvalue(), encoding="utf-8", newline="")
        for policy in ("drop_rows", "reject"):
            same_result(path, SCHEMA, policy)


@st.composite
def datasets(draw):
    schema = draw(schemas())
    n = draw(st.sampled_from([0, *ROW_COUNTS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # wide magnitudes, signed zeros and subnormals next to ordinary values
    special = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1.7976931348623157e308, 0.1])

    def floats():
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        pick = rng.random(n) < 0.2
        values[pick] = rng.choice(special, int(pick.sum()))
        return values

    covariates = {name: floats() if isinstance(kind, Continuous)
                  else rng.integers(0, len(kind.levels), n)
                  for name, kind in schema.columns}
    return Dataset(schema, covariates, rng.integers(0, 2, n), floats())


@settings(max_examples=100)
@given(datasets())
def test_write_csv_then_load_csv_gives_back_the_dataset(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("round") / "round.csv"
    write_csv(data, path)
    # the bytes csv.writer gives for the same cell text
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([*data.schema.covariate_names, data.schema.treatment, data.schema.outcome])
    columns = [data.covariates[name].tolist() if isinstance(kind, Continuous)
               else [kind.levels[code] for code in data.covariates[name]]
               for name, kind in data.schema.columns]
    columns += [data.treatment.tolist(), data.outcome.tolist()]
    writer.writerows([repr(v) if isinstance(v, float) else str(v) for v in row]
                     for row in zip(*columns))
    assert path.read_bytes() == out.getvalue().encode("utf-8")
    assert_bitwise_equal(load_csv(path, data.schema), data)
    assert_bitwise_equal(load_csv_rows(path, data.schema), data)
