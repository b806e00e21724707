import csv
import io

import numpy as np
import pytest

from efftree.data import (
    Categorical,
    Continuous,
    DataError,
    Dataset,
    Ordinal,
    Schema,
    SubgroupMask,
    _BLOCK_ROWS,
    csv_blocks,
    load_csv,
    write_csv,
)


def schema_simple():
    return Schema(
        (("x1", Continuous()), ("color", Categorical(("red", "green", "blue")))),
        treatment="A",
        outcome="Y",
    )


def write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    path = write(tmp_path, "x1,color,A,Y\n1.0,red,0,2.5\n2.0,green,1,3.5\n3.0,blue,0,1.0\n4.0,red,1,0.0\n")
    data = load_csv(path, schema_simple())
    assert data.n == 4
    assert np.array_equal(data.treatment, [0, 1, 0, 1])
    assert np.array_equal(data.column("color"), [0, 1, 2, 0])


def test_load_csv_drop_rows(tmp_path):
    path = write(tmp_path, "x1,color,A,Y\n1.0,red,0,\n2.0,green,1,3.5\n")
    data = load_csv(path, schema_simple(), missing_policy="drop_rows")
    assert data.n == 1


def test_load_csv_reject_missing(tmp_path):
    path = write(tmp_path, "x1,color,A,Y\n1.0,red,0,\n")
    with pytest.raises(DataError, match="missing"):
        load_csv(path, schema_simple(), missing_policy="reject")


def test_load_csv_invalid_treatment(tmp_path):
    path = write(tmp_path, "x1,color,A,Y\n1.0,red,2,1.0\n")
    with pytest.raises(DataError, match="invalid treatment"):
        load_csv(path, schema_simple())


def test_load_csv_unknown_level(tmp_path):
    path = write(tmp_path, "x1,color,A,Y\n1.0,purple,1,1.0\n")
    with pytest.raises(DataError, match="unknown level"):
        load_csv(path, schema_simple())


def test_load_csv_unparseable_cell(tmp_path):
    path = write(tmp_path, "x1,color,A,Y\nabc,red,1,1.0\n")
    with pytest.raises(DataError, match="unparseable"):
        load_csv(path, schema_simple())


def test_load_csv_header_mismatch(tmp_path):
    path = write(tmp_path, "x1,A,Y\n1.0,1,1.0\n")
    with pytest.raises(DataError, match="header"):
        load_csv(path, schema_simple())


def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path):
    plain = write(tmp_path, "x1,color,A,Y\n1.0,red,0,2.5\n2.0,green,1,3.5\n")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_csv(bom, schema_simple()) == load_csv(plain, schema_simple())


def test_load_csv_rejects_duplicated_header_column(tmp_path):
    # the header's column set matches the schema, but x1 appears twice
    path = write(tmp_path, "x1,x1,color,A,Y\n1.0,2.0,red,1,1.0\n")
    with pytest.raises(DataError, match="duplicated header column.*x1"):
        load_csv(path, schema_simple())


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    n = 40
    schema = Schema(
        (("x1", Continuous()), ("grade", Ordinal(("low", "mid", "high")))),
        treatment="A",
        outcome="Y",
    )
    data = Dataset(
        schema,
        {"x1": rng.standard_normal(n), "grade": rng.integers(0, 3, n)},
        rng.integers(0, 2, n),
        rng.standard_normal(n),
    )
    path = tmp_path / "round.csv"
    write_csv(data, path)
    again = load_csv(path, schema)
    assert again == data


def test_csv_blocks_match_csv_writer_across_block_edges():
    # the rows span three blocks; the levels need quoting, and the extra
    # column maps codes to text the way predict's effect column does
    rng = np.random.default_rng(5)
    n = 2 * _BLOCK_ROWS + 88
    colors = ("red", "a,b", 'say "hi"', "two\nlines", "cr\rlf")
    schema = Schema(
        (("x1", Continuous()), ("color", Categorical(colors)),
         ("grade", Ordinal(("low", "mid", "high")))),
        treatment="A",
        outcome="Y",
    )
    data = Dataset(
        schema,
        {"x1": rng.standard_normal(n) * 1e3, "color": rng.integers(0, 5, n),
         "grade": rng.integers(0, 3, n)},
        rng.integers(0, 2, n),
        rng.standard_normal(n) / 7.0,
    )
    extra = rng.integers(0, 3, n)
    names = ("zero", "one", "two")
    out = io.StringIO()
    csv.writer(out).writerows(
        [repr(float(data.covariates["x1"][i])), colors[data.covariates["color"][i]],
         schema.kind_of("grade").levels[data.covariates["grade"][i]],
         str(int(data.treatment[i])), repr(float(data.outcome[i])), names[extra[i]]]
        for i in range(n)
    )
    blocks = list(csv_blocks(data, [(extra, names.__getitem__)]))
    assert len(blocks) == 3
    assert "".join(blocks) == out.getvalue()


def test_load_csv_strips_cells_and_drops_padded_missing(tmp_path):
    path = write(tmp_path, "x1,color,A,Y\n 1.5 , red ,1, 2.0\n2.0,green,0, NA \n")
    data = load_csv(path, schema_simple())
    assert data.n == 1
    assert data.covariates["x1"][0] == 1.5
    assert data.covariates["color"][0] == 0
    assert data.treatment[0] == 1 and data.outcome[0] == 2.0


def test_load_csv_names_the_line_of_a_bad_outcome(tmp_path):
    rows = "x1,color,A,Y\n1.0,red,0,2.5\n2.0,green,0,{}\n"
    path = write(tmp_path, rows.format("inf"))
    with pytest.raises(DataError, match=r"^line 3: non-finite value in column 'Y'$"):
        load_csv(path, schema_simple())
    path = write(tmp_path, rows.format("x"))
    with pytest.raises(DataError, match=r"^line 3: unparseable value 'x' for continuous column 'Y'$"):
        load_csv(path, schema_simple())


def test_dataset_rejects_bad_treatment():
    schema = Schema((("x1", Continuous()),), treatment="A", outcome="Y")
    with pytest.raises(DataError):
        Dataset(schema, {"x1": np.zeros(3)}, np.array([0, 1, 2]), np.zeros(3))


def test_dataset_rejects_nonfinite_outcome():
    schema = Schema((("x1", Continuous()),), treatment="A", outcome="Y")
    with pytest.raises(DataError):
        Dataset(schema, {"x1": np.zeros(2)}, np.array([0, 1]), np.array([1.0, np.inf]))


def test_schema_rejects_duplicate_names():
    with pytest.raises(DataError):
        Schema((("x1", Continuous()), ("x1", Continuous())), treatment="A", outcome="Y")
    with pytest.raises(DataError):
        Schema((("A", Continuous()),), treatment="A", outcome="Y")


def test_kind_level_validation():
    with pytest.raises(DataError):
        Categorical(())
    with pytest.raises(DataError):
        Ordinal(("a", "a"))


@pytest.mark.parametrize("level", [" B", "B ", "\tB", "", "NA", "NaN", "nan"])
def test_levels_no_csv_can_hold_are_rejected(level):
    # a cell is read stripped, and a missing token is a missing cell
    for kind in (Categorical, Ordinal):
        with pytest.raises(DataError, match="cannot be read from CSV"):
            kind(("A", level))


def test_dataset_immutable():
    schema = Schema((("x1", Continuous()),), treatment="A", outcome="Y")
    data = Dataset(schema, {"x1": np.zeros(2)}, np.array([0, 1]), np.zeros(2))
    with pytest.raises(ValueError):
        data.outcome[0] = 5.0
    with pytest.raises(ValueError):
        data.column("x1")[0] = 5.0


def test_mask_from_indices_accepts_arrays_and_iterables():
    expected = np.array([False, True, False, True, True])
    for indices in (np.array([1, 3, 4]), np.array([4, 1, 3], dtype=np.int32), [1, 3, 4],
                    (1, 3, 4), (i for i in (1, 3, 4))):
        mask = SubgroupMask.from_indices(5, indices)
        assert np.array_equal(mask.bits, expected)
        assert mask.size == 3
    assert SubgroupMask.from_indices(5, np.array([], dtype=np.int64)).size == 0
    assert SubgroupMask.from_indices(5, []).size == 0
