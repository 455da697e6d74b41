import csv
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from har import data
from har.data import (
    GENERATOR_NAME,
    Dataset,
    ScalingParams,
    SplitSpec,
    apply_scaling,
    fit_scaling,
    load_csv,
    read_table,
    rmse,
    rng_from,
    split_dataset,
    write_json,
    write_table,
)
from har.exceptions import (
    DimensionMismatchError,
    HarError,
    InvalidInputError,
    InvalidParameterError,
    NonNumericColumnError,
    SchemaError,
)
from har.kernels import DesignMatrix, KernelSpec
from har.solver import FittedModel, model_from_dict, model_to_dict


# ---------------------------------------------------------------------------
# seeded randomness

def test_rng_determinism_and_key_separation():
    a = rng_from(7, "x").standard_normal(5)
    b = rng_from(7, "x").standard_normal(5)
    c = rng_from(7, "y").standard_normal(5)
    d = rng_from(8, "x").standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert GENERATOR_NAME == "numpy.random.PCG64"


def test_rng_mixed_key_parts():
    a = rng_from(1, "cell", 3, 9).uniform()
    b = rng_from(1, "cell", 3, 9).uniform()
    c = rng_from(1, "cell", 9, 3).uniform()
    assert a == b and a != c


def test_rng_seed_validation():
    with pytest.raises(InvalidParameterError):
        rng_from(-1, "x")
    with pytest.raises(InvalidParameterError):
        rng_from(1.5, "x")


# ---------------------------------------------------------------------------
# csv ingestion

def test_read_three_row_example(write_csv):
    path = write_csv("t.csv", ["a", "b", "y"], [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    ds = load_csv(path)
    assert ds.n == 3 and ds.p == 2
    assert np.array_equal(ds.target, [3.0, 6.0, 9.0])
    assert ds.feature_names == ("a", "b") and ds.target_name == "y"


def test_header_only_file(write_csv):
    path = write_csv("h.csv", ["a", "y"], [])
    names, rows, dropped = read_table(path)
    assert names == ["a", "y"] and rows.shape[0] == 0 and dropped == 0
    with pytest.raises(InvalidInputError):
        load_csv(path)


def test_blank_cell_drops_row_with_warning(write_csv):
    path = write_csv("b.csv", ["a", "y"], [[1, 2], ["", 4], [5, 6]])
    with pytest.warns(UserWarning, match="dropped 1 row"):
        ds = load_csv(path)
    assert ds.n == 2 and ds.n_dropped == 1
    # a blank cell sends the whole body to the per-cell loop, whose nan and
    # inf rows the same filter drops and counts in the same single warning
    path = write_csv("mixed.csv", ["a", "y"], [[1, 2], ["", 4], ["nan", 5], [6, "inf"], [7, 8]])
    with pytest.warns(UserWarning) as caught:
        header, rows, dropped = read_table(path)
    assert [str(w.message) for w in caught] == [f"{path}: dropped 3 rows with missing or non-finite cells"]
    assert dropped == 3 and rows.tolist() == [[1.0, 2.0], [7.0, 8.0]]


def test_non_finite_cell_drops_row(write_csv):
    path = write_csv("inf.csv", ["a", "y"], [[1, 2], ["inf", 4], ["nan", 5]])
    with pytest.warns(UserWarning):
        ds = load_csv(path)
    assert ds.n == 1


def test_ragged_row_rejected_with_line_number(write_csv):
    path = write_csv("r.csv", ["a", "b", "y"], [[1, 2, 3], [4, 5]])
    with pytest.raises(SchemaError, match=":3:"):
        read_table(path)


def test_non_numeric_column_named(write_csv):
    path = write_csv("n.csv", ["a", "color", "y"], [[1, "red", 3]])
    with pytest.raises(NonNumericColumnError, match="color"):
        read_table(path)


def test_header_problems(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(SchemaError):
        read_table(empty)
    dup = tmp_path / "d.csv"
    dup.write_text("a,a\n1,2\n")
    with pytest.raises(SchemaError, match="duplicate"):
        read_table(dup)
    blank = tmp_path / "bl.csv"
    blank.write_text("a,,c\n1,2,3\n")
    with pytest.raises(SchemaError, match="blank"):
        read_table(blank)
    for text in ("\n", "\ufeff\n"):  # an empty header line: no columns at all
        no_columns = tmp_path / "nc.csv"
        no_columns.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match="feature column"):
            load_csv(no_columns)


def test_non_utf8_file_rejected_as_schema_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,y\n0.5,1\n\xe9,2\n")
    with pytest.raises(SchemaError, match="not UTF-8"):
        read_table(path)


#: form -> (file text, whether np.loadtxt parses its body); a form it does
#: not parse is read by the per-cell loop alone
_READ_FORMS = {
    "underscore": ("a,b\n1_000,2\n", False),
    "quoted number": ('a,b\n"2",3\n', False),
    "blank cell": ("a,b\n1,\n2,3\n", False),
    "full-width digit": ("a,b\n\uff12,3\n", False),
    "padded": ("a,b\n 2 ,3\n-0.0,\t4\n", True),
    "non-finite": ("a,b\nnan,1\n-inf,2\nInfinity,3\n1e400,4\n+.5,5\n", True),
    "hash": ("a,b\n1#2,3\n", False),
    "hash in the last cell": ("a,b\n1,2#3\n", False),
    "hex": ("a,b\n0x10,3\n", False),
    "trailing comma": ("a,b\n1,2,\n", False),
    "whitespace-only line": ("a\n1\n   \n2\n", False),
    "blank line": ("a,b\n1,2\n\n3,4\n", True),
    "CRLF": ("a,b\r\n1,2\r\n3,4\r\n", True),
    "byte-order mark": ("\ufeffa,b\n1,2\n", True),
    "one column": ("a\n1\n2\n", True),
    "header only": ("a,b\n", False),
    "header and blank lines": ("a,b\n\n\r\n", False),
    "empty header line": ("\n", False),
    "ragged": ("a,b\n" + "1,2\n" * 50 + "3\n", False),  # np.loadtxt fails 50 rows in
}


def _read_outcome(path):
    """read_table's result (rows by their bytes) or error, with every warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            header, rows, dropped = read_table(path)
            result = (header, rows.shape, rows.tobytes(), dropped)
        except HarError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("form", _READ_FORMS)
def test_read_fast_path_matches_cell_loop(tmp_path, monkeypatch, form):
    text, parsed = _READ_FORMS[form]
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    fast_bodies = []
    loadtxt_body = data._loadtxt_body

    def spy(fh, width):
        rows = loadtxt_body(fh, width)
        fast_bodies.append(rows is not None)
        return rows

    monkeypatch.setattr(data, "_loadtxt_body", spy)
    fast = _read_outcome(path)
    assert fast_bodies == [parsed]
    monkeypatch.setattr(data, "_loadtxt_body", lambda fh, width: None)
    assert fast == _read_outcome(path)
    # the loop emits no numpy warning, so neither did np.loadtxt
    assert all(category is UserWarning and "dropped" in message for category, message in fast[1])


def test_write_table_array_bytes_match_csv_writer(tmp_path):
    header = ["a", "b,c", 'q"x']
    rows = np.array([
        [-0.0, float("nan"), float("inf")],
        [-float("inf"), 5e-324, 1e16],
        [0.1 + 0.2, 1.0, -2.5],
        *rng_from(3, "write").uniform(-1e3, 1e3, size=(2100, 3)),
    ])
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows.tolist())
    path = tmp_path / "w.csv"
    write_table(path, header, rows)
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
    assert path.read_text().splitlines()[:3] == ['a,"b,c","q""x"', "-0.0,nan,inf", "-inf,5e-324,1e+16"]


def test_failed_write_json_keeps_the_old_file(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"a": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, {"a": 1, "b": object()})  # fails mid-dump, after '"b": '
    assert path.read_bytes() == before and [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_failed_write_table_keeps_the_old_file(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a"], [[1.0]])
    before = path.read_bytes()

    def rows():
        yield [2.0]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_table(path, ["a"], rows())
    assert path.read_bytes() == before and [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def _predictions_for(table):
    """Any float64 values, one per kept row, with many repr lengths."""
    rows = table[1]
    return np.sin(rows.sum(axis=1)) * 10.0 ** (np.arange(rows.shape[0]) % 7 - 3)


def _write_predictions_outcome(path, out):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = read_table(path)
    preds = _predictions_for(table)
    data.write_predictions(out, table, "prediction", preds)
    return table, preds


def test_write_predictions_of_a_write_table_file_matches_the_reprint(tmp_path):
    header = ["a", "b,c", "y"]
    rows = rng_from(5, "copy").uniform(-1e3, 1e3, size=(2100, 3))  # over 2000 row lines
    rows[[3, 1023, 1024, 2099], [0, 1, 2, 0]] = [np.nan, np.inf, -np.inf, np.nan]
    rows[7] = [-0.0, 5e-324, 1e16]
    src, out, ref = tmp_path / "in.csv", tmp_path / "out.csv", tmp_path / "ref.csv"
    write_table(src, header, rows)
    table, preds = _write_predictions_outcome(src, out)
    assert table[2] == 4
    # the re-printed table every earlier version wrote, kept as the reference
    write_table(ref, table[0] + ["prediction"], np.column_stack([table[1], preds]))
    assert out.read_bytes() == ref.read_bytes()


def test_write_predictions_keeps_each_cell_as_written(tmp_path):
    lines = ["1,0.10", "1e3, 2.5", "6.369616873214542745e-01,-0", "nan,1", "2,inf", "+.5,1E-3 "]
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("a,b\n" + "\n".join(lines) + "\n")
    table, preds = _write_predictions_outcome(src, out)
    written = out.read_text().split("\n")
    assert written[0] == "a,b,prediction" and written[-1] == ""
    kept = [line for line in lines if "nan" not in line and "inf" not in line]
    assert [line.rsplit(",", 1)[0] for line in written[1:-1]] == kept
    assert [float(line.rsplit(",", 1)[1]) for line in written[1:-1]] == preds.tolist()
    header, rows, dropped = read_table(out)
    assert header == ["a", "b", "prediction"] and dropped == 0
    assert np.array_equal(rows, np.column_stack([table[1], preds]))


def test_write_predictions_writes_lf_without_bom_and_skips_blank_lines(tmp_path):
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_bytes("\ufeffa,b\r\n1,2\r\n\r\n\r\n3,4\r\n\n5,6".encode("utf-8"))
    _write_predictions_outcome(src, out)
    text = out.read_bytes()
    assert not text.startswith(b"\xef\xbb\xbf") and b"\r" not in text
    assert [line.rsplit(b",", 1)[0] for line in text.split(b"\n")] == [b"a,b", b"1,2", b"3,4", b"5,6", b""]


@pytest.mark.parametrize("body", ['"2",3\n4,5\n', "2,\n4,5\n6,7\n"], ids=["quoted cell", "blank cell"])
def test_write_predictions_copies_a_per_cell_body(tmp_path, body):
    # bodies np.loadtxt rejects: their kept lines are copied all the same
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("a,b\n" + body)
    table, preds = _write_predictions_outcome(src, out)
    kept = [line for line in body.splitlines() if not line.endswith(",")]
    assert out.read_text() == "a,b,prediction\n" + "".join(f"{line},{p!r}\n" for line, p in zip(kept, preds.tolist()))
    header, rows, dropped = read_table(out)
    assert header == ["a", "b", "prediction"] and dropped == 0
    assert np.array_equal(rows, np.column_stack([table[1], preds]))


@pytest.mark.parametrize(
    "text",
    ['a,b\n1,2\n\n"3\n4",5\n', 'a,b\n1,2\n\n3,"4\n5"\n', 'a,b\n1,2\n\n3,"4\n",5\n', 'a\n1\n\n"3\n"\n'],
    ids=["first cell", "last cell", "cells on both lines", "one column"],
)
def test_a_quoted_cell_across_a_line_break_is_rejected(tmp_path, text):
    # each row line is one row, so a quote must close on the line that opens it
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(SchemaError, match=r"in\.csv:4: a quoted cell is not closed on its line"):
        read_table(path)


@pytest.mark.parametrize(
    "text, line",
    [('a,b\n1,2\n"2"5,3\n', 3), ('a,b\n1,2\n3,"4" \n', 3), ('"a"b,c\n1,2\n', 1)],
    ids=["body cell", "body space after quote", "header cell"],
)
def test_text_after_a_closing_quote_is_rejected(tmp_path, text, line):
    # not joined onto the cell: "2"5 is not 25, "a"b is not ab
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(SchemaError, match=rf"in\.csv:{line}: ',' expected after '\"'"):
        read_table(path)


@pytest.mark.parametrize("edit", ["append", "drop", "header"])
def test_write_predictions_rejects_a_file_changed_since_it_was_read(tmp_path, edit):
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("a,b\n" + "".join(f"{i},{i / 3!r}\n" for i in range(1500)))
    table = read_table(src)
    text = src.read_text()
    src.write_text({
        "append": text + "7,8\n",
        "drop": text[: text.rindex("\n", 0, -1) + 1],
        "header": text.replace("a,b", "a,c", 1),
    }[edit])
    with pytest.raises(SchemaError, match="changed since it was read"):
        data.write_predictions(out, table, "prediction", np.zeros(1500))
    assert list(tmp_path.iterdir()) == [src]


def test_write_predictions_to_its_own_input_copies(tmp_path):
    src = tmp_path / "in.csv"
    src.write_text("a,b\n1,0.10\n\n2,3\n")
    table = read_table(src)
    data.write_predictions(src, table, "prediction", np.array([0.5, 1.5]))
    assert src.read_text() == "a,b,prediction\n1,0.10,0.5\n2,3,1.5\n"
    assert list(tmp_path.iterdir()) == [src]


def test_write_predictions_writes_through_a_symlink(tmp_path):
    src, target, link = tmp_path / "in.csv", tmp_path / "target.csv", tmp_path / "link.csv"
    src.write_text("a,b\n1,2\n")
    target.write_text("old\n")
    link.symlink_to(target)
    data.write_predictions(link, read_table(src), "prediction", np.array([0.5]))
    assert link.is_symlink() and target.read_text() == "a,b,prediction\n1,2,0.5\n"


@pytest.mark.parametrize("preds", [[0.5], [0.5, 1.5, 2.5], [[0.5, 1.5]]], ids=["short", "one per line", "2-D"])
def test_write_predictions_rejects_predictions_not_one_per_kept_row(tmp_path, preds):
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("a,b\n1,2\nnan,3\n4,5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = read_table(src)
    with pytest.raises(DimensionMismatchError, match="for 2 kept rows"):
        data.write_predictions(out, table, "prediction", np.array(preds))
    assert not out.exists()


def test_write_predictions_holds_no_copy_of_the_input(tmp_path):
    # the 20000 x 12 input is ~4.5 MB of text and its table 1.9 MB of floats;
    # the writer holds one row line and its output at a time
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    write_table(src, [f"c{j}" for j in range(12)], rng_from(6, "copy-peak").uniform(size=(20000, 12)))
    assert src.stat().st_size > 4_000_000
    table = read_table(src)
    preds = table[1].sum(axis=1)
    tracemalloc.start()
    try:
        data.write_predictions(out, table, "prediction", preds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len(out.read_text().splitlines()) == 20001


def test_target_selection(write_csv):
    path = write_csv("t2.csv", ["a", "b", "y"], [[1, 2, 3], [4, 5, 6]])
    ds = load_csv(path, target="b")
    assert ds.target_name == "b"
    assert np.array_equal(ds.target, [2.0, 5.0])
    assert ds.feature_names == ("a", "y")
    with pytest.raises(SchemaError, match="'z'"):
        load_csv(path, target="z")


def test_single_column_rejected(write_csv):
    path = write_csv("one.csv", ["y"], [[1], [2]])
    with pytest.raises(SchemaError):
        load_csv(path)


def test_dataset_invariants():
    with pytest.raises(InvalidInputError):
        Dataset(
            features=np.array([[np.nan]]), target=np.array([1.0]),
            feature_names=("a",), target_name="y",
        )
    with pytest.raises(DimensionMismatchError):
        Dataset(
            features=np.array([[1.0, 2.0]]), target=np.array([1.0]),
            feature_names=("a",), target_name="y",
        )


# ---------------------------------------------------------------------------
# scaling

def test_min_max_scaling_example():
    params = fit_scaling(np.array([[2.0], [4.0], [6.0]]))
    scaled = apply_scaling(np.array([[2.0], [4.0], [6.0]]), params)
    assert np.array_equal(scaled[:, 0], [0.0, 0.5, 1.0])
    # out-of-range test values clamp into the cube
    assert apply_scaling(np.array([[8.0]]), params)[0, 0] == 1.0
    assert apply_scaling(np.array([[-3.0]]), params)[0, 0] == 0.0
    with pytest.raises(DimensionMismatchError, match="scaling has p=1"):
        apply_scaling(np.array([[2.0, 4.0]]), params)


def test_constant_feature_maps_to_half():
    params = fit_scaling(np.array([[5.0], [5.0], [5.0]]))
    scaled = apply_scaling(np.array([[5.0], [9.0]]), params)
    assert np.all(scaled == 0.5)


def test_training_range_maps_to_full_interval():
    rng = rng_from(50, "data", "range")
    X = rng.uniform(-10, 10, size=(20, 3))
    params = fit_scaling(X)
    scaled = apply_scaling(X, params)
    assert np.all((scaled >= 0.0) & (scaled <= 1.0))
    assert np.allclose(scaled.min(axis=0), 0.0)
    assert np.allclose(scaled.max(axis=0), 1.0)


def test_scaling_params_round_trip():
    # a model file carries the scaling, and reading the file's text back gives the same bits
    params = ScalingParams(mins=np.array([0.0, -2.0]), maxs=np.array([1.0 / 3.0, 3.0]))
    model = FittedModel(
        knots=DesignMatrix([[0.25, 0.75]]), spec=KernelSpec.har(0), lam=0.5, alpha=[1.0], scaling=params
    )
    back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))[0].scaling
    assert np.array_equal(back.mins, params.mins)
    assert np.array_equal(back.maxs, params.maxs)
    with pytest.raises(InvalidInputError):
        ScalingParams(mins=np.array([1.0]), maxs=np.array([0.0]))


# ---------------------------------------------------------------------------
# splitting

def _toy_dataset(n):
    return Dataset(
        features=np.arange(n, dtype=np.float64)[:, None],
        target=np.arange(n, dtype=np.float64),
        feature_names=("a",),
        target_name="y",
    )


def test_split_is_deterministic_partition():
    ds = _toy_dataset(10)
    spec = SplitSpec(train_fraction=0.8, seed=3)
    tr1, te1 = split_dataset(ds, spec)
    tr2, te2 = split_dataset(ds, spec)
    assert np.array_equal(tr1.features, tr2.features)
    assert tr1.n == 8 and te1.n == 2
    combined = np.sort(np.concatenate([tr1.target, te1.target]))
    assert np.array_equal(combined, np.arange(10.0))


def test_split_truncates_before_permuting():
    ds = _toy_dataset(30)
    spec = SplitSpec(train_fraction=0.5, seed=1, max_rows=20)
    tr, te = split_dataset(ds, spec)
    assert tr.n + te.n == 20
    assert np.max(np.concatenate([tr.target, te.target])) < 20


def test_split_validation():
    with pytest.raises(InvalidParameterError):
        SplitSpec(train_fraction=0.0, seed=1)
    with pytest.raises(InvalidParameterError):
        SplitSpec(train_fraction=1.0, seed=1)
    with pytest.raises(InvalidParameterError):
        SplitSpec(train_fraction=0.5, seed=1, max_rows=1)
    # ceil(0.9 * 2) == 2 leaves no test rows
    with pytest.raises(InvalidParameterError):
        split_dataset(_toy_dataset(2), SplitSpec(train_fraction=0.9, seed=1))


# ---------------------------------------------------------------------------
# metrics

def test_rmse_examples():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5), rel=1e-15)
    assert rmse([5.0, 6.0, 7.0], [3.0, 4.0, 5.0]) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(DimensionMismatchError):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(InvalidInputError, match="empty"):
        rmse([], [])
