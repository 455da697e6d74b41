import csv
import filecmp
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import har
from har.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from har.data import rng_from, write_table
from har.experiments import run_demo


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    lines = [ln for ln in captured.out.splitlines() if ln.strip()]
    assert len(lines) == 1, f"expected one summary line on stdout, got {lines!r}"
    return code, json.loads(lines[0]), captured.err


@pytest.fixture
def train_csv(tmp_path):
    rng = rng_from(77, "cli-train")
    n = 60
    X = rng.uniform(-3, 3, size=(n, 2))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(n)
    path = tmp_path / "train.csv"
    lines = ["u,v,target"]
    for i in range(n):
        lines.append(f"{float(X[i, 0])!r},{float(X[i, 1])!r},{float(y[i])!r}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# fit / predict

def test_fit_writes_model_and_summary(train_csv, tmp_path, capsys):
    out = str(tmp_path / "model.json")
    code, summary, _ = run_cli(
        capsys, "fit", "--data", train_csv, "--kernel", "sobolev",
        "--grid", "15", "--out", out,
    )
    assert code == EXIT_OK
    assert summary["command"] == "fit"
    assert summary["n"] == 60 and summary["p"] == 2
    assert summary["kernel"]["family"] == "sobolev"
    assert summary["lambda"] > 0 and summary["train_rmse"] >= 0
    assert summary["diagnostics"] == {"eigensolver": har.solver.eigensolver()}
    doc = json.loads(open(out).read())
    assert doc["format_version"] == 4
    assert doc["metadata"]["feature_names"] == ["u", "v"]
    assert doc["metadata"]["target_name"] == "target"
    assert doc["metadata"]["config"]["order"] == 0  # default echoed


def test_predict_on_training_file_reproduces_train_rmse(train_csv, tmp_path, capsys):
    model = str(tmp_path / "m.json")
    _, fit_summary, _ = run_cli(
        capsys, "fit", "--data", train_csv, "--kernel", "har", "--grid", "10",
        "--out", model,
    )
    preds = str(tmp_path / "p.csv")
    code, summary, _ = run_cli(
        capsys, "predict", "--model", model, "--data", train_csv, "--out", preds,
    )
    assert code == EXIT_OK
    assert summary["rows"] == 60
    assert summary["rmse"] == fit_summary["train_rmse"]
    with open(preds, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u", "v", "target", "prediction"]
    assert len(rows) == 61


def test_predict_column_reorder_is_fine(train_csv, tmp_path, capsys):
    # features are matched by name, so column order in the file is free
    model = str(tmp_path / "m.json")
    run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", model)
    shuffled = tmp_path / "shuffled.csv"
    with open(train_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    shuffled.write_text("\n".join(",".join([r[2], r[0], r[1]]) for r in rows) + "\n")
    out = str(tmp_path / "p.csv")
    code, summary, _ = run_cli(capsys, "predict", "--model", model, "--data", str(shuffled), "--out", out)
    assert code == EXIT_OK and "rmse" in summary


def test_predict_with_a_model_saved_without_column_names_matches_by_position(train_csv, tmp_path, capsys):
    named = tmp_path / "named.json"
    run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", str(named))
    unnamed = tmp_path / "unnamed.json"
    har.save_model(har.load_model(named)[0], unnamed)
    with open(train_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    features = tmp_path / "features.csv"
    features.write_text("x1,x2\n" + "".join(",".join(r[:2]) + "\n" for r in rows[1:]))
    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert run_cli(capsys, "predict", "--model", str(named), "--data", str(train_csv), "--out", str(p1))[0] == EXIT_OK
    code, summary, _ = run_cli(capsys, "predict", "--model", str(unnamed), "--data", str(features), "--out", str(p2))
    assert code == EXIT_OK and summary["rows"] == 60
    column = [[line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]] for path in (p1, p2)]
    assert column[0] == column[1]
    code, summary, _ = run_cli(capsys, "predict", "--model", str(unnamed), "--data", train_csv, "--out", str(p2))
    assert code == EXIT_RUNTIME and summary["error"]["type"] == "SchemaError"
    assert "exactly its 2 feature columns, got 3" in summary["error"]["message"]


def test_prediction_column_never_overwrites_an_input_column(train_csv, tmp_path, capsys):
    model = str(tmp_path / "m.json")
    run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", model)
    data = tmp_path / "d.csv"
    data.write_text("u,v,prediction\n0.5,0.5,7\n")
    out = tmp_path / "p.csv"
    assert run_cli(capsys, "predict", "--model", model, "--data", str(data), "--out", str(out))[0] == EXIT_OK
    assert out.read_text().split("\n")[0] == "u,v,prediction,prediction_1"


def test_predict_keeps_quoted_header_cells(tmp_path, capsys):
    # header cells holding a comma and a quote must be re-quoted on output
    data = tmp_path / "quoted.csv"
    header = '"a,b","q""x",y'
    data.write_text(header + "\n" + "".join(f"{i / 7!r},{(i % 3) / 2!r},{i / 10!r}\n" for i in range(12)))
    model, out = str(tmp_path / "m.json"), tmp_path / "p.csv"
    assert run_cli(capsys, "fit", "--data", str(data), "--grid", "5", "--out", model)[0] == EXIT_OK
    code, summary, _ = run_cli(capsys, "predict", "--model", model, "--data", str(data), "--out", str(out))
    assert code == EXIT_OK and "rmse" in summary
    assert out.read_bytes().split(b"\n")[0] == (header + ",prediction").encode()


def _spy_predict(monkeypatch, before=None):
    """Record every array `har predict` gets from `predict`; `before` runs first."""
    calls = []
    real = har.cli.predict

    def spy(*args, **kwargs):
        if before is not None:
            before()
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(har.cli, "predict", spy)
    return calls


def test_predict_output_of_a_repr_file_is_the_reprinted_table(train_csv, tmp_path, capsys, monkeypatch):
    # passes before the line copy too: the copy must keep these bytes
    model, out, ref = str(tmp_path / "m.json"), tmp_path / "p.csv", tmp_path / "ref.csv"
    run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", model)
    calls = _spy_predict(monkeypatch)
    assert run_cli(capsys, "predict", "--model", model, "--data", train_csv, "--out", str(out))[0] == EXIT_OK
    header, rows, _ = har.read_table(train_csv)
    write_table(ref, header + ["prediction"], np.column_stack([rows, calls[0]]))
    assert out.read_bytes() == ref.read_bytes()


def test_predict_copies_kept_lines_and_skips_dropped_ones(train_csv, tmp_path, capsys, monkeypatch):
    model, out = str(tmp_path / "m.json"), tmp_path / "p.csv"
    run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", model)
    lines = ["0.5,1,0.10", "-1e0,2.5e-1, 3", "nan,0,0", "", "2,-inf,1", "6.369616873214542745e-01,0,1"]
    data = tmp_path / "d.csv"
    data.write_bytes(("\ufeffu,v,target\r\n" + "\r\n".join(lines) + "\r\n\r\n").encode("utf-8"))
    calls = _spy_predict(monkeypatch)
    with pytest.warns(UserWarning, match="dropped 2 rows"):
        code, summary, _ = run_cli(capsys, "predict", "--model", model, "--data", str(data), "--out", str(out))
    assert code == EXIT_OK and summary["rows"] == 3 and summary["dropped_rows"] == 2
    assert [len(preds) for preds in calls] == [3]
    written = out.read_bytes().decode("utf-8").split("\n")
    assert written[0] == "u,v,target,prediction" and written[-1] == ""
    assert [line.rsplit(",", 1)[0] for line in written[1:-1]] == [lines[0], lines[1], lines[5]]
    header, rows, dropped = har.read_table(out)
    assert dropped == 0 and np.array_equal(rows[:, -1], calls[0])
    with pytest.warns(UserWarning, match="dropped 2 rows"):
        assert np.array_equal(rows[:, :-1], har.read_table(data)[1])


def test_predict_rejects_an_input_changed_before_the_write(train_csv, tmp_path, capsys, monkeypatch):
    model, out = str(tmp_path / "m.json"), tmp_path / "p.csv"
    run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", model)
    data = tmp_path / "d.csv"
    data.write_text(Path(train_csv).read_text())

    def append_a_row():
        with open(data, "a") as fh:
            fh.write("0.5,0.5,0.5\n")

    _spy_predict(monkeypatch, append_a_row)
    # no --out file, then one that must keep its bytes; no partial file either way
    for before in (None, b"kept\n"):
        if before is not None:
            out.write_bytes(before)
        code, summary, _ = run_cli(capsys, "predict", "--model", model, "--data", str(data), "--out", str(out))
        assert code == EXIT_RUNTIME and summary["error"]["type"] == "SchemaError"
        assert summary["error"]["message"].startswith(f"{data}: changed since it was read")
        assert (out.read_bytes() if out.exists() else None) == before
        assert not list(tmp_path.glob("*.partial"))


def test_predict_can_write_over_its_own_input(train_csv, tmp_path, capsys):
    # passes before the line copy too, which must not truncate what it copies
    model, data = str(tmp_path / "m.json"), tmp_path / "d.csv"
    run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", model)
    data.write_text(Path(train_csv).read_text())
    expected = tmp_path / "p.csv"
    assert run_cli(capsys, "predict", "--model", model, "--data", str(data), "--out", str(expected))[0] == EXIT_OK
    assert run_cli(capsys, "predict", "--model", model, "--data", str(data), "--out", str(data))[0] == EXIT_OK
    assert data.read_bytes() == expected.read_bytes()


def test_predict_reports_clamped_rows(train_csv, tmp_path, capsys):
    # training features span about [-3, 3]; a row is clamped when any of its
    # model features falls outside the training range
    model = str(tmp_path / "m.json")
    run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", model)
    code, summary, _ = run_cli(capsys, "predict", "--model", model, "--data", train_csv, "--out", str(tmp_path / "t.csv"))
    assert code == EXIT_OK and summary["clamped_rows"] == 0
    new = tmp_path / "new.csv"
    new.write_text("target,v,u\n0.0,0.5,0.25\n0.0,0.5,10.0\n0.0,-10.0,0.25\n")
    code, summary, _ = run_cli(capsys, "predict", "--model", model, "--data", str(new), "--out", str(tmp_path / "p.csv"))
    assert code == EXIT_OK
    assert summary["rows"] == 3 and summary["clamped_rows"] == 2


def test_predict_empty_feature_file(train_csv, tmp_path, capsys):
    model = str(tmp_path / "m.json")
    run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", model)
    empty = tmp_path / "empty.csv"
    empty.write_text("u,v\n")
    out = str(tmp_path / "p.csv")
    code, summary, _ = run_cli(capsys, "predict", "--model", model, "--data", str(empty), "--out", out)
    assert code == EXIT_OK and summary["rows"] == 0
    assert open(out).read() == "u,v,prediction\n"


def test_predict_schema_mismatch_fails(train_csv, tmp_path, capsys):
    model = str(tmp_path / "m.json")
    run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", model)
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b\n1,2\n")
    code, summary, _ = run_cli(
        capsys, "predict", "--model", model, "--data", str(wrong), "--out", str(tmp_path / "x.csv"),
    )
    assert code == EXIT_RUNTIME
    assert summary["error"]["type"] == "SchemaError"
    assert "u" in summary["error"]["message"]


@pytest.mark.parametrize(
    "section, key, value, named",
    [(None, "kernel", {}, "model fingerprint mismatch"), ("metadata", "feature_names", 5, "feature_names")],
)
def test_predict_malformed_model_reports_schema_error(
    train_csv, tmp_path, capsys, section, key, value, named
):
    model = tmp_path / "m.json"
    run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", str(model))
    doc = json.loads(model.read_text())
    (doc[section] if section else doc)[key] = value
    model.write_text(json.dumps(doc))
    code, summary, err = run_cli(
        capsys, "predict", "--model", str(model), "--data", train_csv, "--out", str(tmp_path / "p.csv"),
    )
    assert code == EXIT_RUNTIME
    assert summary["error"]["type"] == "SchemaError"
    assert named in summary["error"]["message"]
    assert "Traceback" not in err


def test_byte_order_mark_is_not_part_of_a_column_name(train_csv, tmp_path, capsys):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(train_csv).read_bytes())
    model = tmp_path / "m.json"
    assert run_cli(capsys, "fit", "--data", str(bom), "--grid", "5", "--out", str(model))[0] == EXIT_OK
    assert json.loads(model.read_text())["metadata"]["feature_names"] == ["u", "v"]
    code, summary, _ = run_cli(
        capsys, "predict", "--model", str(model), "--data", train_csv, "--out", str(tmp_path / "p.csv"),
    )
    assert code == EXIT_OK and summary["rows"] == 60


@pytest.mark.parametrize(
    "flag, exit_code, error_type",
    [("--model", EXIT_RUNTIME, "SchemaError"), ("--config", EXIT_USAGE, "UsageError")],
)
def test_non_utf8_model_or_config_file_is_reported(
    train_csv, tmp_path, capsys, flag, exit_code, error_type
):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    argv = ["predict", "--model", str(bad)] if flag == "--model" else ["fit", "--config", str(bad)]
    code, summary, err = run_cli(capsys, *argv, "--data", train_csv, "--out", str(tmp_path / "out"))
    assert code == exit_code
    assert summary["error"]["type"] == error_type
    assert str(bad) in summary["error"]["message"]
    assert "Traceback" not in err


def test_byte_order_mark_before_config_file_is_accepted(train_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'\xef\xbb\xbf{"grid": 5}')
    model = tmp_path / "m.json"
    code, _, _ = run_cli(capsys, "fit", "--config", str(cfg), "--data", train_csv, "--out", str(model))
    assert code == EXIT_OK
    assert json.loads(model.read_text())["metadata"]["config"]["grid"] == 5


def test_byte_order_mark_before_model_file_is_accepted(train_csv, tmp_path, capsys):
    model, bom = tmp_path / "m.json", tmp_path / "bom.json"
    run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", str(model))
    bom.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
    p1, p2 = str(tmp_path / "p1.csv"), str(tmp_path / "p2.csv")
    run_cli(capsys, "predict", "--model", str(model), "--data", train_csv, "--out", p1)
    code, _, _ = run_cli(capsys, "predict", "--model", str(bom), "--data", train_csv, "--out", p2)
    assert code == EXIT_OK
    assert filecmp.cmp(p1, p2, shallow=False)


def test_model_round_trip_bit_identical_predictions(train_csv, tmp_path, capsys):
    model = str(tmp_path / "m.json")
    run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", model)
    p1, p2 = str(tmp_path / "p1.csv"), str(tmp_path / "p2.csv")
    run_cli(capsys, "predict", "--model", model, "--data", train_csv, "--out", p1)
    run_cli(capsys, "predict", "--model", model, "--data", train_csv, "--out", p2)
    assert filecmp.cmp(p1, p2, shallow=False)


# ---------------------------------------------------------------------------
# exit codes and option layers

def test_missing_required_flag_is_usage_error(capsys):
    code, summary, err = run_cli(capsys, "fit", "--kernel", "har")
    assert code == EXIT_USAGE
    assert summary["error"]["type"] == "UsageError"
    assert "--data" in summary["error"]["message"]


def test_missing_file_is_runtime_error(tmp_path, capsys):
    code, summary, _ = run_cli(
        capsys, "fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json"),
    )
    assert code == EXIT_RUNTIME
    assert summary["error"]["type"] == "FileNotFoundError"


def test_unknown_kernel_choice_rejected_by_parser(capsys):
    code, summary, _ = run_cli(capsys, "fit", "--data", "x.csv", "--kernel", "cubic", "--out", "m.json")
    assert code == EXIT_USAGE
    assert summary["error"]["type"] == "UsageError" and "'cubic'" in summary["error"]["message"]


@pytest.mark.parametrize(
    "argv, synopsis",
    [
        (["fit", "--grid", "x"], False),
        (["fit", "--bogus", "1"], True),
        (["fit", "--grid"], True),
        ([], True),
    ],
    ids=["bad-value", "unknown-flag", "missing-value", "no-command"],
)
def test_malformed_command_line_is_one_usage_error_line(capsys, argv, synopsis):
    code, summary, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert summary["error"]["type"] == "UsageError"
    assert ("usage: har" in err) == synopsis  # argparse's synopsis when argv does not split
    assert "Traceback" not in err


def test_fit_help_lists_the_kernel_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--help"])
    assert exc.value.code == EXIT_OK
    out = capsys.readouterr().out
    assert "--kernel {har,sobolev,rbf}" in out and "--config CONFIG" in out


def test_config_file_layer_and_flag_precedence(train_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "sobolev", "grid": 5, "epsilon": 0.01}))
    out = str(tmp_path / "m.json")
    code, summary, _ = run_cli(
        capsys, "fit", "--config", str(cfg), "--data", train_csv,
        "--kernel", "har", "--out", out,
    )
    assert code == EXIT_OK
    assert summary["kernel"]["family"] == "har"  # flag beats config
    doc = json.loads(open(out).read())
    assert doc["metadata"]["config"]["epsilon"] == 0.01  # config beats default
    assert doc["metadata"]["config"]["grid"] == 5


def test_unknown_config_key_is_usage_error(train_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grids": 5}))
    code, summary, _ = run_cli(
        capsys, "fit", "--config", str(cfg), "--data", train_csv, "--out", str(tmp_path / "m.json"),
    )
    assert code == EXIT_USAGE and "grids" in summary["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--seed", "3"],
        *([study, flag, value] for study in ("simulate", "convergence", "bench")
          for flag, value in (("--kernel", "sobolev"), ("--order", "1"))),
        ["convergence", "--reps", "2"],
    ],
    ids="-".join,
)
def test_option_a_command_does_not_read_is_rejected(capsys, argv):
    code, summary, _ = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert summary["error"]["type"] == "UsageError"


def test_config_key_a_command_does_not_read_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "sobolev"}))
    code, summary, _ = run_cli(capsys, "convergence", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert summary["error"]["type"] == "UsageError" and "'kernel'" in summary["error"]["message"]


@pytest.mark.parametrize(
    "make, said",
    [
        (lambda cfg: None, "not found"),
        (lambda cfg: cfg.write_text("[5]"), "must hold a JSON object"),
        (lambda cfg: cfg.mkdir(), "cannot be read"),
    ],
    ids=["missing", "list", "directory"],
)
def test_config_file_missing_or_not_an_object_is_a_usage_error(train_csv, tmp_path, capsys, make, said):
    cfg = tmp_path / "cfg.json"
    make(cfg)
    code, summary, _ = run_cli(
        capsys, "fit", "--config", str(cfg), "--data", train_csv, "--out", str(tmp_path / "m.json"),
    )
    assert code == EXIT_USAGE
    assert summary["error"]["type"] == "UsageError" and said in summary["error"]["message"]
    assert not (tmp_path / "m.json").exists()


def test_config_key_naming_another_config_file_is_rejected(train_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"config": str(tmp_path / "other.json")}))
    code, summary, _ = run_cli(
        capsys, "fit", "--config", str(cfg), "--data", train_csv, "--out", str(tmp_path / "m.json"),
    )
    assert code == EXIT_USAGE
    assert summary["error"]["type"] == "UsageError" and "'config'" in summary["error"]["message"]
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "command, doc",
    [
        ("fit", {"epsilon": "x"}),
        ("convergence", {"n_values": 5}),
        ("fit", {"grid": 2.5}),
        ("fit", {"kernel": "cubic"}),
    ],
)
def test_config_value_checked_like_its_flag(train_csv, tmp_path, capsys, command, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = ["--data", train_csv] if command == "fit" else []
    code, summary, err = run_cli(
        capsys, command, "--config", str(cfg), *argv, "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_USAGE
    assert summary["error"]["type"] == "UsageError"
    assert repr(next(iter(doc))) in summary["error"]["message"]
    assert "Traceback" not in err


# (command, flags, where the value came from): each value breaks the rule of
# the library function that owns it
_OFF_RULE = [
    ("fit", ["--grid", "0"], "--grid"),
    ("fit", ["--epsilon", "2"], "--epsilon"),
    ("fit", ["--order", "13"], "--order"),
    ("fit", ["--order", "-1"], "--order"),
    ("fit", ["--kernel", "rbf", "--order", "13"], "--order"),
    ("fit", ["--threads", "-1"], "--threads"),
    ("fit", ["--config", "grid0.json"], "config key 'grid'"),
    ("predict", ["--threads", "-3"], "--threads"),
    ("simulate", ["--seed", "-1"], "--seed"),
    ("convergence", ["--repeats", "0"], "--repeats"),
    ("convergence", ["--n-values", "5,3"], "--n-values"),
    ("convergence", ["--n-values", "1,5"], "--n-values"),
    ("convergence", ["--test-size", "0"], "--test-size"),
    ("bench", ["--threads", "-1"], "--threads"),
    ("bench", [], "HAR_THREADS"),
    ("bench", ["--seed", "-2"], "--seed"),
    ("bench", ["--repeats", "0"], "--repeats"),
    ("bench", ["--train-frac", "1.5"], "--train-frac"),
    ("bench", ["--max-rows", "1"], "--max-rows"),
    ("bench", ["--datasets", "missing.csv,d2/missing.csv"], "--datasets"),
    ("bench", ["--datasets", ","], "--datasets"),
]


@pytest.mark.parametrize(
    "command, extra, where", _OFF_RULE,
    ids=[" ".join([command, *extra]) if extra else f"{where}=-1 {command}"
         for command, extra, where in _OFF_RULE],
)
def test_value_off_its_owners_rule_is_a_usage_error_before_any_file_is_read(
    tmp_path, capsys, monkeypatch, command, extra, where
):
    # every input file is missing, so only a check made before any file is
    # opened can turn this into a usage error
    monkeypatch.chdir(tmp_path)
    Path("grid0.json").write_text(json.dumps({"grid": 0}))
    if where == "HAR_THREADS":
        monkeypatch.setenv("HAR_THREADS", "-1")
    inputs = {
        "fit": ["--data", "missing.csv"],
        "predict": ["--model", "missing.json", "--data", "missing.csv"],
        "bench": ["--datasets", "missing.csv"],
    }.get(command, [])
    code, summary, err = run_cli(capsys, command, *inputs, *extra, "--out", "out.csv")
    assert code == EXIT_USAGE
    assert summary["error"]["type"] == "UsageError"
    assert summary["error"]["message"].startswith(f"{where}: "), summary
    assert not Path("out.csv").exists() and "Traceback" not in err


def test_fit_threads_change_only_the_recorded_config(train_csv, tmp_path, capsys):
    docs = []
    for threads in ("1", "2"):
        out = tmp_path / f"m{threads}.json"
        code, _, _ = run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--threads", threads, "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["metadata"]["config"].pop("threads") == int(threads)
        del doc["metadata"]["config"]["out"]
        docs.append(doc)
    assert docs[0] == docs[1]


def test_threads_env_fallback(train_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HAR_THREADS", "not-a-number")
    code, summary, _ = run_cli(
        capsys, "fit", "--data", train_csv, "--out", str(tmp_path / "m.json"),
    )
    assert code == EXIT_USAGE and "HAR_THREADS" in summary["error"]["message"]
    monkeypatch.setenv("HAR_THREADS", "1")
    code, summary, _ = run_cli(
        capsys, "fit", "--data", train_csv, "--grid", "5", "--out", str(tmp_path / "m.json"),
    )
    assert code == EXIT_OK


# ---------------------------------------------------------------------------
# study subcommands

def test_simulate_writes_both_files_deterministically(tmp_path, capsys, monkeypatch):
    # identical invocations must be byte-identical, JSON config included
    out1 = tmp_path / "r1" ; out1.mkdir()
    out2 = tmp_path / "r2" ; out2.mkdir()
    for out in (out1, out2):
        monkeypatch.chdir(out)
        code, summary, _ = run_cli(
            capsys, "simulate", "--seed", "11", "--grid", "10",
            "--out", "demo.csv", "--out-json", "demo.json",
        )
        assert code == EXIT_OK
        assert set(summary["chosen"]) == {"har", "sobolev", "rbf"}
    assert filecmp.cmp(out1 / "demo.csv", out2 / "demo.csv", shallow=False)
    assert filecmp.cmp(out1 / "demo.json", out2 / "demo.json", shallow=False)


def test_simulate_json_is_the_runner_record_whatever_the_threads_or_path(tmp_path, capsys):
    for threads, name in (("1", "a"), ("2", "b")):
        code, _, _ = run_cli(
            capsys, "simulate", "--seed", "11", "--grid", "5",
            "--threads", threads, "--out", str(tmp_path / f"{name}.csv"),
        )
        assert code == EXIT_OK
    assert filecmp.cmp(tmp_path / "a.csv", tmp_path / "b.csv", shallow=False)
    assert filecmp.cmp(tmp_path / "a.json", tmp_path / "b.json", shallow=False)
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["config"] == run_demo(11, grid_count=5).config


def test_simulate_derives_json_path(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    code, summary, _ = run_cli(capsys, "simulate", "--seed", "1", "--grid", "5", "--out", str(out))
    assert code == EXIT_OK
    assert summary["out_json"] == str(tmp_path / "demo.json")
    assert (tmp_path / "demo.json").exists()
    # a .json --out keeps its name for the table, so the record takes a longer one
    code, summary, _ = run_cli(capsys, "simulate", "--seed", "1", "--grid", "5", "--out", str(tmp_path / "r.json"))
    assert code == EXIT_OK and summary["out_json"] == str(tmp_path / "r.json.config.json")


def test_out_json_naming_the_out_file_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, summary, _ = run_cli(
        capsys, "simulate", "--seed", "1", "--grid", "5", "--out", str(out), "--out-json", str(tmp_path / "." / "s.csv"),
    )
    assert code == EXIT_USAGE and summary["error"]["type"] == "UsageError"
    assert "--out-json" in summary["error"]["message"] and not out.exists()


_CLOBBERS = {
    # case: (argv, its {paths} filled in; what the usage error must end with)
    "fit-data": (["fit", "--data", "{data}", "--grid", "5", "--out", "{data}"], "--out .* as --data"),
    "predict-model": (["predict", "--model", "{model}", "--data", "{data}", "--out", "{model}"],
                      "--out .* as --model"),
    "bench-datasets": (["bench", "--datasets", "{data}", "--repeats", "1", "--grid", "5", "--out", "{data}"],
                       "--out .* as --datasets"),
    # the --out-json derived from s.csv is s.json, the config file
    "simulate-config": (["simulate", "--config", "{config}", "--out", "{study}"], "--out-json .* as --config"),
}


@pytest.mark.parametrize("case", list(_CLOBBERS))
def test_output_naming_an_input_is_a_usage_error_that_keeps_the_input(train_csv, tmp_path, capsys, case):
    model, config = tmp_path / "m.json", tmp_path / "s.json"
    assert run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", str(model))[0] == EXIT_OK
    config.write_text(json.dumps({"grid": 5}))
    paths = {"data": train_csv, "model": str(model), "config": str(config), "study": str(tmp_path / "s.csv")}
    inputs = [Path(paths[name]) for name in ("data", "model", "config")]
    before, listing = [path.read_bytes() for path in inputs], sorted(tmp_path.iterdir())
    argv, said = _CLOBBERS[case]
    code, summary, _ = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == EXIT_USAGE and summary["error"]["type"] == "UsageError"
    assert re.search(f"{said}$", summary["error"]["message"]), summary
    assert [path.read_bytes() for path in inputs] == before
    assert sorted(tmp_path.iterdir()) == listing  # no output, partial file or derived twin either


def test_predict_may_name_its_data_as_out_even_through_a_symlink(train_csv, tmp_path, capsys):
    model, data, link = str(tmp_path / "m.json"), tmp_path / "d.csv", tmp_path / "link.csv"
    run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", model)
    data.write_text(Path(train_csv).read_text())
    link.symlink_to(data)
    expected = tmp_path / "p.csv"
    assert run_cli(capsys, "predict", "--model", model, "--data", str(data), "--out", str(expected))[0] == EXIT_OK
    assert run_cli(capsys, "predict", "--model", model, "--data", str(data), "--out", str(link))[0] == EXIT_OK
    assert link.is_symlink() and data.read_bytes() == expected.read_bytes()


def test_convergence_subcommand(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code, summary, err = run_cli(
        capsys, "convergence", "--seed", "4", "--repeats", "1",
        "--n-values", "20,40", "--test-size", "100", "--grid", "5",
        "--out", str(out),
    )
    assert code == EXIT_OK
    assert summary["first_ratio"] > summary["last_ratio"]
    assert "replication 1/1" in err  # progress goes to stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3 and rows[0][0] == "n"
    doc = json.loads((tmp_path / "conv.json").read_text())
    assert doc["config"]["operation"] == "convergence"
    assert doc["config"]["seed"] == 4


def test_convergence_bad_n_values(capsys, tmp_path):
    code, summary, _ = run_cli(
        capsys, "convergence", "--n-values", "20,x", "--out", str(tmp_path / "c.csv"),
    )
    assert code == EXIT_USAGE


def test_convergence_at_n_one_is_a_usage_error(capsys, tmp_path):
    code, summary, err = run_cli(
        capsys, "convergence", "--n-values", "1,5", "--repeats", "1", "--test-size", "10",
        "--grid", "3", "--out", str(tmp_path / "c.csv"),
    )
    assert code == EXIT_USAGE
    assert summary["error"]["type"] == "UsageError"
    assert "Traceback" not in err


def test_bench_subcommand(tmp_path, capsys):
    rng = rng_from(5, "cli-bench")
    X = rng.uniform(size=(50, 2))
    y = X[:, 0] + 0.05 * rng.standard_normal(50)
    data = tmp_path / "ds.csv"
    lines = ["a,b,y"] + [
        f"{float(X[i, 0])!r},{float(X[i, 1])!r},{float(y[i])!r}" for i in range(50)
    ]
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "bench.csv"
    code, summary, _ = run_cli(
        capsys, "bench", "--datasets", str(data), "--repeats", "2",
        "--grid", "5", "--seed", "3", "--out", str(out),
    )
    assert code == EXIT_OK
    assert summary["cells"] == 3 and summary["failures"] == []
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4


#: study -> (its arguments, its summary fields projected from its JSON twin)
STUDY_SUMMARIES = {
    "simulate": (["--grid", "5"], lambda doc: {"chosen": doc["chosen"]}),
    "convergence": (
        ["--n-values", "20,40", "--repeats", "1", "--test-size", "50", "--grid", "3"],
        lambda doc: {
            "first_ratio": doc["rows"][0]["ratio"],
            "last_ratio": doc["rows"][-1]["ratio"],
            "mean_rmse": [row["mean_rmse"] for row in doc["rows"]],
        },
    ),
    "bench": (
        ["--datasets", "{train},{missing}", "--repeats", "1", "--grid", "3"],
        lambda doc: {"cells": len(doc["cells"]), "failures": doc["failures"]},
    ),
}


@pytest.mark.parametrize("study", list(STUDY_SUMMARIES))
def test_study_summary_is_a_projection_of_its_json_twin(study, train_csv, tmp_path, capsys):
    args, project = STUDY_SUMMARIES[study]
    args = [a.format(train=train_csv, missing=tmp_path / "missing.csv") for a in args]
    out, out_json = tmp_path / f"{study}.csv", tmp_path / f"{study}.json"
    code, summary, _ = run_cli(capsys, study, *args, "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads(out_json.read_text())
    assert summary == {"command": study, "out": str(out), "out_json": str(out_json), **project(doc)}


def test_bench_requires_datasets(tmp_path, capsys):
    code, summary, _ = run_cli(capsys, "bench", "--out", str(tmp_path / "b.csv"))
    assert code == EXIT_USAGE and "--datasets" in summary["error"]["message"]


def test_python_dash_m_runs_the_cli(train_csv, tmp_path):
    model = tmp_path / "m.json"
    env = {**os.environ, "PYTHONPATH": str(Path(har.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "har.cli", "fit", "--data", train_csv, "--grid", "5", "--out", str(model)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["command"] == "fit"
    assert json.loads(model.read_text())["metadata"]["target_name"] == "target"


def _fresh_interpreter(code: str) -> list:
    """Run ``code`` in a new interpreter that finds this package; its last
    stdout line, parsed as JSON."""
    env = {**os.environ, "PYTHONPATH": str(Path(har.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_LOADS_SCIPY = "import json, sys; print(json.dumps('scipy' in sys.modules))"


def test_import_har_loads_no_scipy():
    assert _fresh_interpreter("import har\n" + _LOADS_SCIPY) is False


def test_fit_simulate_predict_and_every_library_solve_load_no_scipy(train_csv, tmp_path, capsys):
    model = str(tmp_path / "m.json")
    code, summary, _ = run_cli(capsys, "fit", "--data", train_csv, "--grid", "5", "--out", model)
    assert code == EXIT_OK and summary["kernel"] == {"family": "har", "order": 0, "bandwidth": None}
    run = "import json, sys; from har.cli import main; print(json.dumps([main({argv!r}), 'scipy' in sys.modules]))"
    for argv in (
        ["fit", "--data", train_csv, "--grid", "5", "--out", str(tmp_path / "m2.json")],
        ["simulate", "--grid", "5", "--out", str(tmp_path / "s.csv")],
        ["predict", "--model", model, "--data", train_csv, "--out", str(tmp_path / "p.csv")],
    ):
        assert _fresh_interpreter(run.format(argv=argv)) == [EXIT_OK, False], argv[0]
    # the library's explicit-lambda solve shares tune's eigendecomposition
    solves = (
        "from har.kernels import DesignMatrix, KernelSpec, gram_matrix\n"
        "from har.solver import fit, lambda_max, loocv_errors, tune\n"
        "knots, y, spec = DesignMatrix([[0.2], [0.7]]), [1.0, 2.0], KernelSpec.har(0)\n"
        "gram = gram_matrix(knots, spec)\n"
        "fit(knots, y, spec, 1.0); tune(knots, y, 'har', grid_count=3)\n"
        "loocv_errors(gram, y, 1.0); lambda_max(gram, y)\n"
    )
    assert _fresh_interpreter(solves + _LOADS_SCIPY) is False
