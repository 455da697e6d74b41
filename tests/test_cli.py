import csv
import filecmp
import json

import numpy as np
import pytest

from har.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from har.data import rng_from


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
    doc = json.loads(open(out).read())
    assert doc["metadata"]["feature_names"] == ["u", "v"]
    assert doc["metadata"]["target_name"] == "target"
    assert doc["metadata"]["config"]["seed"] == 0  # default echoed


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
    [(None, "kernel", {}, "'kernel'"), ("metadata", "feature_names", 5, "feature_names")],
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
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", "x.csv", "--kernel", "cubic", "--out", "m.json"])
    assert exc.value.code == EXIT_USAGE


def test_config_file_layer_and_flag_precedence(train_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "sobolev", "grid": 5, "seed": 42}))
    out = str(tmp_path / "m.json")
    code, summary, _ = run_cli(
        capsys, "fit", "--config", str(cfg), "--data", train_csv,
        "--kernel", "har", "--out", out,
    )
    assert code == EXIT_OK
    assert summary["kernel"]["family"] == "har"  # flag beats config
    doc = json.loads(open(out).read())
    assert doc["metadata"]["config"]["seed"] == 42  # config beats default
    assert doc["metadata"]["config"]["grid"] == 5


def test_unknown_config_key_is_usage_error(train_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grids": 5}))
    code, summary, _ = run_cli(
        capsys, "fit", "--config", str(cfg), "--data", train_csv, "--out", str(tmp_path / "m.json"),
    )
    assert code == EXIT_USAGE and "grids" in summary["error"]["message"]


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
    # identical invocations (same relative paths) must be byte-identical,
    # JSON config echo included
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


def test_simulate_derives_json_path(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    code, summary, _ = run_cli(capsys, "simulate", "--seed", "1", "--grid", "5", "--out", str(out))
    assert code == EXIT_OK
    assert summary["out_json"] == str(tmp_path / "demo.json")
    assert (tmp_path / "demo.json").exists()


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
    assert doc["config"]["command"] == "convergence"
    assert doc["config"]["seed"] == 4


def test_convergence_bad_n_values(capsys, tmp_path):
    code, summary, _ = run_cli(
        capsys, "convergence", "--n-values", "20,x", "--out", str(tmp_path / "c.csv"),
    )
    assert code == EXIT_USAGE


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


def test_bench_requires_datasets(tmp_path, capsys):
    code, summary, _ = run_cli(capsys, "bench", "--out", str(tmp_path / "b.csv"))
    assert code == EXIT_USAGE and "--datasets" in summary["error"]["message"]
