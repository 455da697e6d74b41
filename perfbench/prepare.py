"""Benchmark set-up, run as its own process so that the parent's peak RSS
covers the timed ops only.

Writes the workload's input CSVs into ``--work`` and, for a predict
workload, fits its fixture models through the CLI entry point and pickles
each in-memory model and Gram next to the saved model for the output checks.
Prints one JSON line with a sha256 of every file written, so the caller
can check that set-up is deterministic.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
from pathlib import Path

import numpy as np

import workloads as W
from checks import sha256
from tracing import Capture, Patches, run_cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import har  # noqa: E402  (set-up time includes importing the package)
import har.cli  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    w = W.get_workload(args.workload, args.tiny)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    files = {"train.csv": W.draw(args.seed, W.STREAM_TRAIN, w.n), "warm.csv": W.draw(args.seed, W.STREAM_WARM, W.WARM_ROWS)}
    heldout = W.draw(args.seed, W.STREAM_HELDOUT, w.heldout)
    if w.kind == "fit":
        files["heldout.csv"] = heldout
    else:
        files["rows.csv"] = np.vstack([heldout, W.draw(args.seed, W.STREAM_EXTRA, w.rows - w.heldout)])
    for name, table in files.items():
        W.write_csv(work / name, table)

    if w.fixtures:
        patches = Patches()
        capture = Capture(patches, har)
        capture.armed = True
        for tag, fit_args in w.fixtures:
            argv = ["fit", "--data", str(work / "train.csv"), *fit_args,
                    "--threads", str(args.threads), "--out", str(work / f"fixture-{tag}.json")]
            capture.clear()
            rc, stdout = run_cli(har.cli.main, argv)
            fixture = {
                "rc": rc,
                "stdout": stdout,
                "model": capture.models[-1] if capture.models else None,
                "gram": capture.grams[-1].values if capture.grams and capture.grams[-1] is not None else None,
            }
            with open(work / f"fixture-{tag}.pkl", "wb") as fh:
                pickle.dump(fixture, fh)
            files[f"fixture-{tag}.json"] = None
        patches.restore()

    print(json.dumps({"sha256": {name: sha256(work / name) for name in files}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
