"""Workload definitions and seeded input generation for the har benchmark.

Inputs follow the paper's 10-D interaction design: X ~ Unif[0,1]^10 and
y = prod(x_1..x_5) - prod(ramp(x_6..x_10)) + N(0, 0.1^2).  Every draw comes
from numpy's PCG64 seeded by (--seed, stream), so the same seed always gives
the same files.  The mean is written out here rather than imported from
``har`` so that a change to the package cannot change the benchmark inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

P = 10
NOISE_SD = 0.1
RAMP = 0.05
RAMP_X0 = 1.0 - 0.5**0.2 - RAMP

# PCG64 stream ids, one per independent draw
STREAM_TRAIN = 1
STREAM_HELDOUT = 2
STREAM_EXTRA = 3
STREAM_WARM = 4
STREAM_CHECK = 5

HELDOUT_ROWS = 2000
#: rows and Gram entries sampled by the output checks
CHECK_ROWS = 256
IDENTITY_ROWS = 64
WARM_ROWS = 30

HAR0 = ("--kernel", "har", "--order", "0", "--grid", "50")
SOBOLEV = ("--kernel", "sobolev", "--grid", "50")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A ``fit`` workload times ``har fit`` on an n-row training CSV.  A
    ``predict`` workload fits its ``fixtures`` during set-up and times one
    ``har predict`` per fixture on a ``rows``-row CSV as one op.
    """

    name: str
    kind: str
    n: int
    fit_args: tuple = ()
    fixtures: tuple = ()  # (tag, fit args) pairs
    rows: int = 0
    heldout: int = HELDOUT_ROWS


# Why each workload exists:
# fit_har0_n1600  the order-0 bit-mask Gram is ~80% of the op and its n x n
#                 masks (~5 MB) exceed L2: Gram work shows here; the lambda0
#                 bound, eigh and LOO sweep are most of the rest.
# predict_m20k    the read side: CSV parse/write, model load, the order-0
#                 contraction route and the sobolev cross-matrix route.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit_har0_n1600", "fit", 1600, fit_args=HAR0),
        Workload(
            "predict_m20k", "predict", 800,
            fixtures=(("har0", HAR0), ("sobolev", SOBOLEV)), rows=20000,
        ),
    )
}

#: the same workloads at sizes small enough for the smoke test
TINY = {
    "fit_har0_n1600": dict(n=60, heldout=100),
    "predict_m20k": dict(n=40, heldout=100, rows=300),
}


def get_workload(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    if not tiny:
        return w
    return Workload(**{**w.__dict__, **TINY[name]})


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def interaction_mean(X: np.ndarray) -> np.ndarray:
    ramps = np.clip((X[:, 5:10] - RAMP_X0) / RAMP, 0.0, 1.0)
    return np.prod(X[:, :5], axis=1) - np.prod(ramps, axis=1)


def draw(seed: int, stream: int, n: int) -> np.ndarray:
    """n rows of [x_1..x_10, y] from one PCG64 stream."""
    g = rng(seed, stream)
    X = g.uniform(size=(n, P))
    y = interaction_mean(X) + NOISE_SD * g.standard_normal(n)
    return np.column_stack([X, y])


HEADER = [f"x{j + 1}" for j in range(P)] + ["y"]


def write_csv(path, table: np.ndarray) -> None:
    lines = [",".join(HEADER)]
    lines.extend(",".join(map(repr, row)) for row in table.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> tuple[list, np.ndarray]:
    """Header and float rows of a CSV the benchmark or the CLI wrote.
    Uses float() per cell so that repr-written values read back exactly."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [[float(c) for c in line.split(",")] for line in fh if line.strip()]
    return header, np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
