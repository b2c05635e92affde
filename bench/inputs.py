"""Seeded input files for the ``intervals`` workloads.

The data come from numpy alone, not from ``predint.dataset``, so a change to
predint's own generators cannot change what the benchmark feeds the program.
Run as ``python3 bench/inputs.py DIR SEED``; prints the returned record as
JSON. Rows are Gaussian-linear: X ~ N(0, I_d), y = X beta + N(0, 1) with
||beta||^2 = 10. Values are written with 17 significant digits, which
round-trips every float exactly.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

N_TRAIN = 500
N_TEST = 200
N_FULL_CONFORMAL = 20
D = 20


def _write(path: str, X: np.ndarray, y: np.ndarray) -> None:
    header = ",".join([f"x{j + 1}" for j in range(X.shape[1])] + ["y"])
    np.savetxt(path, np.column_stack([X, y]), fmt="%.17g", delimiter=",",
               header=header, comments="")


def write_regression_inputs(directory: str, seed: int) -> dict:
    """Write train.csv (500x20), test.csv (200 rows with y) and test20.csv
    (the first 20 test rows) into ``directory``.

    Returns the file paths and the training response range, which bounds the
    default full-conformal grid.
    """
    rng = np.random.default_rng([seed, N_TRAIN, D])
    beta = rng.standard_normal(D)
    beta *= math.sqrt(10.0) / float(np.linalg.norm(beta))
    X = rng.standard_normal((N_TRAIN + N_TEST, D))
    y = X @ beta + rng.standard_normal(N_TRAIN + N_TEST)
    paths = {name: os.path.join(directory, f"{name}.csv")
             for name in ("train", "test", "test20")}
    _write(paths["train"], X[:N_TRAIN], y[:N_TRAIN])
    _write(paths["test"], X[N_TRAIN:], y[N_TRAIN:])
    _write(paths["test20"], X[N_TRAIN:N_TRAIN + N_FULL_CONFORMAL],
           y[N_TRAIN:N_TRAIN + N_FULL_CONFORMAL])
    return {
        "paths": paths,
        "y_min": float(np.min(y[:N_TRAIN])),
        "y_max": float(np.max(y[:N_TRAIN])),
    }


if __name__ == "__main__":
    print(json.dumps(write_regression_inputs(sys.argv[1], int(sys.argv[2]))))
