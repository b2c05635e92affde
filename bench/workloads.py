"""The five benchmark workloads: CLI arguments, object counts, output checks.

Each check takes the CSV text one CLI call wrote and returns a list of
problems; an empty list means the output is correct. Coverage checks follow
acceptance checks 03, 04 and 06 of the test suite. Where a workload has far
fewer test points than the acceptance check, the allowance below a floor
grows to four standard errors, so a correct program fails a floor check only
on a rare seed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

ALPHA = 0.1  # the CLI's default level for figure2 and intervals
SCORE_METHODS = ("naive", "split", "jackknife", "jackknife+", "jackknife-mm", "cv+",
                 "cross-conformal")
SCORE_K = 10


def csv_rows(text: str) -> list[dict]:
    body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def floor_allowance(floor: float, points: int) -> float:
    """How far below a coverage floor the coverage of ``points`` test points
    from one training set may fall: 0.02 as in the acceptance suite, or four
    standard errors when that is larger. Coverage conditional on one training
    set varies about as much again as the binomial error of the test points,
    hence the factor 2 under the root."""
    return max(0.02, 4.0 * math.sqrt(2.0 * floor * (1.0 - floor) / points))


def _expect_rows(rows: list, count: int) -> list[str]:
    return [] if len(rows) == count else [f"expected {count} rows, got {len(rows)}"]


def check_figure2(text: str, inputs: dict) -> list[str]:
    rows = csv_rows(text)
    problems = _expect_rows(rows, 18)
    cov, se = {}, {}
    for r in rows:
        cov.setdefault(int(r["d"]), {})[r["method"]] = float(r["coverage_mean"])
        se.setdefault(int(r["d"]), {})[r["method"]] = float(r["coverage_se"])
    try:
        checks = [
            ("jackknife collapses at d=100", cov[100]["jackknife"] <= 0.65),
            ("naive collapses at d=100", cov[100]["naive"] <= 0.05),
            # The 0.85 of acceptance 04 holds at seed 0 only; across seeds the
            # guarantee is the 1 - 2 alpha floor.
            ("jackknife+ holds at d=100",
             cov[100]["jackknife+"] >= 1 - 2 * ALPHA - max(0.02, 4.0 * se[100]["jackknife+"])),
            ("jackknife ~ jackknife+ at d=20",
             abs(cov[20]["jackknife"] - cov[20]["jackknife+"]) <= 0.05),
            ("jackknife ~ jackknife+ at d=180",
             abs(cov[180]["jackknife"] - cov[180]["jackknife+"]) <= 0.05),
        ]
    except KeyError as exc:
        return problems + [f"missing figure2 row {exc}"]
    return problems + [name for name, ok in checks if not ok]


def check_coverage_mc(text: str, inputs: dict) -> list[str]:
    rows = csv_rows(text)
    problems = _expect_rows(rows, 24)
    for r in rows:
        bound = float(r["bound"])
        if math.isnan(bound):
            continue
        cov = float(r["coverage_mean"])
        # Test points of one trial share a training set, so the allowance
        # uses the trial-to-trial standard error the CSV reports.
        if cov < bound - max(0.02, 4.0 * float(r["coverage_se"])):
            problems.append(f"{r['regressor']}/{r['method']}@{r['alpha']}: "
                            f"coverage {cov:.4f} under floor {bound:.4f}")
    return problems


def check_parity(text: str, inputs: dict) -> list[str]:
    rows = csv_rows(text)
    problems = _expect_rows(rows, 1)
    for r in rows:
        cov = float(r["coverage_mean"])
        slack = 4.0 * float(r["coverage_se"])  # the window of acceptance 06 holds at seed 0
        if int(r["evals"]) != 10_000:
            problems.append(f"expected 10000 evaluations, got {r['evals']}")
        if not 0.45 - slack <= cov <= 0.564 + slack:
            problems.append(f"parity coverage {cov:.4f} outside [0.45, 0.564] "
                            f"widened by {slack:.4f}")
    return problems


def _intervals_by_method(rows: list) -> dict:
    out: dict = {}
    for r in rows:
        out.setdefault(r["method"], []).append(r)
    return out


def _nan_cells(rows: list) -> list[str]:
    bad = [r for r in rows if "nan" in (r["lower"] + r["upper"] + r["components"]).lower()]
    return [f"{len(bad)} rows with a NaN endpoint"] if bad else []


def _coverage_floor_problems(by_method: dict, floors: dict) -> list[str]:
    problems = []
    for method, floor in floors.items():
        hits = [r["covered"] == "1" for r in by_method.get(method, [])]
        if not hits:
            continue
        cov = sum(hits) / len(hits)
        if cov < floor - floor_allowance(floor, len(hits)):
            problems.append(f"{method}: coverage {cov:.4f} under floor {floor:.4f}")
    return problems


def check_score(text: str, inputs: dict) -> list[str]:
    rows = csv_rows(text)
    problems = _expect_rows(rows, 200 * len(SCORE_METHODS)) + _nan_cells(rows)
    by = _intervals_by_method(rows)
    for plus, mm in zip(by.get("jackknife+", []), by.get("jackknife-mm", [])):
        if not float(mm["lower"]) <= float(plus["lower"]) <= float(plus["upper"]) <= float(mm["upper"]):
            problems.append(f"test row {plus['test_index']}: jackknife+ not inside jackknife-mm")
    for cc, cv in zip(by.get("cross-conformal", []), by.get("cv+", [])):
        if cc["components"] and not (
            float(cv["lower"]) <= float(cc["lower"]) and float(cc["upper"]) <= float(cv["upper"])
        ):
            problems.append(f"test row {cc['test_index']}: cross-conformal hull not inside cv+")
    n = 500
    floors = {
        "split": 1 - ALPHA,
        "jackknife+": 1 - 2 * ALPHA,
        "jackknife-mm": 1 - ALPHA,
        "cv+": 1 - 2 * ALPHA - math.sqrt(2 / n),
        "cross-conformal": 1 - 2 * ALPHA,
    }
    return problems + _coverage_floor_problems(by, floors)


def check_full_conformal(text: str, inputs: dict) -> list[str]:
    rows = csv_rows(text)
    problems = _expect_rows(rows, 20) + _nan_cells(rows)
    lo, hi = inputs["y_min"], inputs["y_max"]
    for r in rows:
        for comp in filter(None, r["components"].split(";")):
            a, b = (float(v) for v in comp.split(":"))
            if not lo <= a <= b <= hi:
                problems.append(f"test row {r['test_index']}: component {comp} outside the grid")
    return problems + _coverage_floor_problems(_intervals_by_method(rows),
                                               {"full-conformal": 1 - ALPHA})


@dataclass(frozen=True)
class Workload:
    """One CLI command. BENCHMARK.json and bench/README.md say why each was chosen."""

    name: str
    objects: int  # prediction intervals or sets one CLI call produces
    argv: Callable[[int, dict], list[str]]  # (seed, inputs) -> CLI arguments
    check: Callable[[str, dict], list[str]]
    needs_inputs: bool = False


def _score_argv(seed: int, inputs: dict) -> list[str]:
    argv = ["intervals", "--train", inputs["paths"]["train"], "--test", inputs["paths"]["test"],
            "--k", str(SCORE_K)]
    for method in SCORE_METHODS:
        argv += ["--method", method]
    return argv + ["--seed", str(seed)]


def _full_conformal_argv(seed: int, inputs: dict) -> list[str]:
    return ["intervals", "--train", inputs["paths"]["train"],
            "--test", inputs["paths"]["test20"], "--method", "full-conformal",
            "--regressor", "ridge", "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "figure2",
            3 * 6 * 20 * 100,
            lambda seed, _: ["simulate", "--experiment", "figure2", "--seed", str(seed)],
            check_figure2,
        ),
        Workload(
            "coverage-mc",
            2 * 6 * 2 * 20 * 100,
            lambda seed, _: ["simulate", "--experiment", "coverage-mc", "--seed", str(seed)],
            check_coverage_mc,
        ),
        Workload(
            "score-500x20",
            200 * len(SCORE_METHODS),
            _score_argv,
            check_score,
            needs_inputs=True,
        ),
        Workload(
            "full-conformal",
            20,
            _full_conformal_argv,
            check_full_conformal,
            needs_inputs=True,
        ),
        Workload(
            "parity-1e5",
            5 * 2000,
            lambda seed, _: ["simulate", "--experiment", "pathology-parity",
                             "--n", "100000", "--alpha", "0.25", "--trials", "5",
                             "--n-test", "2000", "--seed", str(seed)],
            check_parity,
        ),
    ]
}
