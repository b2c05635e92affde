"""Per-layer metrics from one traced CLI call's span file.

Run as ``python3 bench/layers.py SPANS_JSON OVERHEAD_S``; prints the metrics
as JSON.

Busy time of a group of spans is the summed duration of its spans that have
no ancestor in the same group, so nested calls (jackknife+ calling cv+) are
not counted twice. Self time is a span's duration minus the union of its
child spans' intervals.
"""

from __future__ import annotations

import json
import math
import sys

DATA_LOAD = ("dataset.load_csv", "dataset.load_features_csv")
DATA_GEN = ("dataset.gen_gaussian_linear", "dataset.gen_pathological_abc", "dataset.attach_tau")
SUBSET = tuple(f"dataset.Dataset.{m}" for m in ("take", "drop", "head", "tail_from"))
FIT = ("regressors.Regressor.fit",)
PREDICT_MANY = ("regressors.FittedModel.predict_many",)
CACHE = ("intervals.build_loo_cache",)
PREDICTIONS_AT = ("intervals.LooCache.predictions_at",)
INTERVAL = tuple(f"intervals.{f}" for f in (
    "naive_interval", "split_conformal", "jackknife", "jackknife_from_cache",
    "jackknife_plus", "jackknife_minmax", "cv_plus", "interval_about"))
CROSS = ("intervals.cross_conformal_set",)
FULL = ("intervals.full_conformal_set",)
QUANTILE = ("quantiles.upper_quantile", "quantiles.lower_quantile")
INDEX = ("quantiles.upper_index", "quantiles.lower_index")
TRIAL = ("experiments.run_trial",)
PARITY = ("experiments.pathology_parity",)
GROUPS = (DATA_LOAD, DATA_GEN, SUBSET, FIT, PREDICT_MANY, CACHE, PREDICTIONS_AT,
          INTERVAL, CROSS, FULL, QUANTILE, INDEX, TRIAL, PARITY)

# name -> unit, in report order
UNITS = {
    "cli.self_s": "s",
    "dataset.load_s": "s",
    "dataset.gen_s": "s",
    "dataset.subset_calls": "count",
    "dataset.subset_s": "s",
    "regressors.fit_calls": "count",
    "regressors.fit_rows": "count",
    "regressors.fit_s": "s",
    "regressors.predict_calls": "count",
    "regressors.predict_many_s": "s",
    "intervals.cache_builds": "count",
    "intervals.cache_build_s": "s",
    "intervals.cache_build_self_s": "s",
    "intervals.cache_reuse_ratio": "ratio",
    "intervals.predictions_at_calls": "count",
    "intervals.predictions_at_s": "s",
    "intervals.interval_calls": "count",
    "intervals.interval_self_s": "s",
    "intervals.interval_p50_us": "us",
    "intervals.interval_p99_us": "us",
    "intervals.cross_conformal_calls": "count",
    "intervals.cross_conformal_s": "s",
    "intervals.cross_conformal_p50_ms": "ms",
    "intervals.cross_conformal_p99_ms": "ms",
    "intervals.full_conformal_calls": "count",
    "intervals.full_conformal_s": "s",
    "intervals.full_conformal_fits_per_call": "fits/call",
    "quantiles.calls": "count",
    "quantiles.s": "s",
    "quantiles.elements": "count",
    "quantiles.index_calls": "count",
    "quantiles.index_s": "s",
    "quantiles.index_distinct_ratio": "ratio",
    "experiments.trial_calls": "count",
    "experiments.trial_self_s": "s",
    "experiments.parity_self_s": "s",
    "trace.overhead_s": "s",
}


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class SpanTable:
    def __init__(self, record: dict):
        names = record["names"]
        self.label = [names[i] for i in record["name"]]
        self.parent = record["parent"]
        start, end = record["start_ns"], record["end_ns"]
        self.dur = [(b - a) * 1e-9 for a, b in zip(start, end)]
        children: list[list] = [[] for _ in start]
        for sid, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(sid)
        self.self_s = []
        for sid, kids in enumerate(children):
            covered, reach = 0, start[sid]
            for a, b in sorted((start[k], end[k]) for k in kids):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            self.self_s.append(self.dur[sid] - covered * 1e-9)
        # Bit g of inside[sid] is set when an ancestor of sid belongs to group g.
        bit = {name: 0 for name in names}
        for g, group in enumerate(GROUPS):
            for name in group:
                if name in bit:
                    bit[name] |= 1 << g
        bits = [bit[name] for name in self.label]
        self.inside = []
        for sid, p in enumerate(self.parent):
            self.inside.append(0 if p < 0 else self.inside[p] | bits[p])
        self.by_name: dict = {}
        for sid, name in enumerate(self.label):
            self.by_name.setdefault(name, []).append(sid)

    def outermost(self, group) -> list[int]:
        """Spans of ``group`` with no ancestor in ``group``."""
        mask = 1 << GROUPS.index(group)
        return [sid for name in group for sid in self.by_name.get(name, ())
                if not self.inside[sid] & mask]

    def count(self, group) -> int:
        return len(self.outermost(group))

    def busy(self, group) -> float:
        return sum(self.dur[sid] for sid in self.outermost(group))

    def self_time(self, names) -> float:
        return sum(self.self_s[sid] for name in names for sid in self.by_name.get(name, ()))

    def durations(self, group) -> list[float]:
        return [self.dur[sid] for sid in self.outermost(group)]

    def descendants_named(self, group, names) -> int:
        mask = 1 << GROUPS.index(group)
        return sum(1 for name in names for sid in self.by_name.get(name, ())
                   if self.inside[sid] & mask)


def layer_metrics(spans_path: str, overhead_s: float) -> dict:
    with open(spans_path) as handle:
        record = json.load(handle)
    t = SpanTable(record)
    counts = record["counts"]
    cli_names = [n for n in record["names"] if n.startswith("cli.")]
    cache_builds = t.count(CACHE)
    index_calls = t.count(INDEX)
    full_calls = t.count(FULL)
    interval_us = [d * 1e6 for d in t.durations(INTERVAL)]
    cross_ms = [d * 1e3 for d in t.durations(CROSS)]
    values = {
        "cli.self_s": t.self_time(cli_names),
        "dataset.load_s": t.busy(DATA_LOAD),
        "dataset.gen_s": t.busy(DATA_GEN),
        "dataset.subset_calls": t.count(SUBSET),
        "dataset.subset_s": t.busy(SUBSET),
        "regressors.fit_calls": t.count(FIT),
        "regressors.fit_rows": counts["fit_rows"],
        "regressors.fit_s": t.busy(FIT),
        "regressors.predict_calls": counts["predict_calls"],
        "regressors.predict_many_s": t.busy(PREDICT_MANY),
        "intervals.cache_builds": cache_builds,
        "intervals.cache_build_s": t.busy(CACHE),
        "intervals.cache_build_self_s": t.self_time(CACHE),
        "intervals.cache_reuse_ratio":
            counts["distinct_cache_keys"] / cache_builds if cache_builds else 0.0,
        "intervals.predictions_at_calls": t.count(PREDICTIONS_AT),
        "intervals.predictions_at_s": t.busy(PREDICTIONS_AT),
        "intervals.interval_calls": len(interval_us),
        "intervals.interval_self_s": t.self_time(INTERVAL),
        "intervals.interval_p50_us": percentile(interval_us, 50),
        "intervals.interval_p99_us": percentile(interval_us, 99),
        "intervals.cross_conformal_calls": len(cross_ms),
        "intervals.cross_conformal_s": t.busy(CROSS),
        "intervals.cross_conformal_p50_ms": percentile(cross_ms, 50),
        "intervals.cross_conformal_p99_ms": percentile(cross_ms, 99),
        "intervals.full_conformal_calls": full_calls,
        "intervals.full_conformal_s": t.busy(FULL),
        "intervals.full_conformal_fits_per_call":
            t.descendants_named(FULL, FIT) / full_calls if full_calls else 0.0,
        "quantiles.calls": t.count(QUANTILE),
        "quantiles.s": t.busy(QUANTILE),
        "quantiles.elements": counts["quantile_elements"],
        "quantiles.index_calls": index_calls,
        "quantiles.index_s": t.busy(INDEX),
        "quantiles.index_distinct_ratio":
            counts["distinct_index_keys"] / index_calls if index_calls else 0.0,
        "experiments.trial_calls": t.count(TRIAL),
        "experiments.trial_self_s": t.self_time(TRIAL),
        "experiments.parity_self_s": t.self_time(PARITY),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}


if __name__ == "__main__":
    print(json.dumps(layer_metrics(sys.argv[1], float(sys.argv[2]))))
