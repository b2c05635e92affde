"""Run the predint CLI with its layer entry points wrapped in spans.

Usage: python3 bench/tracer.py SPANS_JSON RUN_ID CLI_ARG...

Every public function of the layer modules (``__all__`` where a module has
one) and the public methods listed in ``METHODS`` is replaced, at every
module that binds it, by a wrapper that records a span: name, start, end and
parent span. All spans of one call share the run id stored once in the file.
Scalar ``predict`` methods are too hot to span and are only counted. Spans
stay in memory until the CLI returns, then go to SPANS_JSON in one write.
The wrappers pass arguments and results through untouched, so the CSV the
CLI writes is the same as without tracing.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "dataset", "regressors", "intervals", "quantiles", "experiments")
METHODS = {
    "dataset": {"Dataset": ("take", "drop", "head", "tail_from"), "SplitSpec": ("resolve",)},
    "regressors": {"Regressor": ("fit",), "FittedModel": ("predict_many",)},
    "intervals": {"LooCache": ("predictions_at",)},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.stack = [-1]
        self.predict_calls = [0]
        self.fit_rows = 0
        self.quantile_elements = 0
        self.cache_keys: set = set()
        self.index_keys: set = set()

    def span(self, name: str, fn, note=None):
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def counted(self, fn):
        box = self.predict_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Notes record what a call worked on; they run before the span opens.
    def _note_fit(self, regressor, train):
        self.fit_rows += train.n

    def _note_cache(self, train, regressor, k_folds=None, **_):
        digest = hashlib.blake2b(train.features.tobytes() + train.responses.tobytes(),
                                 digest_size=16).digest()
        self.cache_keys.add((digest, train.n if k_folds is None else k_folds))

    def _note_quantile(self, values, alpha):
        self.quantile_elements += len(values)

    def _index_note(self, kind):
        def note(n, alpha):
            self.index_keys.add((kind, n, alpha))
        return note

    def notes(self) -> dict:
        return {
            "regressors.Regressor.fit": self._note_fit,
            "intervals.build_loo_cache": self._note_cache,
            "quantiles.upper_quantile": self._note_quantile,
            "quantiles.lower_quantile": self._note_quantile,
            "quantiles.upper_index": self._index_note("upper"),
            "quantiles.lower_index": self._index_note("lower"),
        }

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"predint.{layer}") for layer in LAYERS}
        bindings = [m for key, m in sys.modules.items()
                    if key == "predint" or key.startswith("predint.")]
        notes = self.notes()
        for layer, mod in modules.items():
            public = getattr(mod, "__all__", None) or [k for k in vars(mod) if not k.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.span(name, fn, notes.get(name))
                for m in bindings:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    setattr(cls, meth, self.span(name, vars(cls)[meth], notes.get(name)))
        base = modules["regressors"].FittedModel
        for cls in vars(modules["regressors"]).values():
            if inspect.isclass(cls) and issubclass(cls, base) and "predict" in vars(cls):
                cls.predict = self.counted(vars(cls)["predict"])

    def write(self, path: str, run_id: str) -> None:
        record = {
            "run_id": run_id,
            "names": self.names,
            "name": self.name,
            "parent": self.parent,
            "start_ns": self.start,
            "end_ns": self.end,
            "counts": {
                "predict_calls": self.predict_calls[0],
                "fit_rows": self.fit_rows,
                "quantile_elements": self.quantile_elements,
                "distinct_cache_keys": len(self.cache_keys),
                "distinct_index_keys": len(self.index_keys),
            },
        }
        with open(path, "w") as handle:
            json.dump(record, handle, separators=(",", ":"))


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("predint.cli")
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(spans_path, run_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
