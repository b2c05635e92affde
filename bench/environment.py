"""Print the benchmark's environment record as JSON.

Python, numpy and BLAS versions, the CPUs this process may run on, the CPU
model and the cache sizes of CPU 0. Run as ``python3 bench/environment.py``.
"""

from __future__ import annotations

import glob
import json
import os
import sys

import numpy


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    return value.strip()
    except OSError:
        pass
    return "unknown"


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read().strip()


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (_read(os.path.join(index, name))
                                 for name in ("level", "type", "size"))
        except OSError:
            continue
        sizes[f"L{level} {kind}"] = size
    return sizes


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cpu_caches": cache_sizes(),
    }


if __name__ == "__main__":
    print(json.dumps(environment(), sort_keys=True))
