"""Seed derivation: golden values, and which runs load a hash or a stream."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import predint
from predint import derive_rng, derive_seed


class TestGoldenSeeds:
    """Every stream in the package hangs off these values; a change to the
    derivation would silently move every trial, fold deal and tau draw."""

    @pytest.mark.parametrize(
        "args, seed",
        [
            ((0, "folds/10"), 1575655606808709932),
            ((2026, "parity-train", 3), 17824311004721302447),
            ((-1, "split"), 535778174672633734),
        ],
    )
    def test_derive_seed(self, args, seed):
        assert derive_seed(*args) == seed

    def test_derive_rng(self):
        assert derive_rng(7, "tau").random(2).tolist() == [0.2460920792385044, 0.3834367707579257]


# The modules that pull in OpenSSL: hashlib directly, numpy.random through
# its secrets import. _PROBE runs main(argv) in a fresh interpreter and
# prints its exit code and which of them it loaded.
_HEAVY = ["hashlib", "_hashlib", "numpy.random"]
_PROBE = f"""
import sys
from predint.cli import main
rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(rc, *(m for m in {_HEAVY!r} if m in sys.modules))
"""


def loaded_modules(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(predint.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True)
    rc, *modules = done.stdout.split()
    assert rc == "0", done.stderr
    return modules


class TestImportHygiene:
    @pytest.fixture
    def intervals_argv(self, tmp_path):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("x,y\n0,0\n1,0\n2,3\n3,1\n")
        test.write_text("x,y\n1,0\n")
        return ["intervals", "--train", str(train), "--test", str(test),
                "--out", str(tmp_path / "out.csv"), "--regressor", "mean"]

    def test_importing_the_cli_loads_neither(self):
        assert loaded_modules() == []

    def test_runs_that_draw_no_stream_load_neither(self, intervals_argv):
        methods = ["naive", "jackknife", "jackknife+", "jackknife-mm", "full-conformal"]
        argv = intervals_argv + [arg for m in methods for arg in ("--method", m)]
        assert loaded_modules(*argv) == []

    def test_a_fold_deal_loads_both(self, intervals_argv):
        argv = intervals_argv + ["--method", "cv+", "--k", "2"]
        assert loaded_modules(*argv) == _HEAVY
