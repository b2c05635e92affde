"""Seed derivation: golden values, and which runs load a hash, a stream or
``numpy.ma``."""

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
# prints its exit code and which of the comma-separated watched modules it
# loaded.
_HEAVY = ["hashlib", "_hashlib", "numpy.random"]
_PROBE = """
import sys
from predint.cli import main
watched, argv = sys.argv[1].split(","), sys.argv[2:]
rc = main(argv) if argv else 0
print(rc, *(m for m in watched if m in sys.modules))
"""


def loaded_modules(*argv, watched=_HEAVY):
    env = dict(os.environ, PYTHONPATH=str(Path(predint.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _PROBE, ",".join(watched), *argv], env=env,
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

    # np.unique imports numpy.ma (its float path asks np.ma.is_masked), which
    # costs about 1.3 MB resident; the cross-conformal sweep does not call it.
    def test_importing_the_cli_does_not_load_numpy_ma(self):
        assert loaded_modules(watched=["numpy.ma"]) == []

    def test_cross_conformal_does_not_load_numpy_ma(self, intervals_argv):
        argv = intervals_argv + ["--method", "cross-conformal", "--k", "2"]
        assert loaded_modules(*argv, watched=["numpy.ma"]) == []
