"""Seed derivation: golden values, the built-in SHA-256 against hashlib's,
seed checks, and which modules each run loads (no hashlib or OpenSSL, no
stream, no exact arithmetic, no ``numpy.ma``)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predint
from predint import (
    METHOD_TOKENS,
    ConfigError,
    Dataset,
    MinNormOLS,
    SplitSpec,
    build_loo_cache,
    derive_seed,
    gen_gaussian_linear,
    gen_pathological_abc,
)
from predint.rng import _permutation, _uniforms
from helpers import derive_rng

# Every stream in the package hangs off these values; a change to the
# derivation would silently move every trial, fold deal and tau draw.
GOLDEN_SEEDS = [
    ((0, "folds/10"), 1575655606808709932),
    ((2026, "parity-train", 3), 17824311004721302447),
    ((-1, "split"), 535778174672633734),
]
GOLDEN_TAU = [0.2460920792385044, 0.3834367707579257]  # derive_rng(7, "tau").random(2)
# The method draws come from random.Random(seed).random(), whose sequence
# Python keeps for a given seed: the uniforms at seed 7, the split of 6 rows
# at derive_seed(7, "split"), and the K = 2 deal of rows 0..5 (already in
# canonical order) at fold seed 7, whose permutation is (3, 1, 0, 5, 4, 2).
GOLDEN_UNIFORMS = [0.32383276483316237, 0.15084917392450192, 0.6509344730398537]
GOLDEN_SPLIT = ([0, 1, 4], [2, 3, 5])
GOLDEN_DEAL = [0, 0, 1, 0, 1, 1]
SIX_ROWS = Dataset([[float(i)] for i in range(6)], [float(i) for i in range(6)])


class TestGoldenSeeds:
    @pytest.mark.parametrize("args, seed", GOLDEN_SEEDS)
    def test_derive_seed(self, args, seed):
        assert derive_seed(*args) == seed

    def test_derive_rng(self):
        assert derive_rng(7, "tau").random(2).tolist() == GOLDEN_TAU

    def test_uniforms(self):
        assert _uniforms(7, 3).tolist() == GOLDEN_UNIFORMS
        assert _uniforms(7, 0).tolist() == []

    def test_split(self):
        kept, held = SplitSpec(0.5, seed=derive_seed(7, "split")).resolve(6)
        assert (kept.tolist(), held.tolist()) == GOLDEN_SPLIT

    def test_fold_deal(self):
        assert _permutation(7, 6).tolist() == [3, 1, 0, 5, 4, 2]
        cache = build_loo_cache(SIX_ROWS, MinNormOLS(), 2, fold_seed=7)
        assert cache.model_of.tolist() == GOLDEN_DEAL

    @pytest.mark.parametrize("n", [0, 1, 2, 17, 500])
    def test_permutation_is_one_of_range_n(self, n):
        for seed in (0, 1, 2**64 - 1):
            perm = _permutation(seed, n)
            assert perm.dtype.kind == "i" and np.array_equal(np.sort(perm), np.arange(n))


@settings(deadline=None)
@given(st.integers(), st.text(), st.one_of(st.integers(), st.text()))
def test_derive_seed_is_the_head_of_hashlibs_sha256(master, tag, index):
    # hashlib's SHA-256, which the package no longer calls, is the oracle.
    digest = hashlib.sha256(f"{master}:{tag}:{index}".encode()).digest()
    assert derive_seed(master, tag, index) == int.from_bytes(digest[:8], "big")


class TestSeedChecks:
    """A seed that is not an integer, or is negative where numpy needs a
    non-negative one, is a ConfigError naming the setting."""

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_generators_and_split(self, seed):
        with pytest.raises(ConfigError, match="^seed must be"):
            gen_gaussian_linear(5, 2, seed)
        with pytest.raises(ConfigError, match="^seed must be"):
            gen_pathological_abc(5, 0.25, 0.1, seed)
        with pytest.raises(ConfigError, match="^seed must be"):
            SplitSpec(seed=seed).resolve(10)

    def test_negative_is_named(self):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -3"):
            gen_pathological_abc(5, 0.25, 0.1, -3)

    def test_fold_seed(self):
        train, _ = gen_gaussian_linear(6, 2, 0)
        with pytest.raises(ConfigError, match="^fold_seed must be a non-negative integer"):
            build_loo_cache(train, MinNormOLS(), 2, fold_seed=-1)
        with pytest.raises(ConfigError, match="^fold_seed must be an integer"):
            build_loo_cache(train, MinNormOLS(), 2, fold_seed=0.5)

    def test_numpy_integers_give_the_same_stream(self):
        a, _ = gen_gaussian_linear(5, 2, 3)
        b, _ = gen_gaussian_linear(5, 2, np.uint64(3))
        assert np.array_equal(a.responses, b.responses)
        assert derive_seed(np.int64(-1), "split", np.int8(0)) == derive_seed(-1, "split")

    @pytest.mark.parametrize("numpy_seed", [np.int64(3), np.uint64(3), np.uint64(2**64 - 1)])
    def test_numpy_integers_give_the_same_draws(self, numpy_seed):
        # random.Random rejects a numpy integer outright, so the seed is
        # converted to a Python int after the check.
        seed = int(numpy_seed)
        assert _uniforms(numpy_seed, 4).tolist() == _uniforms(seed, 4).tolist()
        got, want = (SplitSpec(0.5, seed=s).resolve(10) for s in (numpy_seed, seed))
        assert all(map(np.array_equal, got, want))
        got, want = (build_loo_cache(SIX_ROWS, MinNormOLS(), 2, fold_seed=s).model_of
                     for s in (numpy_seed, seed))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("tag", [5, None, b"5"])
    def test_the_tag_must_be_a_string(self, tag):
        # An integer tag hashed "1:5:0", the stream of tag "5".
        with pytest.raises(ConfigError, match="^tag must be a string"):
            derive_seed(1, tag)

    def test_a_string_index_is_a_sub_tag(self):
        assert derive_seed(3, "cc-oracle", "ties") != derive_seed(3, "cc-oracle")

    @pytest.mark.parametrize("name, args", [("master", (1.5, "x")), ("master", ("1", "x")),
                                            ("index", (1, "x", 0.0)), ("index", (1, "x", None))])
    def test_derive_seed_needs_integers(self, name, args):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            derive_seed(*args)


# _PROBE runs main(argv) in a fresh interpreter and prints its exit code and
# which of the comma-separated watched modules it loaded. hashlib maps
# OpenSSL's libcrypto through _hashlib, and numpy.random does too through
# secrets -> hmac -> _hashlib.
_HEAVY = ["hashlib", "_hashlib", "numpy.random"]
_PROBE = """
import sys
from predint.cli import main
watched, argv = sys.argv[1].split(","), sys.argv[2:]
rc = main(argv) if argv else 0
print(rc, *(m for m in watched if m in sys.modules))
"""
# Runs the installed script's entry point on argv, then prints a JSON record
# of its exit code, whether libcrypto is mapped (None where /proc/self/maps
# does not exist), and which of numpy.random and the modules it imports to
# seed itself were loaded.
_CONSOLE_PROBE = """
import json, os, sys
from predint.cli import console_main
sys.argv = ["predint", *sys.argv[1:]]
try:
    console_main()
except SystemExit as exc:
    rc = exc.code
maps = "/proc/self/maps"
libcrypto = ("libcrypto" in open(maps).read()) if os.path.exists(maps) else None
print(json.dumps({"rc": rc, "libcrypto": libcrypto,
                  "streams": [m for m in ("numpy.random", "secrets", "hmac") if m in sys.modules]}))
"""


def run_probe(source, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(predint.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", source, *argv], env=env,
                          capture_output=True, text=True, check=True)


def loaded_modules(*argv, watched=_HEAVY, prelude="", rc=0):
    """The watched modules that ``main(argv)`` loads, run after ``prelude``
    in a fresh interpreter; the exit code must be ``rc``."""
    done = run_probe(prelude + _PROBE, ",".join(watched), *argv)
    code, *modules = done.stdout.split()
    assert code == str(rc), done.stderr
    return modules


# What no run needs: hashlib and OpenSSL (the seed hash is built in), a
# numpy.random stream and what it imports to seed itself, fractions with
# decimal (index arithmetic runs on each level's integer ratio), numpy.ma
# (np.unique's float path asks np.ma.is_masked; about 1.3 MB resident), and
# json, which only a failed audit imports to write its replay file.
_KEPT_OUT = ["hashlib", "_hashlib", "numpy.random", "secrets", "hmac",
             "fractions", "decimal", "_decimal", "numpy.ma", "json"]
# Every "leave-one-out" fit of LeakyOLS sees its own row, so its intervals are
# too narrow and an audit of it finds violations.
_LEAKY_OLS = """
import numpy as np
import predint.cli
from predint import MinNormOLS

class LeakyOLS(MinNormOLS):
    def fit_folds(self, train, fold_of=None):
        full = self.fit(train)
        return [full], np.zeros(train.n, dtype=np.intp), full.predict_many(train.features)

predint.cli.make_regressor = lambda *args, **kwargs: LeakyOLS()
"""


class TestImportHygiene:
    @pytest.fixture
    def intervals_argv(self, tmp_path):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("x,y\n0,0\n1,0\n2,3\n3,1\n")
        test.write_text("x,y\n1,0\n")
        return ["intervals", "--train", str(train), "--test", str(test),
                "--out", str(tmp_path / "out.csv"), "--regressor", "mean"]

    def test_scoring_through_the_script_loads_no_numpy_random(self, intervals_argv):
        argv = intervals_argv + ["--method", "split", "--method", "cv+", "--method",
                                 "cross-conformal", "--k", "2"]
        state = json.loads(run_probe(_CONSOLE_PROBE, *argv).stdout)
        assert state["rc"] == 0 and state["streams"] == []

    def test_no_run_loads_openssl_a_stream_or_exact_arithmetic(self, intervals_argv, tmp_path):
        replay = tmp_path / "replay.json"
        every_method = [arg for m in METHOD_TOKENS for arg in ("--method", m)]
        small = ["--trials", "1", "--n", "6", "--n-test", "2"]
        # (argv, prelude, exit code, the watched modules the run loads)
        table = {
            "import predint.cli": ([], "", 0, []),
            "intervals, every method": (intervals_argv + every_method + ["--k", "2"], "", 0, []),
            "figure2": (["simulate", "--experiment", "figure2", "--d-list", "2", *small], "", 0, []),
            "coverage-mc": (["simulate", "--experiment", "coverage-mc", "--d", "2", *small],
                            "", 0, []),
            "pathology-memorizer": (["simulate", "--experiment", "pathology-memorizer", *small],
                                    "", 0, []),
            "pathology-parity": (["simulate", "--experiment", "pathology-parity", "--trials", "1",
                                  "--n", "5000", "--n-test", "2", "--alpha", "0.25"], "", 0, []),
            "clean audit": (["audit", "--trials", "2", "--n", "5", "--d", "2",
                             "--replay-out", str(replay)], "", 0, []),
            "audit with a violation": (["audit", "--trials", "20", "--n", "8", "--d", "3",
                                        "--alpha", "0.2", "--replay-out", str(replay)],
                                       _LEAKY_OLS, 1, ["json"]),
            "stability": (["stability", "--trials", "2", "--n", "6", "--d", "2", "--knn-k", "2"],
                          "", 0, []),
        }
        for name, (argv, prelude, rc, loaded) in table.items():
            out = ["--out", str(tmp_path / "out.csv")] if argv else []
            got = loaded_modules(*argv, *out, watched=_KEPT_OUT, prelude=prelude, rc=rc)
            assert got == loaded, name
        records = json.loads(replay.read_text())
        assert records and all(record["violations"] for record in records)

    def test_the_console_script_keeps_openssl_out(self, tmp_path):
        argv = ["simulate", "--experiment", "coverage-mc", "--trials", "1", "--seed", "5"]
        script, library = tmp_path / "script.csv", tmp_path / "library.csv"
        done = run_probe(_CONSOLE_PROBE, *argv, "--out", str(script))
        state = json.loads(done.stdout)
        assert done.stderr == ""
        assert state["rc"] == 0 and state["streams"] == []
        # The same run through main(argv) takes the same path.
        assert loaded_modules(*argv, "--out", str(library)) == []
        assert script.read_bytes() == library.read_bytes()
        if state["libcrypto"] is None:
            pytest.skip("no /proc/self/maps to read the mapped libraries from")
        assert not state["libcrypto"]

    def test_library_use_keeps_the_real_hashlib(self):
        # Nothing is blocked: a program that imports predint keeps every
        # module it can import, OpenSSL's hashlib included.
        done = run_probe(
            "import sys\n"
            "import predint\n"
            "predint.derive_seed(1, 'x')\n"
            "print([name for name, module in sys.modules.items() if module is None])\n"
            "import hashlib, _hashlib\n"
        )
        assert done.stdout.split() == ["[]"]

    def test_golden_seeds_hold_without_a_builtin_sha256(self):
        # A build without the built-in hash (FIPS, say) falls back to
        # hashlib's SHA-256, whose digests are the same.
        done = run_probe(
            "import json, sys\n"
            "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
            "from predint import derive_seed\n"
            f"seeds = [derive_seed(*args) for args, _ in {GOLDEN_SEEDS!r}]\n"
            "print(json.dumps({'hashlib': 'hashlib' in sys.modules, 'seeds': seeds}))\n"
        )
        assert json.loads(done.stdout) == {"hashlib": True,
                                           "seeds": [seed for _, seed in GOLDEN_SEEDS]}
