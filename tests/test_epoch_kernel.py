"""The C epoch kernel: the Python loop's bits, its fallbacks and its cache."""

from __future__ import annotations

import ctypes
import logging
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sentagree
from sentagree import classify
from sentagree.classify import TrainConfig, train_binary
from sentagree.features import CountRows

from conftest import stack


@pytest.fixture(scope="module")
def kernel(tmp_path_factory):
    """The kernel, built into a cache of its own; the tests that need one skip only where there is no compiler."""
    found = classify._load_kernel(cache=tmp_path_factory.mktemp("kernel") / "sentagree")
    if found is None:
        compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
        assert shutil.which(compiler) is None, f"{compiler} is on PATH, but the kernel did not load"
        pytest.skip("no C compiler")
    return found


def training_with(kernel):
    """Train through ``kernel``, or through the Python loop for ``None``."""
    return patch.object(classify, "_epoch_kernel", lambda: kernel)


def assert_same_bits(plane, reference) -> None:
    assert plane.weights.tobytes() == reference.weights.tobytes()
    assert plane.bias == reference.bias
    assert plane.dual_objectives == reference.dual_objectives
    assert plane.epochs_run == reference.epochs_run
    assert plane.converged == reference.converged
    assert plane.max_projected_gradient == reference.max_projected_gradient


@st.composite
def problems(draw):
    """Rows (some empty, some of one entry), side labels, term weights
    (zeros and negatives among them) and a config."""
    dim = draw(st.integers(1, 8))
    n = draw(st.integers(2, 25))
    columns = [sorted(draw(st.lists(st.integers(0, dim - 1), max_size=min(dim, 4), unique=True))) for _ in range(n)]
    nonzero = st.integers(1, 4).map(float) | st.floats(-5, 5, allow_subnormal=False).filter(bool)
    values = [draw(nonzero) for row in columns for _ in row]
    rows = CountRows(np.cumsum([0] + [len(row) for row in columns]), [j for row in columns for j in row], values, dim)
    y = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    y[0], y[1] = -1, 1
    weight = st.sampled_from([0.0, -1.0]) | st.floats(-3, 3, allow_subnormal=False)
    term_weights = draw(st.none() | st.lists(weight, min_size=dim, max_size=dim).map(np.array))
    config = TrainConfig(
        cost=draw(st.floats(0.01, 10)),
        tol=draw(st.floats(1e-12, 1.0)),
        max_epochs=draw(st.integers(1, 130)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return rows, y, term_weights, config


@settings(max_examples=200, deadline=None)
@given(problems())
def test_the_kernel_gives_the_python_loops_bits(kernel, problem) -> None:
    rows, y, term_weights, config = problem
    with training_with(kernel):
        plane = train_binary(rows, y, config, term_weights)
    with training_with(None):
        reference = train_binary(rows, y, config, term_weights)
    assert_same_bits(plane, reference)


def perturbing(kernel):
    """A kernel that moves the first weight after every block of epochs."""
    def solve(n, epochs, orders, indptr, indices, values, ys, q_diag, bound, tol, w, alphas, state, objectives):
        run = kernel(n, epochs, orders, indptr, indices, values, ys, q_diag, bound, tol, w, alphas, state, objectives)
        ctypes.c_double.from_address(w).value += 1e-9
        return run
    return solve


def fixture_problem():
    rng = np.random.default_rng(11)
    dense = np.round(rng.normal(size=(30, 6)) * (rng.random(size=(30, 6)) < 0.5), 1)
    rows = stack([CountRows([0, np.count_nonzero(r)], np.flatnonzero(r), r[r != 0], 6) for r in dense])
    return rows, np.where(np.arange(30) % 3 == 0, 1, -1), np.array([1.0, 0.0, -2.0, 0.5, 3.0, 1.0])


#: (tol, max_epochs, epochs run, converged) on the fixture problem at cost 0.1,
#: whose epochs' largest projected gradients fall every epoch from the 4th on;
#: the blocks hold epochs 1-8, 9-24, 25-56, ...
BLOCK_STOPS = {
    "inside the first block": (0.5, 50, 6, True),
    "on a block's last epoch": (2e-6, 50, 24, True),
    "in a later block": (1e-8, 50, 30, True),
    "at max_epochs after three blocks": (1e-14, 40, 40, False),
}


@pytest.mark.parametrize("stop", BLOCK_STOPS)
def test_the_kernel_gives_the_python_loops_bits_across_blocks(kernel, stop) -> None:
    tol, max_epochs, epochs, converged = BLOCK_STOPS[stop]
    rows, y, term_weights = fixture_problem()
    config = TrainConfig(cost=0.1, tol=tol, max_epochs=max_epochs, seed=5)
    with training_with(None):
        reference = train_binary(rows, y, config, term_weights)
    assert (reference.epochs_run, reference.converged) == (epochs, converged)
    with training_with(kernel):
        assert_same_bits(train_binary(rows, y, config, term_weights), reference)


def test_one_epoch_blocks_give_the_bits_of_full_ones(kernel) -> None:
    rows, y, term_weights = fixture_problem()
    config = TrainConfig(cost=0.1, tol=1e-8, max_epochs=50, seed=5)
    with training_with(None):
        reference = train_binary(rows, y, config, term_weights)
    with training_with(kernel), patch.object(classify, "_BLOCK_ORDERS", 1):
        assert_same_bits(train_binary(rows, y, config, term_weights), reference)


def test_a_block_of_orders_is_the_stream_of_successive_permutations() -> None:
    """A block's draw gives each epoch the order ``rng.permutation(n)``
    would; reports keep their bytes only while this holds."""
    for n in (1, 2, 7, 150, 7199):
        blocked, successive = np.random.default_rng(n), np.random.default_rng(n)
        block = blocked.permuted(np.tile(np.arange(n, dtype=np.int64), (13, 1)), axis=1)
        assert np.array_equal(block, [successive.permutation(n) for _ in range(13)])
        assert blocked.bit_generator.state == successive.bit_generator.state


@pytest.mark.parametrize("case", ["no compiler", "no writable cache", "self-check disagrees"])
def test_without_a_usable_kernel_the_loader_logs_why_and_training_keeps_its_bits(
    case, kernel, tmp_path, monkeypatch, caplog,
) -> None:
    cache = tmp_path / "cache"
    compiler = None
    if case == "no compiler":
        compiler = [str(tmp_path / "no-such-cc")]
    elif case == "no writable cache":
        cache = Path(os.devnull) / "sentagree"
    else:
        monkeypatch.setattr(classify.ctypes, "CDLL", lambda path: SimpleNamespace(cd_solve=perturbing(kernel)))
    with caplog.at_level(logging.DEBUG, logger="sentagree.classify"):
        loaded = classify._load_kernel(compiler, cache)
    assert loaded is None
    [record] = [r for r in caplog.records if r.name == "sentagree.classify"]
    assert record.levelno == logging.DEBUG and "training runs the Python loop" in record.getMessage()
    if case == "no compiler":
        assert list(cache.iterdir()) == []  # the temporary file is gone
    rows, y, term_weights = fixture_problem()
    config = TrainConfig(max_epochs=40, seed=5)
    with training_with(loaded):
        plane = train_binary(rows, y, config, term_weights)
    with training_with(kernel):
        assert_same_bits(plane, train_binary(rows, y, config, term_weights))


LOAD = "from sentagree import classify; assert classify._epoch_kernel() is not None"


def test_a_second_process_loads_the_cached_library_without_compiling(kernel, tmp_path) -> None:
    source_root = str(Path(sentagree.__file__).resolve().parent.parent)
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=source_root)
    subprocess.run([sys.executable, "-W", "error", "-c", LOAD], env=env, check=True, timeout=120)
    cache = tmp_path / "sentagree"
    [library] = cache.iterdir()  # no temporary file is left beside it
    assert cache.stat().st_mode & 0o777 == 0o700
    compiled = library.stat().st_mtime_ns
    subprocess.run([sys.executable, "-W", "error", "-c", LOAD], env=env, check=True, timeout=120)
    assert list(cache.iterdir()) == [library]
    assert library.stat().st_mtime_ns == compiled


@pytest.mark.parametrize("writable", ["directory", "library"])
def test_a_library_others_can_write_is_not_loaded(writable, kernel, tmp_path, caplog) -> None:
    cache = tmp_path / "cache"
    assert classify._load_kernel(cache=cache) is not None
    [library] = cache.iterdir()
    (cache if writable == "directory" else library).chmod(0o777)
    with caplog.at_level(logging.DEBUG, logger="sentagree.classify"):
        assert classify._load_kernel(cache=cache) is None
    assert "not owned by this user alone" in caplog.text
