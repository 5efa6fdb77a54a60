"""The seeded shifts and rotations of ``scripts/benchmark_optimizers.py``."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "benchmark_optimizers.py"
_spec = importlib.util.spec_from_file_location("benchmark_optimizers", _SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.mark.parametrize("dim", [2, 10])
def test_shifts_and_rotations_repeat_for_a_seed(dim):
    for seed in (0, 1):
        shift = bench.random_shift(dim, seed)
        assert np.array_equal(shift, bench.random_shift(dim, seed))
        assert np.all(np.abs(shift) <= 2.5) and np.unique(shift).size == dim  # off the diagonal
        rotation = bench.random_rotation(dim, seed)
        assert np.array_equal(rotation, bench.random_rotation(dim, seed))
        np.testing.assert_allclose(rotation.T @ rotation, np.eye(dim), rtol=0, atol=1e-12)
    assert not np.array_equal(bench.random_shift(dim, 0), bench.random_shift(dim, 1))
    assert not np.array_equal(bench.random_rotation(dim, 0), bench.random_rotation(dim, 1))


def test_each_moved_row_has_its_optimum_at_its_shift_inside_the_box():
    dim = 10
    rows = bench.benchmarks(dim)
    for k in bench.SHIFT_SEEDS:
        shift = bench.random_shift(dim, k)
        assert rows[f"sphere@shift{k}"][0](shift) == 0.0
        assert rows[f"rastrigin@shift{k}"][0](shift) == 0.0
        assert rows[f"rosenbrock@shift{k}"][0](shift + 1.0) == 0.0
    for k in bench.ROTATION_SEEDS:
        fn, (lo, hi) = rows[f"rastrigin@rot{k}"]
        shift = bench.random_shift(dim, k)
        assert fn(shift) == 0.0 and np.all((lo <= shift) & (shift <= hi))
        # rotated: a step along one axis from the optimum moves every rotated coordinate
        assert fn(shift + np.eye(dim)[0]) != rows[f"rastrigin@shift{k}"][0](shift + np.eye(dim)[0])
