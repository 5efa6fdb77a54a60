import numpy as np
import pytest

from hsikelm.errors import ConfigError, NumericalError
from hsikelm.pso import PsoConfig, pso_minimize


def sphere(x):
    return float(np.sum(x * x))


def test_sphere_convergence():
    cfg = PsoConfig(lower=np.full(5, -5.0), upper=np.full(5, 5.0),
                    pop_size=20, max_iter=100, seed=0)
    result = pso_minimize(sphere, cfg)
    assert result.best_fit < 1e-2
    assert all(a >= b for a, b in zip(result.trace_best, result.trace_best[1:]))


def test_deterministic():
    cfg = PsoConfig(lower=np.full(3, -2.0), upper=np.full(3, 2.0),
                    pop_size=10, max_iter=30, seed=4)
    a = pso_minimize(sphere, cfg)
    b = pso_minimize(sphere, cfg)
    assert a.trace_best == b.trace_best


def test_positions_respect_bounds():
    lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 3.0])
    cfg = PsoConfig(lower=lo, upper=hi, pop_size=8, max_iter=20, seed=1)
    result = pso_minimize(lambda x: float(np.sum((x - 10.0) ** 2)), cfg)
    assert np.all(result.best_pos >= lo) and np.all(result.best_pos <= hi)


def test_config_validation():
    with pytest.raises(ConfigError):
        PsoConfig(lower=np.array([1.0]), upper=np.array([0.0]))


def test_nan_objective_aborts():
    cfg = PsoConfig(lower=np.array([0.0]), upper=np.array([1.0]), pop_size=4, max_iter=2, seed=0)
    with pytest.raises(NumericalError, match="NaN"):
        pso_minimize(lambda x: float("nan"), cfg)
