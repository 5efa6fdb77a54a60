import numpy as np
import pytest

from hsikelm.errors import ConfigError, NumericalError
from hsikelm.pso import pso_minimize
from hsikelm.ssa import SwarmConfig


def sphere(x):
    return float(np.sum(x * x))


def test_sphere_convergence():
    cfg = SwarmConfig(lower=np.full(5, -5.0), upper=np.full(5, 5.0),
                      pop_size=20, max_iter=100, seed=0)
    result = pso_minimize(sphere, cfg)
    assert result.best_fit < 1e-2
    assert all(a >= b for a, b in zip(result.trace_best, result.trace_best[1:]))


def test_deterministic():
    cfg = SwarmConfig(lower=np.full(3, -2.0), upper=np.full(3, 2.0),
                      pop_size=10, max_iter=30, seed=4)
    a = pso_minimize(sphere, cfg)
    b = pso_minimize(sphere, cfg)
    assert a.trace_best == b.trace_best


def test_positions_respect_bounds():
    lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 3.0])
    cfg = SwarmConfig(lower=lo, upper=hi, pop_size=8, max_iter=20, seed=1)
    result = pso_minimize(lambda x: float(np.sum((x - 10.0) ** 2)), cfg)
    assert np.all(result.best_pos >= lo) and np.all(result.best_pos <= hi)


def test_config_validation():
    with pytest.raises(ConfigError):
        SwarmConfig(lower=np.array([1.0]), upper=np.array([0.0]))


def test_nan_objective_aborts():
    cfg = SwarmConfig(lower=np.array([0.0]), upper=np.array([1.0]), pop_size=4, max_iter=2, seed=0)
    with pytest.raises(NumericalError, match="NaN"):
        pso_minimize(lambda x: float("nan"), cfg)


def textbook_pso(obj, lower, upper, pop_size, max_iter, seed):
    """Global-best PSO written particle by particle: inertia 0.9 -> 0.4, both
    acceleration coefficients 2.0, velocity clamped to the box span, positions
    clipped to the box; the same generator draws as ``pso_minimize``."""
    rng = np.random.default_rng(seed)
    span = upper - lower
    x = lower + span * rng.uniform(size=(pop_size, lower.size))
    v = np.zeros_like(x)
    pbest, pbest_fit = x.copy(), [obj(p) for p in x]
    g = int(np.argmin(pbest_fit))
    gbest, gbest_fit = x[g].copy(), pbest_fit[g]
    trace = []
    for t in range(max_iter):
        w = 0.9 + (0.4 - 0.9) * t / (max_iter - 1)
        r1 = rng.uniform(size=x.shape)
        r2 = rng.uniform(size=x.shape)
        for i in range(pop_size):
            v[i] = w * v[i] + 2.0 * r1[i] * (pbest[i] - x[i]) + 2.0 * r2[i] * (gbest - x[i])
            v[i] = np.minimum(np.maximum(v[i], -span), span)
            x[i] = np.minimum(np.maximum(x[i] + v[i], lower), upper)
            fit = obj(x[i])
            if fit < pbest_fit[i]:
                pbest[i], pbest_fit[i] = x[i].copy(), fit
        g = int(np.argmin(pbest_fit))
        if pbest_fit[g] < gbest_fit:
            gbest, gbest_fit = pbest[g].copy(), pbest_fit[g]
        trace.append(gbest_fit)
    return gbest, trace


def test_update_rule_matches_textbook_oracle():
    lo, hi = np.full(3, -5.0), np.full(3, 5.0)
    result = pso_minimize(sphere, SwarmConfig(lower=lo, upper=hi, pop_size=6, max_iter=5, seed=1))
    best_pos, trace = textbook_pso(sphere, lo, hi, pop_size=6, max_iter=5, seed=1)
    assert result.trace_best == trace
    assert np.array_equal(result.best_pos, best_pos)
