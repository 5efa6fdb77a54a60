"""Plain global-best particle swarm baseline used in optimizer comparisons.

Classic textbook variant: inertia decays linearly from 0.9 to 0.4,
cognitive and social coefficients fixed at 2.0, positions clamped to the
box bounds.
"""

from __future__ import annotations

import numpy as np

from .ssa import SearchResult, SwarmConfig, batch_fitness

INERTIA_START, INERTIA_END = 0.9, 0.4
COGNITIVE = SOCIAL = 2.0


def pso_minimize(obj, cfg: SwarmConfig) -> SearchResult:
    """The trace's mean is that of the personal-best fitness, PSO's retained population."""
    rng = np.random.default_rng(cfg.seed)
    n, d = cfg.pop_size, cfg.dim
    span = cfg.upper - cfg.lower
    pos = cfg.lower + span * rng.uniform(size=(n, d))
    vel = np.zeros((n, d))
    fit = batch_fitness(obj, pos)
    pbest = pos.copy()
    pbest_fit = fit.copy()
    g = int(np.argmin(fit))
    gbest = pos[g].copy()
    gbest_fit = float(fit[g])
    trace_best, trace_mean = [], []
    for t in range(cfg.max_iter):
        w = INERTIA_START + (INERTIA_END - INERTIA_START) * t / max(cfg.max_iter - 1, 1)
        r1 = rng.uniform(size=(n, d))
        r2 = rng.uniform(size=(n, d))
        vel = w * vel + COGNITIVE * r1 * (pbest - pos) + SOCIAL * r2 * (gbest - pos)
        vel = np.clip(vel, -span, span)
        pos = np.clip(pos + vel, cfg.lower, cfg.upper)
        fit = batch_fitness(obj, pos)
        better = fit < pbest_fit
        pbest[better] = pos[better]
        pbest_fit[better] = fit[better]
        g = int(np.argmin(pbest_fit))
        if pbest_fit[g] < gbest_fit:
            gbest_fit = float(pbest_fit[g])
            gbest = pbest[g].copy()
        trace_best.append(gbest_fit)
        trace_mean.append(float(pbest_fit.mean()))
    return SearchResult(gbest, gbest_fit, trace_best, trace_mean)
