"""Compare the sparrow-style optimizer with the plain PSO baseline on
box-constrained benchmarks under an equal population/iteration budget.
The sphere and rastrigin also run shifted (``+2.5``), with the optimum away
from the origin at 2.5 in every coordinate. The rows marked ``@shift<k>``
move the optimum by a seeded random vector instead, and ``@rot<k>`` also
rotates the rastrigin about it, so that no row rewards a pull toward the
origin or along the diagonal.

    python scripts/benchmark_optimizers.py [--dim 10] [--iters 200] [--seeds 20]
"""

import argparse

import numpy as np

from hsikelm import pso, ssa


def sphere(x):
    return float(np.sum(x * x))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def rastrigin(x):
    return float(10.0 * x.size + np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x)))


BOX, RASTRIGIN_BOX = (-5.0, 5.0), (-5.12, 5.12)
SHIFT_SEEDS = (0, 1)
ROTATION_SEEDS = (0,)


def random_shift(dim: int, seed: int) -> np.ndarray:
    """A seeded offset, uniform in [-2.5, 2.5]^dim: its coordinates differ, so
    the moved optimum lies neither at the origin nor on the diagonal."""
    return np.random.default_rng(seed).uniform(-2.5, 2.5, size=dim)


def random_rotation(dim: int, seed: int) -> np.ndarray:
    """A seeded orthogonal matrix: Q of the QR factors of a seeded standard
    normal matrix, each column's sign fixed so that R's diagonal is positive,
    which makes Q the one factor of that matrix."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def moved(fn, shift, rotation: np.ndarray | None = None):
    """``fn`` at ``rotation @ (x - shift)``: its optimum moves by ``shift``."""
    if rotation is None:
        return lambda x: fn(x - shift)
    return lambda x: fn(rotation @ (x - shift))


def benchmarks(dim: int) -> dict:
    """Name -> (function, (lower, upper)) for every row of the table."""
    # +2.5 takes away the origin's pull, but (2.5, ..., 2.5) lies on the
    # diagonal that SSA's better-half joiner step moves along (it adds one
    # scalar to every coordinate); the seeded shifts below take away both
    rows = {
        "sphere": (sphere, BOX),
        "sphere+2.5": (moved(sphere, 2.5), BOX),
        "rosenbrock": (rosenbrock, BOX),
        "rastrigin": (rastrigin, RASTRIGIN_BOX),
        "rastrigin+2.5": (moved(rastrigin, 2.5), RASTRIGIN_BOX),
    }
    for name, fn, box in (("sphere", sphere, BOX), ("rosenbrock", rosenbrock, BOX),
                          ("rastrigin", rastrigin, RASTRIGIN_BOX)):
        for k in SHIFT_SEEDS:
            rows[f"{name}@shift{k}"] = (moved(fn, random_shift(dim, k)), box)
    for k in ROTATION_SEEDS:
        rows[f"rastrigin@rot{k}"] = (moved(rastrigin, random_shift(dim, k), random_rotation(dim, k)),
                                     RASTRIGIN_BOX)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=10)
    parser.add_argument("--pop", type=int, default=30)
    parser.add_argument("--iters", type=int, default=200)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--csv", default=None, help="optional per-run CSV output path")
    args = parser.parse_args()

    rows = []
    print(f"{'benchmark':<18} {'optimizer':<6} {'median':>12} {'best':>12} {'worst':>12}")
    for name, (fn, (lo, hi)) in benchmarks(args.dim).items():
        configs = [ssa.SwarmConfig(lower=np.full(args.dim, lo), upper=np.full(args.dim, hi),
                                   pop_size=args.pop, max_iter=args.iters, seed=seed)
                   for seed in range(args.seeds)]
        for label, minimize in (("ssa", ssa.optimize), ("pso", pso.pso_minimize)):
            finals = [minimize(fn, cfg).best_fitness for cfg in configs]
            print(f"{name:<18} {label:<6} {np.median(finals):>12.3e} "
                  f"{min(finals):>12.3e} {max(finals):>12.3e}")
            rows.extend((name, label, seed, value) for seed, value in enumerate(finals))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("benchmark,optimizer,seed,final_fitness\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
