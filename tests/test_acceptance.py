"""Acceptance criteria, one test per criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Criterion 11 needs real datasets under
``$HSIKELM_DATA_DIR`` and is skipped when they are absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from hsikelm import kelm, metrics, pipeline, pso, ssa
from hsikelm.datacube import load_cube, load_labels, save_cube, save_labels
from hsikelm.lbp import lbp_features
from hsikelm.mstv import RtvParams, kpca_fit, kpca_transform, rtv_smooth


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- independent oracles -------------------------------------------------------

def kelm_oracle(train_x, labels, c, gamma, query_x):
    n = len(train_x)
    class_ids = sorted(set(int(v) for v in labels))
    omega = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            omega[i, j] = np.exp(-gamma * np.sum((train_x[i] - train_x[j]) ** 2))
    y = np.zeros((n, len(class_ids)))
    for i, label in enumerate(labels):
        y[i, class_ids.index(int(label))] = 1.0
    alpha = np.linalg.inv(omega + np.eye(n) / c) @ y
    k = np.empty((len(query_x), n))
    for i in range(len(query_x)):
        for j in range(n):
            k[i, j] = np.exp(-gamma * np.sum((query_x[i] - train_x[j]) ** 2))
    return k @ alpha


def lbp_oracle(img):
    offsets = [(-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1)]
    h, w = img.shape
    out = np.zeros((h, w), dtype=int)
    for r in range(h):
        for c in range(w):
            code = 0
            for bit, (dr, dc) in enumerate(offsets):
                rr = min(max(r + dr, 0), h - 1)
                cc = min(max(c + dc, 0), w - 1)
                if img[rr, cc] >= img[r, c]:
                    code |= 1 << bit
            out[r, c] = code
    return out


def tv_sum(img):
    h, w = img.shape
    total = 0.0
    for r in range(h):
        for c in range(w):
            if r + 1 < h:
                total += abs(img[r + 1, c] - img[r, c])
            if c + 1 < w:
                total += abs(img[r, c + 1] - img[r, c])
    return total


def pca_oracle(x, n_components):
    centered = x - x.mean(axis=0)
    _, vectors = np.linalg.eigh(centered.T @ centered)
    return centered @ vectors[:, ::-1][:, :n_components]


def sphere(x):
    return float(np.sum(x * x))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


# -- shared expensive runs -----------------------------------------------------

@pytest.fixture(scope="module")
def sphere_benchmark():
    lo, hi = np.full(10, -5.0), np.full(10, 5.0)
    finals, traces, worst_violation = [], [], [0.0]
    replace = ssa.greedy_replace

    def check(state):  # every iteration ends in greedy_replace
        replace(state)
        spread = max(
            float(np.max(lo - state.positions, initial=0.0)),
            float(np.max(state.positions - hi, initial=0.0)),
        )
        worst_violation[0] = max(worst_violation[0], spread)

    start = time.perf_counter()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ssa, "greedy_replace", check)
        for seed in range(20):
            cfg = ssa.SwarmConfig(lower=lo, upper=hi, pop_size=30, max_iter=200, seed=seed)
            result = ssa.optimize(sphere, cfg)
            finals.append(result.best_fitness)
            traces.append(result.trace_best)
    elapsed = time.perf_counter() - start
    violations = worst_violation[0]
    return {"finals": finals, "traces": traces, "violations": violations,
            "elapsed": elapsed, "bounds": (lo, hi)}


@pytest.fixture(scope="module")
def e2e_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance_e2e")
    cube, labels = pipeline.make_synthetic_cube(64, 64, 40, 5, noise_sigma=0.1, seed=0)
    cube_path, label_path = tmp / "cube.f32", tmp / "labels.u16"
    save_cube(cube, cube_path)
    save_labels(labels, label_path)

    def run(out_dir):
        config = pipeline.config_from_dict({
            "cube_path": str(cube_path),
            "label_path": str(label_path),
            "num_classes": 5,
            "train_fraction": 0.10,
            "seed": 0,
            "output_dir": str(out_dir),
        })
        return pipeline.run_full(config)

    start = time.perf_counter()
    first = run(tmp / "run_a")
    elapsed = time.perf_counter() - start
    second = run(tmp / "run_b")
    return {"first": first, "second": second, "elapsed": elapsed,
            "dir_a": tmp / "run_a", "dir_b": tmp / "run_b"}


# -- criteria ------------------------------------------------------------------

def test_criterion_01_kelm_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 61))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(2, min(n, 4) + 1))
        x = rng.normal(size=(n, d))
        y = rng.integers(1, k + 1, size=n)
        y[:k] = np.arange(1, k + 1)
        c = float(10 ** rng.uniform(-1, 2))  # C in [0.1, 100]
        gamma = float(10 ** rng.uniform(-2, 1))  # gamma in [0.01, 10]
        q = rng.normal(size=(5, d))
        model = kelm.train(x, y, kelm.KelmHyperparams(c=c, gamma=gamma))
        scores, _ = kelm.predict(model, q)
        want = kelm_oracle(x, y, c, gamma, q)
        worst = max(worst, float(np.max(np.abs(scores - want) / (np.abs(want) + 1e-12))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, "kelm oracle equivalence", ok,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s over 100 problems")


def test_criterion_02_kelm_hand_case():
    model = kelm.train(np.array([[0.0], [1.0]]), [1, 2], kelm.KelmHyperparams(c=1.0, gamma=1.0))
    expected_alpha = np.array([[0.517509, -0.095195], [-0.095195, 0.517509]])
    scores, _ = kelm.predict(model, np.array([[0.0]]))
    alpha_err = float(np.max(np.abs(model.alpha - expected_alpha)))
    score_err = float(np.max(np.abs(scores[0] - np.array([0.48249, 0.09519]))))
    ok = alpha_err <= 1e-5 and score_err <= 1e-5
    report(2, "kelm two-point hand case", ok,
           f"alpha err {alpha_err:.2e}, score err {score_err:.2e}")


def test_criterion_03_lbp_exactness():
    rng = np.random.default_rng(7)
    exact = True
    for _ in range(50):
        img = rng.integers(0, 256, size=(32, 32)).astype(np.float32)
        got = (lbp_features(img[:, :, None])[:, 0] * 255.0).round().astype(int)
        exact = exact and np.array_equal(got.reshape(32, 32), lbp_oracle(img))
    uniform = lbp_features(np.full((9, 9, 1), 3.0, dtype=np.float32))
    uniform_ok = np.all(uniform == 1.0)
    img = rng.integers(0, 256, size=(16, 16)).astype(np.float32)
    base = lbp_features(img[:, :, None])
    shift_ok = np.array_equal(base, lbp_features((img + 100.0)[:, :, None]))
    scale_ok = np.array_equal(base, lbp_features((img * 4.0)[:, :, None]))
    ok = exact and uniform_ok and shift_ok and scale_ok
    report(3, "lbp oracle equivalence and invariances", ok,
           f"oracle={exact} uniform={uniform_ok} shift={shift_ok} scale={scale_ok}")


def test_criterion_04_ssa_sphere_convergence(sphere_benchmark):
    finals = sphere_benchmark["finals"]
    median = float(np.median(finals))
    monotone = all(
        all(a >= b for a, b in zip(tr, tr[1:])) for tr in sphere_benchmark["traces"]
    )
    in_bounds = sphere_benchmark["violations"] <= 1e-12
    ok = median < 1e-4 and monotone and in_bounds and sphere_benchmark["elapsed"] < 30.0
    report(4, "ssa 10-D sphere convergence", ok,
           f"median {median:.2e}, monotone={monotone}, in_bounds={in_bounds}, "
           f"{sphere_benchmark['elapsed']:.1f}s")


def test_criterion_05_ssa_beats_pso_fixture(sphere_benchmark):
    lo, hi = sphere_benchmark["bounds"]
    ssa_sphere = float(np.median(sphere_benchmark["finals"]))
    ssa_rosen = float(np.median([
        ssa.optimize(rosenbrock, ssa.SwarmConfig(lower=lo, upper=hi, pop_size=30,
                                                 max_iter=200, seed=seed)).best_fitness
        for seed in range(20)
    ]))
    pso_sphere = float(np.median([
        pso.pso_minimize(sphere, ssa.SwarmConfig(lower=lo, upper=hi, pop_size=30,
                                                 max_iter=200, seed=seed)).best_fitness
        for seed in range(20)
    ]))
    pso_rosen = float(np.median([
        pso.pso_minimize(rosenbrock, ssa.SwarmConfig(lower=lo, upper=hi, pop_size=30,
                                                     max_iter=200, seed=seed)).best_fitness
        for seed in range(20)
    ]))
    ok = ssa_sphere <= pso_sphere and ssa_rosen <= pso_rosen
    report(5, "ssa rank-1 over pso fixture", ok,
           f"sphere {ssa_sphere:.2e} vs {pso_sphere:.2e}; "
           f"rosenbrock {ssa_rosen:.2e} vs {pso_rosen:.2e}")


def test_criterion_06_rtv_properties():
    const = np.full((24, 24), 1.75)
    drift = float(np.max(np.abs(rtv_smooth(const, RtvParams()) - const)))
    rng = np.random.default_rng(0)
    tv_ok, mean_ok = True, True
    for seed in range(20):
        gen = np.random.default_rng(seed)
        rows = gen.uniform(0.2, 1.0) * (np.linspace(0, 1, 48)[:, None] > gen.uniform(0.3, 0.7))
        structure = rows * np.ones((48, 48))
        texture = 0.2 * (((np.arange(48)[:, None] + np.arange(48)[None, :]) % 2) * 2 - 1)
        noise = 0.05 * gen.normal(size=(48, 48))
        img = structure + texture + noise + gen.uniform(0.0, 0.5)
        out = rtv_smooth(img, RtvParams(lam=0.005, sigma=3.0))
        tv_ok = tv_ok and tv_sum(out) <= tv_sum(img) + 1e-9
        mean_ok = mean_ok and abs(out.mean() - img.mean()) <= 0.01 * abs(img.mean())
    ok = drift <= 1e-10 and tv_ok and mean_ok
    report(6, "rtv fixed point, tv decrease, mean preservation", ok,
           f"const drift {drift:.2e}, tv_ok={tv_ok}, mean_ok={mean_ok}")


def test_criterion_07_kpca_matches_pca_oracle():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(8, 40))
        d = int(rng.integers(2, 7))
        n_comp = min(d, 3)
        x = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
        model = kpca_fit(x, n_components=n_comp, gamma=0.0, landmark_count=n, seed=0)
        got = kpca_transform(model, x)
        want = pca_oracle(x, n_comp)
        for j in range(n_comp):  # sign alignment per component
            anchor = np.argmax(np.abs(want[:, j]))
            if got[anchor, j] * want[anchor, j] < 0:
                got[:, j] = -got[:, j]
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-6
    report(7, "kpca linear full-landmark vs pca oracle", ok, f"worst abs err {worst:.2e}")


def test_criterion_08_metrics_hand_cases():
    diag = np.diag([3, 5, 2])
    chance = np.array([[1, 1], [1, 1]])
    hand = np.array([[4, 1], [2, 3]])
    ok = (
        metrics.oa(diag) == 1.0 and metrics.aa(diag) == 1.0 and metrics.kappa(diag) == 1.0
        and metrics.oa(chance) == 0.5 and metrics.kappa(chance) == 0.0
        and metrics.oa(hand) == 0.7 and metrics.kappa(hand) == 0.4 and metrics.aa(hand) == 0.7
    )
    report(8, "metrics hand cases exact", ok)


def test_criterion_09_end_to_end_synthetic(e2e_runs):
    rep = e2e_runs["first"]
    ok = rep.oa >= 0.95 and rep.kappa >= 0.93 and e2e_runs["elapsed"] < 120.0
    report(9, "end-to-end synthetic fixture", ok,
           f"oa={rep.oa:.4f} kappa={rep.kappa:.4f} in {e2e_runs['elapsed']:.1f}s")


def test_criterion_10_determinism(e2e_runs):
    names = ["run_report.json", "confusion.csv", "classification_map.ppm", "ssa_trace.csv"]
    same = {
        name: (e2e_runs["dir_a"] / name).read_bytes() == (e2e_runs["dir_b"] / name).read_bytes()
        for name in names
    }
    ok = all(same.values())
    report(10, "byte-identical reruns", ok, str(same))


_DATA_DIR = os.environ.get("HSIKELM_DATA_DIR", "")


def _dataset_paths(stem):
    base = Path(_DATA_DIR)
    return base / f"{stem}.npy", base / f"{stem}_gt.npy"


def _run_real_dataset(stem, num_classes, tmp_path):
    cube_path, gt_path = _dataset_paths(stem)
    config = pipeline.config_from_dict({
        "cube_path": str(cube_path),
        "label_path": str(gt_path),
        "num_classes": num_classes,
        "train_fraction": 0.10,
        "seed": 0,
        "output_dir": str(tmp_path / stem),
    })
    return pipeline.run_full(config)


@pytest.mark.skipif(
    not (_DATA_DIR and all(p.exists() for p in _dataset_paths("indian_pines_corrected"))),
    reason="Indian Pines dataset not provided via HSIKELM_DATA_DIR",
)
def test_criterion_11a_indian_pines(tmp_path):
    cube = load_cube(_dataset_paths("indian_pines_corrected")[0])
    labels = load_labels(_dataset_paths("indian_pines_corrected")[1], 16)
    dims_ok = cube.shape[:2] == (145, 145)
    labeled_ok = np.count_nonzero(labels) == 10249
    rep = _run_real_dataset("indian_pines_corrected", 16, tmp_path)
    ok = dims_ok and labeled_ok and abs(rep.oa * 100.0 - 98.78) <= 1.5
    report(11, "indian pines 10% within 1.5 points", ok,
           f"dims_ok={dims_ok} labeled_ok={labeled_ok} oa={rep.oa:.4f}")


@pytest.mark.skipif(
    not (_DATA_DIR and all(p.exists() for p in _dataset_paths("pavia_university"))),
    reason="Pavia University dataset not provided via HSIKELM_DATA_DIR",
)
def test_criterion_11b_pavia_university(tmp_path):
    rep = _run_real_dataset("pavia_university", 9, tmp_path)
    ok = abs(rep.oa * 100.0 - 99.28) <= 1.5
    report(11, "pavia university 10% within 1.5 points", ok, f"oa={rep.oa:.4f}")
