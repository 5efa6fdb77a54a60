"""Hyperspectral image classification with fused multi-scale structure and
texture features and a swarm-tuned kernel extreme learning machine."""

from .datacube import (
    SampleSplit,
    load_cube,
    load_labels,
    save_cube,
    save_labels,
    stratified_split,
)
from .errors import ConfigError, DataError, HsiKelmError, NumericalError
from .kelm import KelmHyperparams, KelmModel, mse_fitness, predict, rbf_kernel, train
from .lbp import lbp_features
from .metrics import ConfusionMatrix, aa, confusion, kappa, oa
from .mstv import (
    MstvConfig,
    RtvParams,
    group_and_average,
    kpca_reduce,
    multiscale_stack,
    rtv_smooth,
)
from .pipeline import (
    PipelineConfig,
    RunReport,
    make_synthetic_cube,
    render_map,
    run_full,
)
from .pso import pso_minimize
from .ssa import SsaResult, SsaState, SwarmConfig, optimize, tune_kelm

__version__ = "0.1.0"

__all__ = [
    "SampleSplit", "load_cube", "load_labels", "save_cube", "save_labels",
    "stratified_split",
    "ConfigError", "DataError", "HsiKelmError", "NumericalError",
    "KelmHyperparams", "KelmModel", "mse_fitness", "predict", "rbf_kernel", "train",
    "lbp_features",
    "ConfusionMatrix", "aa", "confusion", "kappa", "oa",
    "MstvConfig", "RtvParams", "group_and_average", "kpca_reduce",
    "multiscale_stack", "rtv_smooth",
    "PipelineConfig", "RunReport", "make_synthetic_cube", "render_map", "run_full",
    "pso_minimize",
    "SsaResult", "SsaState", "SwarmConfig", "optimize", "tune_kelm",
    "__version__",
]
