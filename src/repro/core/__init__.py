"""E-AFE core: the paper's primary contribution."""

from .engine import AFEEngine, AFEResult, EAFE, EngineConfig, EpochRecord
from .evaluation import DownstreamEvaluator, make_downstream_model
from .filters import CandidateFilter, FPEFilter, KeepAllFilter, RandomFilter
from .fpe import FeatureLabel, FPEModel, label_features, tune_fpe
from .groupwise import GroupwiseEAFE, GroupwiseFeatureSpace, cluster_features
from .persistence import fpe_from_dict, fpe_to_dict, load_fpe, save_fpe
from .pretrain import default_fpe, make_evaluator_factory, pretrain_fpe
from .rewards import FPERewardTracker, fpe_pseudo_score
from .variants import VARIANT_NAMES, make_variant

__all__ = [
    "DownstreamEvaluator",
    "make_downstream_model",
    "FeatureLabel",
    "label_features",
    "FPEModel",
    "tune_fpe",
    "fpe_pseudo_score",
    "FPERewardTracker",
    "CandidateFilter",
    "FPEFilter",
    "RandomFilter",
    "KeepAllFilter",
    "EngineConfig",
    "EpochRecord",
    "AFEResult",
    "AFEEngine",
    "EAFE",
    "pretrain_fpe",
    "default_fpe",
    "make_evaluator_factory",
    "VARIANT_NAMES",
    "make_variant",
    "save_fpe",
    "load_fpe",
    "fpe_to_dict",
    "fpe_from_dict",
    "GroupwiseEAFE",
    "GroupwiseFeatureSpace",
    "cluster_features",
]
