"""repro — reproduction of "Toward Efficient Automated Feature Engineering".

E-AFE (Wang, Wang & Xu, ICDE 2023) accelerates reinforcement-learning
automated feature engineering with a hashing-based Feature Pre-Evaluation
model and a two-stage policy-training strategy.  This package contains a
from-scratch implementation of the method, every substrate it depends on
(tabular frame, ML models, weighted MinHash, operators, RL framework,
dataset generators), the paper's baselines, and a benchmark harness that
regenerates every table and figure of the evaluation section.

Quickstart
----------
>>> from repro import AutoFeatureEngineer, pretrain_fpe
>>> from repro.datasets import load
>>> fpe = pretrain_fpe(n_train=6, n_validation=2, scale=0.3)
>>> task = load("PimaIndian", max_samples=300)
>>> afe = AutoFeatureEngineer(method="E-AFE", fpe=fpe, n_epochs=5)
>>> Xt = afe.fit_transform(task.X, task.y)
>>> afe.result_.best_score >= afe.result_.base_score
True

The paper-reproduction API is unchanged underneath:
``EAFE(fpe, EngineConfig(...)).fit(task)`` returns the same
:class:`~repro.core.engine.AFEResult` the estimator exposes as
``result_``.
"""

from .core import (
    AFEEngine,
    AFEResult,
    EAFE,
    EngineConfig,
    FPEModel,
    default_fpe,
    make_variant,
    pretrain_fpe,
    tune_fpe,
)
from .eval import EvaluationService, PoolExecutor
from .fidelity import FidelityController, FidelitySpec, SurrogateGate
from .store import (
    MemoryBackend,
    RunStore,
    SqliteBackend,
    WriteThroughBackend,
    make_eval_backend,
)
from .api import (
    AutoFeatureEngineer,
    FeaturePlan,
    SearcherRegistry,
    searcher_registry,
)
from .serve import FeaturePipeline, PlanRegistry, TransformService
from .chaos import FaultInjected, FaultPlan
from .reliability import RetryPolicy

__version__ = "1.9.0"

__all__ = [
    "AutoFeatureEngineer",
    "FaultInjected",
    "FaultPlan",
    "FeaturePipeline",
    "FeaturePlan",
    "RetryPolicy",
    "PlanRegistry",
    "TransformService",
    "SearcherRegistry",
    "searcher_registry",
    "EAFE",
    "AFEEngine",
    "AFEResult",
    "EngineConfig",
    "EvaluationService",
    "FidelityController",
    "FidelitySpec",
    "PoolExecutor",
    "SurrogateGate",
    "FPEModel",
    "MemoryBackend",
    "RunStore",
    "SqliteBackend",
    "WriteThroughBackend",
    "make_eval_backend",
    "pretrain_fpe",
    "default_fpe",
    "tune_fpe",
    "make_variant",
    "__version__",
]
