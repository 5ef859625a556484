"""Workload definitions: inputs, set-up and per-fit correctness checks.

Every workload is a real ``EAFE(fpe, config).fit(task)`` on a full-size
Table III stand-in from ``repro.datasets.registry.load`` (no
``max_samples`` cap).  Each ``EngineConfig`` is spelled out field by
field here rather than taken from ``repro.bench.harness.bench_config``,
so no environment variable and no bench profile can change what runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.engine import EAFE, AFEResult, EngineConfig
from repro.core.pretrain import pretrain_fpe
from repro.datasets.registry import load
from repro.eval.shm import segment_prefix

#: Pool size: one benchmark process drives the load, and the pool gets
#: at most two workers (the reference machine has two cores).
POOL_WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))

#: FPE pre-training in set-up: a small corpus slice, labelled at a gain
#: threshold that keeps roughly 40% of generated candidates, so fits
#: still dominate a cold run (the paper's Table I).
FPE_PARAMS = dict(
    n_train=2, n_validation=1, scale=0.25, method="ccws", d=48,
    thre=0.005, tune=False, seed=0,
)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    backend: str
    fidelity: str = "off"
    durable_store: bool = False  # fresh SQLite eval_store_path per fit
    warm_replay: bool = False  # replay one seed against a warmed store
    max_agents: int = 8
    #: Engine seeds a run may use.  A fit's cost depends chaotically on
    #: its engine seed (it decides which candidates pass the FPE filter
    #: and get fitted: German Credit fits of 40 seeds need 6-15 real
    #: fits), so the pool holds seeds whose fits generate, submit and
    #: fit exactly as many candidates, found by surveying 20-40 seeds.
    pool: tuple[int, ...] = (13, 14)  # 17 generated, 12 submitted, 10 fits

    def engine_seed(self, run_seed: int) -> int:
        """The one engine seed a run with ``--seed run_seed`` fits."""
        return self.pool[run_seed % len(self.pool)]


#: Why each workload exists is recorded in BENCHMARK.json; the layer ->
#: metric -> workload map is perfbench/layers.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gc_serial_cold", "German Credit", "serial"),
        # Three agents keep a Bikeshare fit (10886 rows) near 4 s, so a
        # run still fits its seed about five times.
        Workload(
            "bike_pool_cold", "Bikeshare DC", "pool",
            durable_store=True, max_agents=3,
            pool=(3, 19),  # 6 generated, 7 submitted, 7 fits
        ),
        Workload(
            "gc_warm_replay", "German Credit", "serial",
            durable_store=True, warm_replay=True,
        ),
        Workload(
            "gc_fidelity_serial", "German Credit", "serial",
            fidelity="ladder+surrogate",
            pool=(4, 5),  # 15 generated, 16 submitted, 22 fits
        ),
    )
}


def engine_config(
    workload: Workload, seed: int, store_path: str | None,
    backend: str | None = None,
) -> EngineConfig:
    """The workload's full engine configuration, every field explicit."""
    backend = backend or workload.backend
    return EngineConfig(
        n_epochs=1,
        stage1_epochs=1,
        transforms_per_agent=2,
        max_order=5,
        thre=0.01,
        gamma=0.9,
        lam=0.5,
        lr=0.01,
        max_agents=workload.max_agents,
        max_subgroup=32,
        replay_capacity=512,
        n_splits=3,
        n_estimators=5,
        model_kind="rf",
        two_stage=True,
        per_step_rewards=True,
        patience=None,
        eval_cache=True,
        eval_backend=backend,
        eval_workers=POOL_WORKERS if backend == "pool" else None,
        eval_store_path=store_path,
        eval_speculation=True,
        eval_fidelity=workload.fidelity,
        eval_timeout=None,
        seed=seed,
    )


def fit_once(fpe, task, config: EngineConfig) -> AFEResult:
    engine = EAFE(fpe, config)
    try:
        return engine.fit(task)
    finally:
        engine.eval_cache.close()


def _call(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def set_up(workload: Workload, seed: int, store_path: str | None, step=_call):
    """Dataset generation, FPE pre-training and (warm replay) store warm-up.

    Returns ``(task, fpe, warm_result)``; ``warm_result`` is the cold fit
    of ``seed`` that wrote its scores to ``store_path``, or ``None`` when
    the workload has no warm-up.  Each step runs as ``step(fn, *args)``,
    so a caller can time the steps one by one.
    """
    task = step(load, workload.dataset)
    fpe = step(pretrain_fpe, **FPE_PARAMS)
    warm = None
    if workload.warm_replay:
        warm = step(fit_once, fpe, task, engine_config(workload, seed, store_path))
    return task, fpe, warm


def leftover_segments() -> list[str]:
    """Shared-memory segments this process created and never unlinked."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    prefix = segment_prefix()
    return [name for name in names if name.startswith(prefix)]


def check_fit(
    workload: Workload,
    result: AFEResult,
    submissions: int | None,
    reference: dict | None,
    replay: bool,
) -> list[str]:
    """Names of the correctness checks this fit failed (empty: all pass).

    ``reference`` is the seed's recorded serial result; ``submissions``
    the ledger's count of scores the engine requested (``None`` skips
    the cache-partition check, for fits made without the ledger reset);
    ``replay`` marks a fit against a warmed store, which must fit nothing.
    """
    failures = []
    if reference is None or (
        result.best_score != reference["best_score"]
        or list(result.selected_features) != reference["selected_features"]
    ):
        failures.append("reference")
    if replay and (
        result.n_downstream_evaluations != 0 or result.n_cache_misses != 0
    ):
        failures.append("warm_replay_fits")
    if result.n_speculative_submitted != (
        result.n_speculative_used + result.n_speculative_discarded
    ):
        failures.append("speculation_partition")
    if submissions is not None and (
        result.n_cache_hits + result.n_cache_misses + result.n_surrogate_served
        != submissions
    ):
        failures.append("cache_partition")
    if workload.backend == "pool" and leftover_segments():
        failures.append("shm_leak")
    return failures
