"""Experiment harness: method factories, runners, and text tables.

Every benchmark regenerates a paper table/figure through this module so
that method construction, configuration, and result bookkeeping are
identical across experiments.  Two scale profiles exist:

* ``quick`` (default) — a few epochs on down-scaled datasets; preserves
  orderings and ratios, runs in minutes.  Used by ``benchmarks/``.
* ``paper`` — the paper's hyperparameters (200 epochs, full sizes);
  only for manual runs with hours of budget.

Set ``REPRO_BENCH_PROFILE=paper`` to switch.  :func:`bench_config` is
the one place that turns ``REPRO_EVAL_*`` environment variables into
:class:`~repro.core.engine.EngineConfig` fields, so every bench knob is
validated like an explicit argument (a knob the chosen backend never
reads is rejected):

* ``REPRO_EVAL_BACKEND`` — ``serial`` (default) or ``pool``;
* ``REPRO_EVAL_WORKERS`` — pool size (``pool`` only);
* ``REPRO_EVAL_TIMEOUT`` — per-fit deadline in seconds (``pool`` only;
  empty or ``0`` disables);
* ``REPRO_EVAL_CACHE=0`` — disable score memoization;
* ``REPRO_EVAL_SPECULATION=0`` — turn off the pool backend's
  cross-agent sweep speculation;
* ``REPRO_EVAL_STORE`` — durable score store; unset, the active run
  store's file (:func:`set_run_store`) backs the scores too;
* ``REPRO_EVAL_FIDELITY`` — multi-fidelity spec (default ``off``),
  e.g. ``ladder+surrogate``.

Scores are identical across backends, but the ``pool`` backend
prefetches sweeps speculatively, so evaluation-*count* tables
(Table IV, Figure 9) are paper-comparable only under the default
``serial`` backend.  A fidelity spec *does* change reported scores, so
fidelity-on sweeps hash into their own run-store cells.
"""

from __future__ import annotations

import os
import sys
import time
from collections.abc import Sequence

from ..api.plan import FeaturePlan, fpe_identity
from ..api.registry import searcher_registry
from ..core.engine import AFEResult, EngineConfig
from ..eval import BACKENDS as EVAL_BACKENDS
from ..eval import validate_eval_timeout, validate_eval_workers
from ..core.fpe import FPEModel
from ..datasets.generators import TabularTask
from ..datasets.registry import load as load_dataset
from ..store import RunStore, config_hash

__all__ = [
    "ALL_METHODS",
    "bench_profile",
    "bench_eval_backend",
    "bench_config",
    "bench_dataset",
    "make_method",
    "active_run_store",
    "resume_enabled",
    "run_single",
    "run_methods",
    "format_table",
    "set_cell_sink",
    "set_run_store",
]

#: Table III column order (paper aliases in parentheses).
ALL_METHODS = (
    "AutoFSR",  # FSR
    "RTDLN",  # DLN
    "NFS",
    "FE|DL",
    "DL|FE",
    "E-AFE_R",
    "E-AFE_D",
    "E-AFE_L",
    "E-AFE_P",
    "E-AFE_I",
    "E-AFE",
)


def bench_profile() -> str:
    """Current scale profile: "quick" unless REPRO_BENCH_PROFILE=paper."""
    profile = os.environ.get("REPRO_BENCH_PROFILE", "quick").lower()
    if profile not in ("quick", "paper"):
        raise ValueError(f"unknown bench profile {profile!r}")
    return profile


def bench_eval_backend() -> str:
    """Candidate-scoring backend: "serial" unless REPRO_EVAL_BACKEND says else."""
    backend = os.environ.get("REPRO_EVAL_BACKEND", "serial").lower()
    if backend not in EVAL_BACKENDS:
        raise ValueError(
            f"unknown eval backend {backend!r}; expected one of {EVAL_BACKENDS}"
        )
    return backend


def _env_number(variable: str, parse, validate):
    """One numeric ``REPRO_EVAL_*`` knob, parsed and validated (unset: None)."""
    raw = os.environ.get(variable)
    if not raw:
        return None
    try:
        value = parse(raw)
    except ValueError:
        value = raw  # not a number: the validator rejects it by name
    return validate(value, name=variable)


def bench_config(seed: int = 0, **overrides) -> EngineConfig:
    """Engine configuration for the active profile and ``REPRO_EVAL_*``."""
    if bench_profile() == "paper":
        params = dict(
            n_epochs=200,
            stage1_epochs=20,
            transforms_per_agent=5,
            n_splits=5,
            n_estimators=10,
            max_agents=16,
            seed=seed,
        )
    else:
        params = dict(
            n_epochs=3,
            stage1_epochs=2,
            transforms_per_agent=3,
            n_splits=3,
            n_estimators=5,
            max_agents=6,
            seed=seed,
        )
    params["eval_backend"] = bench_eval_backend()
    params["eval_cache"] = os.environ.get("REPRO_EVAL_CACHE", "1") != "0"
    params["eval_speculation"] = (
        os.environ.get("REPRO_EVAL_SPECULATION", "1") != "0"
    )
    params["eval_fidelity"] = os.environ.get("REPRO_EVAL_FIDELITY", "off")
    params["eval_workers"] = _env_number(
        "REPRO_EVAL_WORKERS", int, validate_eval_workers
    )
    params["eval_timeout"] = _env_number(
        "REPRO_EVAL_TIMEOUT", lambda raw: float(raw) or None,
        validate_eval_timeout,
    )
    params["eval_store_path"] = (
        os.environ.get("REPRO_EVAL_STORE") or _RUN_STORE[0]
    )
    params.update(overrides)
    return EngineConfig(**params)


def bench_dataset(name: str) -> TabularTask:
    """Load a Table III dataset at the active profile's scale."""
    if bench_profile() == "paper":
        return load_dataset(name)
    return load_dataset(name, max_samples=250, max_features=8)


def make_method(name: str, config: EngineConfig, fpe: FPEModel | None = None):
    """Instantiate any registered method by its canonical name.

    Thin shim over :func:`repro.api.registry.searcher_registry` — every
    built-in (Table III columns, ablations, related-work systems) and
    every runtime-registered third-party searcher constructs through
    the same table, so the bench runs them identically.
    """
    return searcher_registry().create(name, config, fpe=fpe)


_RUN_STORES: dict[str, RunStore] = {}

#: (path, resume) of the run store bench ``--store`` / the fleet
#: leader installed; see :func:`set_run_store`.
_RUN_STORE: tuple[str | None, bool] = (None, False)


def set_run_store(
    path: str | None, resume: bool = False
) -> tuple[str | None, bool]:
    """Install (or clear, with ``None``) the run store :func:`run_single`
    uses when no store is passed explicitly.

    ``resume`` replays already-completed cells instead of re-running
    them.  Returns the previous ``(path, resume)`` pair so callers can
    restore it with ``set_run_store(*previous)`` (``try/finally``).
    While a store is installed, :func:`bench_config` also points the
    score cache at its file unless ``REPRO_EVAL_STORE`` names another.
    """
    global _RUN_STORE
    previous = _RUN_STORE
    _RUN_STORE = (path or None, bool(resume))
    return previous


def active_run_store() -> RunStore | None:
    """The RunStore installed by :func:`set_run_store`, if any."""
    path = _RUN_STORE[0]
    if path is None:
        return None
    store = _RUN_STORES.get(path)
    if store is None:
        store = RunStore(path)
        _RUN_STORES[path] = store
    return store


def resume_enabled() -> bool:
    """Whether completed run-store cells should be replayed, not re-run."""
    return _RUN_STORE[1]


#: When set, :func:`run_single` routes not-yet-completed cells to this
#: callable instead of fitting them — the fleet leader's enqueue pass.
_CELL_SINK = None


def set_cell_sink(sink):
    """Install (or clear, with ``None``) the leader's enqueue hook.

    The sink is called as ``sink(task, method, config, fpe,
    cell_hash)`` for every cell :func:`run_single` would otherwise fit;
    already-completed cells keep replaying from the store.  Returns
    the previous sink so callers can restore it (``try/finally``).
    With a sink installed, :func:`run_single` requires an active run
    store and performs **zero fits** — experiment code runs unchanged,
    which is what makes every bench experiment a distributable
    workload for free.
    """
    global _CELL_SINK
    previous = _CELL_SINK
    _CELL_SINK = sink
    return previous


def _placeholder_result(task: TabularTask, method: str) -> AFEResult:
    """The stand-in an enqueue pass returns for a not-yet-run cell.

    Shaped like a real result (every counter present, zeroed) so the
    experiment's own aggregation code keeps walking the sweep and
    discovers every cell; the leader discards the pass's output and
    renders the real tables from the store once the fleet drains.
    """
    return AFEResult(
        dataset=task.name,
        method=method,
        task=task.task,
        base_score=0.0,
        best_score=0.0,
        selected_features=[],
    )


def _fpe_token(fpe: FPEModel | None) -> str:
    """FPE identity folded into run-store cell hashes.

    Covers the model's constructor identity (hash family, signature
    dimension, seed, labelling threshold) — which pins the model
    exactly for every ``default_fpe``/``tune_fpe`` flow, where the
    training corpus is a deterministic function of the seed.  Models
    trained on *custom* corpora under identical hyperparameters are
    indistinguishable here; such callers must bypass the store.
    """
    if fpe is None:
        return "none"
    return f"{fpe.method}:{fpe.d}:{fpe.seed}:{fpe.thre}"


def run_single(
    task: TabularTask,
    method: str,
    config: EngineConfig,
    fpe: FPEModel | None = None,
    run_store: RunStore | None = None,
    resume: bool | None = None,
    owner: str | None = None,
) -> AFEResult:
    """Run one (dataset, method, seed) cell, through the run store if active.

    With a store (explicit or installed by :func:`set_run_store`), the
    cell is marked running before the fit and its full result payload
    is persisted on completion.  With resume enabled (explicit or
    installed), an already-completed cell is replayed
    straight from the store — bit-identical, zero fits — which is what
    lets a killed sweep continue where it left off.

    Cells are keyed by (dataset, method, seed, config-hash +
    FPE-identity); see :func:`_fpe_token` for what the FPE component
    does and does not distinguish.  ``owner`` labels this runner in
    the store's start/finish ownership protocol (two concurrent
    runners of one cell resolve to one winner); by default each call
    gets a fresh token.

    With a cell sink installed (:func:`set_cell_sink` — the fleet
    leader's enqueue pass), cells not yet completed in the store are
    handed to the sink and a placeholder result is returned: zero
    fits, every cell discovered.
    """
    store = run_store if run_store is not None else active_run_store()
    if store is None:
        if _CELL_SINK is not None:
            raise RuntimeError(
                "a fleet enqueue pass needs an active run store "
                "(--store / set_run_store)"
            )
        return make_method(method, config, fpe=fpe).fit(task)
    cell_hash = f"{config_hash(config)}|fpe:{_fpe_token(fpe)}"
    # An enqueue pass always replays completed cells instead of
    # enqueueing them.
    if _CELL_SINK is not None or (
        resume_enabled() if resume is None else resume
    ):
        payload = store.completed_payload(
            task.name, method, config.seed, cell_hash
        )
        if payload is not None:
            return AFEResult.from_dict(payload)
    if _CELL_SINK is not None:
        _CELL_SINK(task, method, config, fpe, cell_hash)
        return _placeholder_result(task, method)
    owner = owner or f"pid:{os.getpid()}:{id(config):x}:{time.monotonic_ns():x}"
    store.start(task.name, method, config.seed, cell_hash, owner=owner)
    engine = make_method(method, config, fpe=fpe)
    result = engine.fit(task)
    payload = result.to_dict(include_matrix=True)
    # Persist the deployable artifact next to the scores: a warm store
    # yields FeaturePlans (repro.store CLI `plans`), not just numbers.
    # Methods whose "features" are not re-computable operator
    # expressions opt out with ``portable_plan = False`` (DL|FE's
    # learned repr_* columns); the try/except keeps score persistence
    # alive for third-party searchers that forget the flag, but never
    # silently — a plan-building regression must leave a trace.
    if getattr(engine, "portable_plan", True):
        try:
            payload["feature_plan"] = FeaturePlan.from_result(
                result,
                input_columns=task.X.columns,
                # The model the engine actually filtered with (a
                # variant may substitute the supplied instance).
                fpe=fpe_identity(getattr(engine, "fpe", None)),
                config=config,
            ).to_dict()
        except (ValueError, KeyError) as error:
            print(
                f"warning: no feature plan stored for "
                f"({task.name}, {method}, seed={config.seed}): {error}; "
                "set portable_plan=False on the searcher to silence",
                file=sys.stderr,
            )
    store.finish(task.name, method, config.seed, cell_hash, payload,
                 owner=owner)
    return result


def run_methods(
    task: TabularTask,
    methods: Sequence[str],
    config: EngineConfig,
    fpe: FPEModel | None = None,
    run_store: RunStore | None = None,
    resume: bool | None = None,
) -> dict[str, AFEResult]:
    """Run several methods on one dataset; results keyed by method name."""
    return {
        name: run_single(
            task, name, config, fpe=fpe, run_store=run_store, resume=resume
        )
        for name in methods
    }


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.3f}",
) -> str:
    """Render an aligned text table (the benches' printable output)."""
    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(value) for value in row] for row in rows]
    widths = [
        max(len(headers[j]), *(len(row[j]) for row in rendered)) if rendered
        else len(headers[j])
        for j in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(widths[j]) for j, header in enumerate(headers)),
        "  ".join("-" * widths[j] for j in range(len(headers))),
    ]
    for row in rendered:
        lines.append("  ".join(row[j].ljust(widths[j]) for j in range(len(row))))
    return "\n".join(lines)
