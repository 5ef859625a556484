"""Settings travel as arguments: the library reads no ``REPRO_EVAL_*``.

Only the bench harness (``bench_config``) turns environment variables
into :class:`~repro.core.engine.EngineConfig` fields; the eval, store
and fleet layers take every setting as an argument.
"""

import os
import re
from pathlib import Path

from repro.core import EngineConfig
from repro.core.engine import AFEEngine
from repro.core.evaluation import DownstreamEvaluator
from repro.eval import EvaluationService
from repro.eval.executor import resolve_pool_workers
from repro.store import MemoryBackend, make_eval_backend

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The only modules allowed to read the process environment.
ENV_READERS = {"bench/harness.py", "chaos/faults.py", "api/registry.py"}


def test_library_ignores_eval_environment(tmp_path, monkeypatch):
    store = tmp_path / "env-scores.db"
    monkeypatch.setenv("REPRO_EVAL_TIMEOUT", "2.5")
    monkeypatch.setenv("REPRO_EVAL_WORKERS", "2")
    monkeypatch.setenv("REPRO_EVAL_STORE", str(store))
    evaluator = DownstreamEvaluator(task="C", n_splits=3, n_estimators=3)
    assert EvaluationService(evaluator, cache=None).timeout is None
    assert isinstance(make_eval_backend(), MemoryBackend)
    assert isinstance(AFEEngine(config=EngineConfig()).eval_cache, MemoryBackend)
    assert resolve_pool_workers(None) == (os.cpu_count() or 1)
    assert not store.exists()


def test_only_harness_chaos_and_registry_read_environment():
    pattern = re.compile(r"os\.environ|getenv")
    readers = {
        path.relative_to(_PACKAGE).as_posix()
        for path in _PACKAGE.rglob("*.py")
        if pattern.search(path.read_text(encoding="utf-8"))
    }
    assert readers == ENV_READERS
