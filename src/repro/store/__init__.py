"""Persistence subsystem: shared evaluation cache + resumable run store.

Two durable layers back the evaluation and bench stacks:

* **Score cache backends** (:mod:`repro.store.backends`) — pluggable
  stores behind :class:`~repro.eval.service.EvaluationService`.
  :class:`MemoryBackend` is the per-process default;
  :class:`SqliteBackend` (WAL mode, concurrency-safe) shares hits
  across OS processes and runs; :class:`WriteThroughBackend` layers a
  memory front over the durable back.  :func:`make_eval_backend` picks
  the right composition from an explicit path.
* **Run store** (:mod:`repro.store.runs`) — (dataset, method, seed,
  config-hash) experiment rows with full result payloads, written by
  the bench harness.  ``python -m repro.bench <exp> --store s.db
  --resume`` skips already-completed cells, so a killed sweep continues
  where it left off.  The same rows double as an atomically claimable
  job queue (``enqueue_cells``/``claim_cell``/``heartbeat``/
  ``reap_expired`` with lease tokens and bounded retries) — the
  substrate of the :mod:`repro.fleet` leader/worker bench, where N
  workers on N hosts drain one sweep concurrently.

``python -m repro.store stats|vacuum|export <path>`` inspects and
maintains a store file (``stats --watch`` live-refreshes queue
progress; ``vacuum`` also prunes expired-lease debris).
"""

from .backends import (
    FIDELITY_KEY_MARKER,
    CacheBackend,
    MemoryBackend,
    SqliteBackend,
    WriteThroughBackend,
    fidelity_namespace,
    make_eval_backend,
)
from .runs import ClaimedCell, QueueCell, RunRecord, RunStore, config_hash

__all__ = [
    "CacheBackend",
    "ClaimedCell",
    "FIDELITY_KEY_MARKER",
    "MemoryBackend",
    "QueueCell",
    "SqliteBackend",
    "WriteThroughBackend",
    "RunRecord",
    "RunStore",
    "config_hash",
    "fidelity_namespace",
    "make_eval_backend",
]
