"""The fleet leader: enqueue the sweep, watchdog the workers.

A sweep becomes distributable in three phases, all driven from one
process::

    python -m repro.fleet leader sweep.db --exp table3 --seed 0

1. **Enqueue pass** — the leader runs the *unchanged* experiment
   function with the harness cell sink installed
   (:func:`repro.bench.harness.set_cell_sink`): every
   ``run_single`` call that is not already completed in the store is
   serialized into a :class:`~repro.fleet.spec.CellSpec` and enqueued
   instead of fit.  Zero fits happen; the pass exists purely to
   *discover* the sweep's cells, so it takes seconds even for a sweep
   worth hours of fitting.
2. **Supervision** — while workers (``python -m repro.fleet worker
   sweep.db``) drain the queue, the leader's watchdog
   periodically reaps expired leases (re-queueing a dead worker's
   cells, dead-lettering after ``max_retries`` attempts) and renders
   live per-method progress with an ETA.
3. **Render pass** — once the queue drains, the leader re-runs the
   experiment function against the now-complete store: every cell
   replays bit-identically from its payload (the normal ``--resume``
   machinery), and the printed table is exactly what a single-process
   run would have produced.
"""

from __future__ import annotations

import sys
import time

from ..store import QueueCell, RunStore
from .spec import CellSpec

__all__ = ["FleetLeader", "LeaderReport"]


class LeaderReport(dict):
    """Supervision outcome: ``drained``, ``reaped``, ``dead``, ``elapsed``."""


class FleetLeader:
    """Enqueues experiment sweeps and supervises their drain.

    Parameters
    ----------
    store:
        Path to the shared store file, or an open :class:`RunStore`.
    max_retries:
        Total attempts a cell gets before it is dead-lettered.
    tick:
        Watchdog period in seconds (lease reaping + drain checks).
    log:
        Sink for progress lines (default: stderr).
    """

    def __init__(
        self,
        store: RunStore | str,
        max_retries: int = 3,
        tick: float = 0.5,
        log=None,
    ) -> None:
        self.store = store if isinstance(store, RunStore) else RunStore(store)
        self.max_retries = max_retries
        self.tick = tick
        self._log = log if log is not None else (
            lambda line: print(line, file=sys.stderr)
        )

    # -- phase 1: enqueue --------------------------------------------------
    def enqueue_experiment(
        self,
        experiment: str,
        seed: int = 0,
        datasets: list[str] | None = None,
        methods: list[str] | None = None,
        fpe=None,
    ) -> int:
        """Discover a sweep's cells via the enqueue pass; returns how
        many are newly pending.

        The experiment function runs unmodified; the installed cell
        sink captures every not-yet-completed ``run_single`` cell.
        Statistic aggregation *after* the sweep loop may choke on
        placeholder scores (e.g. table6's signed-rank test over
        constant arrays) — by then every cell is already captured, so
        such errors are logged and swallowed; an error raised before
        any cell was captured propagates.  Arguments are resolved by
        :func:`repro.bench.experiments.build_experiment_call`.
        """
        from ..bench import harness
        from ..bench.experiments import build_experiment_call

        runner, _, kwargs = build_experiment_call(
            experiment, seed=seed, datasets=datasets, methods=methods,
            fpe=fpe,
        )

        specs: dict[tuple, CellSpec] = {}

        def sink(task, method, config, fpe_model, cell_hash) -> None:
            spec = CellSpec.build(task, method, config, fpe_model, cell_hash)
            specs.setdefault(
                (spec.dataset, spec.method, spec.seed, spec.config_hash),
                spec,
            )

        previous_sink = harness.set_cell_sink(sink)
        previous_store = harness.set_run_store(self.store.path, resume=False)
        try:
            runner(**kwargs)
        except Exception as error:  # noqa: BLE001 — see docstring
            if not specs:
                raise
            self._log(
                f"enqueue pass: aggregation over placeholders raised "
                f"{type(error).__name__}: {error} (cells were already "
                "captured; the render pass recomputes the real values)"
            )
        finally:
            harness.set_run_store(*previous_store)
            harness.set_cell_sink(previous_sink)
        enqueued = self.store.enqueue_cells(
            [
                (s.dataset, s.method, s.seed, s.config_hash, s.to_json())
                for s in specs.values()
            ],
            max_retries=self.max_retries,
        )
        self._log(
            f"enqueue pass: {len(specs)} cells discovered, "
            f"{enqueued} newly enqueued"
        )
        return enqueued

    # -- phase 2: supervise ------------------------------------------------
    def supervise(
        self,
        render_interval: float = 5.0,
        timeout: float | None = None,
    ) -> LeaderReport:
        """Watchdog loop: reap expired leases until the queue drains.

        Returns a report with ``drained`` (False only on timeout), the
        ``reaped`` cells (chronological), and the ``dead`` cells left
        after the drain.
        """
        started = time.time()
        last_render = 0.0
        reaped_log: list[QueueCell] = []
        while True:
            for cell in self.store.reap_expired():
                reaped_log.append(cell)
                fate = (
                    "dead-lettered"
                    if cell.status == "dead"
                    else f"re-queued (attempt {cell.retries + 1}"
                    f"/{cell.max_retries})"
                )
                self._log(
                    f"watchdog: lease expired on {cell.dataset}/"
                    f"{cell.method}@seed={cell.seed} -> {fate}"
                )
            depth = self.store.queue_depth()
            now = time.time()
            if depth and now - last_render >= render_interval:
                last_render = now
                self._log(self.render_status())
            if depth == 0:
                break
            if timeout is not None and now - started > timeout:
                break
            time.sleep(self.tick)
        dead = self.store.queue_cells(status="dead")
        return LeaderReport(
            drained=self.store.queue_depth() == 0,
            reaped=reaped_log,
            dead=dead,
            elapsed=time.time() - started,
        )

    # -- phase 3: render ---------------------------------------------------
    def render_experiment(
        self,
        experiment: str,
        seed: int = 0,
        datasets: list[str] | None = None,
        methods: list[str] | None = None,
        fpe=None,
    ) -> str:
        """Re-run the experiment against the drained store.

        Every fleet-completed cell replays from its stored payload
        (zero fits), so the returned table is bit-identical — scores
        and plans — to a serial ``--store --resume`` run.  Refuses to
        render while dead or unfinished cells remain: the resume
        machinery would silently re-fit them inline, which is exactly
        the surprise a fleet user does not want.
        """
        unfinished = self.store.queue_depth()
        dead = self.store.queue_counts().get("dead", 0)
        if unfinished or dead:
            raise RuntimeError(
                f"cannot render: {unfinished} unfinished and {dead} "
                "dead-lettered cells remain (re-enqueue with "
                "requeue_dead or inspect `python -m repro.fleet status`)"
            )
        from ..bench import harness
        from ..bench.experiments import build_experiment_call

        runner, formatter, kwargs = build_experiment_call(
            experiment, seed=seed, datasets=datasets, methods=methods,
            fpe=fpe,
        )
        previous_store = harness.set_run_store(self.store.path, resume=True)
        try:
            return formatter(runner(**kwargs))
        finally:
            harness.set_run_store(*previous_store)

    # -- status ------------------------------------------------------------
    def render_status(self, now: float | None = None) -> str:
        """Live per-method progress table plus a drain ETA."""
        return render_queue_status(self.store, now=now)


def render_queue_status(store: RunStore, now: float | None = None) -> str:
    """Per-method queue progress (shared by leader and ``fleet status``)."""
    from ..bench.harness import format_table

    now = time.time() if now is None else now
    cells = store.queue_cells()
    if not cells:
        return "queue empty (nothing enqueued)"
    by_method: dict[str, dict[str, int]] = {}
    for cell in cells:
        row = by_method.setdefault(
            cell.method,
            {"pending": 0, "claimed": 0, "running": 0, "completed": 0,
             "dead": 0, "retries": 0},
        )
        row[cell.status] += 1
        row["retries"] += cell.retries
    rows = [
        [method, row["pending"], row["claimed"], row["running"],
         row["completed"], row["dead"], row["retries"]]
        for method, row in sorted(by_method.items())
    ]
    table = format_table(
        ["Method", "Pending", "Claimed", "Running", "Completed", "Dead",
         "Retries"],
        rows,
    )
    done = sum(1 for cell in cells if cell.status == "completed")
    total = len(cells)
    lines = [table, f"progress: {done}/{total} cells completed"]
    ages = store.lease_ages(now=now)
    if ages:
        lines.append(
            f"active leases: {len(ages)} "
            f"(heartbeat age {min(ages):.1f}-{max(ages):.1f}s)"
        )
    eta = _drain_eta(cells, now)
    if eta is not None:
        lines.append(f"eta: ~{eta:.0f}s at the current completion rate")
    return "\n".join(lines)


def _drain_eta(cells: list[QueueCell], now: float) -> float | None:
    """Remaining / completion-rate, from completed-cell timestamps.

    ``updated_at`` of a completed cell is its completion time; the
    rate is completions since the sweep's first enqueue.  None until
    at least one cell completed (no rate to extrapolate).
    """
    finished = [c.updated_at for c in cells if c.status == "completed"]
    remaining = sum(
        1 for c in cells if c.status in ("pending", "claimed", "running")
    )
    if not finished or not remaining:
        return None
    window = max(now - min(c.enqueued_at for c in cells), 1e-9)
    rate = len(finished) / window
    return remaining / rate if rate > 0 else None
