#!/usr/bin/env python3
"""End-to-end benchmark of ``AFEEngine.fit()`` with an outside-in layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload gc_serial_cold --seed 1 \\
        --seconds 22 --trace 0

One run fits one engine seed -- ``--seed`` picks it from the workload's
pool of cost-matched seeds -- over and over for ``--seconds`` seconds.
It sets up its workload (dataset generation, FPE pre-training, store
warm-up) three times, before the first fit and again after each third
of the fitting time, and reports the median set-up as ``setup_s``.
Every fit and every set-up step is timed between two runs of a fixed
machine-speed probe (``calibrate.py``), and its times are scaled to
the reference speed.  Every fit is checked against the serial result
recorded for its seed in ``references.json`` (see ``record.py``) and
against the accounting invariants in ``workloads.check_fit``.

``--trace 0`` prints the end-to-end metrics (medians, see
``end_to_end``); ``--trace 1`` alternates untraced and traced fits and
prints the per-layer metrics, the Table I split and the tracing
overhead.  The last line of standard output is always one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
lines before it start with ``#`` and carry sample counts, the span
table and the machine shape.  ``perfbench/layers.json`` says which
end-to-end metric each layer metric should move, and on which
workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import REFERENCE_PROBE_S, Probe
from calibrate import probe as probe_one_core

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 3
#: Seconds the probe runs before and after a fit, as a share of the
#: fit's duration (the last median fit wall), and the least it runs.
PROBE_SHARE = 0.1
PROBE_MIN_S = 0.05
#: Least seconds the probe runs before and after a set-up step.
SETUP_PROBE_S = 0.1
FORBIDDEN_ENV = ("REPRO_FAULTS", "REPRO_EVAL_STORE", "REPRO_RUN_STORE")

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def refuse_unhermetic_env() -> str | None:
    for name in sorted(os.environ):
        if name.startswith("REPRO_EVAL_") or name in FORBIDDEN_ENV:
            return name
    return None


def note(text: str) -> None:
    print(f"# {text}", flush=True)


def machine_shape(workers: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=False,
            )
            commit = out.stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "pool_workers": workers,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def speed_scale(probe_s: float) -> float:
    """Factor that turns seconds measured while the probe took ``probe_s``
    into seconds at the reference machine speed (see ``calibrate``)."""
    return REFERENCE_PROBE_S / probe_s


def cpu_seconds() -> tuple[float, float]:
    """User + system CPU seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest of p99.9/p99/p95/p90/p75 with >= 10 samples above it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return p, percentile(samples, p)
    return 50.0, percentile(samples, 50.0)


def percentile(samples: list[float], p: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Run:
    """One benchmark invocation: repeated set-up, then timed fits."""

    def __init__(self, args, tmp: Path, probe: Probe) -> None:
        from layertrace import Patches, Tracer, install_ledger
        from workloads import WORKLOADS

        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.seed = self.workload.engine_seed(args.seed)
        self.tmp = tmp
        self.probe = probe
        probe(PROBE_MIN_S)  # untimed: warms the probe's code and caches
        self.tracer = Tracer()
        self.ledger = Patches()
        install_ledger(self.ledger, self.tracer)
        #: Recorded serial result per engine seed: every fit of that
        #: seed must reproduce its best score and selected features.
        self.references = load_references(args.workload)
        self.records: list[dict] = []
        self.failed = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.warm_path: str | None = None
        self.setup_times: list[float] = []
        self.setup_scaled: list[float] = []
        self._stores = 0

    def fresh_store(self) -> str:
        self._stores += 1
        return str(self.tmp / f"scores-{self._stores}.db")

    # -- set-up -------------------------------------------------------------
    def set_up(self) -> None:
        """Time one whole set-up and make its task, FPE and store current.

        Each warm-replay set-up warms a fresh store, and the fits after it
        replay that store.  The warm-up fit is checked like timed ones.
        """
        from workloads import set_up

        path = self.fresh_store() if self.workload.warm_replay else None
        raw, scaled = [], []

        # Set-up runs in this process alone, so it is bracketed by a
        # one-core probe even when the fits use the pool.
        def step(fn, *args, **kwargs):
            before = probe_one_core(SETUP_PROBE_S)
            started = time.perf_counter()
            out = fn(*args, **kwargs)
            raw.append(time.perf_counter() - started)
            after = probe_one_core(max(SETUP_PROBE_S, PROBE_SHARE * raw[-1]))
            scaled.append(raw[-1] * speed_scale((before + after) / 2))
            return out

        self.task, self.fpe, warm = set_up(self.workload, self.seed, path, step)
        self.setup_times.append(sum(raw))
        self.setup_scaled.append(sum(scaled))
        self.warm_path = path
        if warm is not None:
            self.check(warm, None, timed=False, replay=False)

    # -- fits ---------------------------------------------------------------
    def fit(self, traced: bool) -> dict:
        from repro.core.engine import EAFE
        from workloads import engine_config

        workload = self.workload
        if workload.warm_replay:
            store = self.warm_path
        elif workload.durable_store:
            store = self.fresh_store()
        else:
            store = None
        config = engine_config(workload, self.seed, store)
        tracer = self.tracer
        tracer.reset()
        span_patches = None
        if traced:
            from layertrace import Patches, install_spans

            span_patches = Patches()
            install_spans(span_patches, tracer)
            tracer.spans_on = True
        engine = EAFE(self.fpe, config)
        budget = PROBE_MIN_S
        if self.records:
            budget = max(budget, PROBE_SHARE * statistics.median(
                r["wall"] for r in self.records
            ))
        before = self.probe(budget)
        try:
            own_before, child_before = cpu_seconds()
            started = time.perf_counter()
            result = engine.fit(self.task)
            wall = time.perf_counter() - started
            own_after, child_after = cpu_seconds()
        finally:
            tracer.spans_on = False
            if span_patches is not None:
                span_patches.remove()
            engine.eval_cache.close()
        probe_s = (before + self.probe(budget)) / 2
        child_cpu = child_after - child_before
        cpu = own_after - own_before
        submissions = tracer.counts["submissions"]
        self.check(result, submissions, True, workload.warm_replay)
        if store is not None and store != self.warm_path:
            for suffix in ("", "-wal", "-shm"):
                Path(store + suffix).unlink(missing_ok=True)
        return {
            "traced": traced,
            "result": result,
            "wall": wall,
            "cpu": cpu + child_cpu,
            "probe_s": probe_s,
            "child_cpu": child_cpu,
            "submissions": submissions,
            "total": dict(tracer.total),
            "self_time": dict(tracer.self_time),
            "calls": dict(tracer.calls),
            "top": dict(tracer.top),
            "counts": dict(tracer.counts),
            "latency_ms": list(tracer.latency_ms),
        }

    def scales(self, records: list[dict]) -> list[float]:
        """Each fit's factor to the reference machine speed.

        A serial fit is scaled by the probes right around it.  A pool fit
        shares both cores between the parent and two workers, and its
        time follows the probes around it only loosely (r = 0.4 over 12
        fits; on the same 5 runs, per-fit scaling spread the run medians
        by 0.15, run-level scaling by 0.08), so pool fits are scaled by
        the mean probe time of the whole run, which still follows slow
        phases that last minutes.
        """
        if self.workload.backend == "pool":
            scale = speed_scale(statistics.fmean(r["probe_s"] for r in records))
            return [scale] * len(records)
        return [speed_scale(r["probe_s"]) for r in records]

    def check(self, result, submissions: int | None, timed: bool,
              replay: bool) -> None:
        """Run the correctness checks; failures feed ``success_rate``."""
        from workloads import check_fit

        failures = check_fit(
            self.workload, result, submissions, self.references.get(self.seed),
            replay,
        )
        self.failures.extend(failures)
        if timed:
            self.attempted += submissions
            self.failed += (
                result.n_backend_fallbacks + result.n_timeouts + len(failures)
            )

    def timed_loop(self, traced) -> None:
        """Set up, then fit, ``SETUP_REPEATS`` times; ``traced(i)`` marks
        traced fits.

        The ``--seconds`` of fitting are split evenly between the set-ups,
        so set-up is sampled across the whole run, as the fits are.  A fit
        is started only if the median fit so far still ends inside the
        set-up's share (counted cumulatively, set-up time excluded), but
        every set-up is followed by at least one fit.
        """
        share = self.args.seconds / SETUP_REPEATS
        fitting = 0.0
        for repeat in range(SETUP_REPEATS):
            self.set_up()
            made = 0
            while True:
                walls = [r["wall"] for r in self.records]
                if made and fitting + statistics.median(walls) > share * (repeat + 1):
                    break
                started = time.perf_counter()
                self.records.append(self.fit(traced(len(self.records))))
                fitting += time.perf_counter() - started
                made += 1


def end_to_end(run: Run) -> dict:
    """Medians over the run's fits (one engine seed, many repeats) and
    over its set-ups, each time scaled to the reference machine speed.

    The reference machine is a shared VM whose speed swings by 20-40%
    for seconds to minutes.  Raw medians of runs on 5 seeds spread by up
    to 0.42 of their median (the fastest fit of each run too: 0.45);
    scaled (see ``Run.scales``) they spread by 0.03-0.04 on the serial
    workloads and 0.08 on the pool.  Raw medians are printed alongside.
    """
    records = run.records
    scales = run.scales(records)
    walls = [r["wall"] for r in records]
    scaled = [r["wall"] * s for r, s in zip(records, scales)]
    values = {
        "fit_wall_s": statistics.median(scaled),
        "candidates_per_s": statistics.median(
            r["result"].n_generated / t for r, t in zip(records, scaled)
        ),
        "cpu_s": statistics.median(r["cpu"] * s for r, s in zip(records, scales)),
        "candidate_evals": statistics.median(r["submissions"] for r in records),
        "best_score": statistics.median(r["result"].best_score for r in records),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(run.setup_scaled),
        "success_rate": 1.0 - run.failed / max(run.attempted, 1),
    }
    for r, s in zip(records, scales):
        res = r["result"]
        note(
            f"fit wall={r['wall']:.4f} cpu={r['cpu']:.4f} probe={r['probe_s']:.5f} "
            f"scale={s:.4f} "
            f"generated={res.n_generated} submissions={r['submissions']} "
            f"fits={res.n_downstream_evaluations} hits={res.n_cache_hits} "
            f"surrogate={res.n_surrogate_served} best={res.best_score:.6f}"
        )
    note(
        f"end-to-end: engine seed {run.seed}, n={len(records)} timed fits; "
        f"raw fit wall median={statistics.median(walls):.4f} "
        f"min={min(walls):.4f}; setup n={len(run.setup_times)} "
        f"raw={[round(t, 4) for t in run.setup_times]} "
        f"scaled={[round(t, 4) for t in run.setup_scaled]}"
    )
    return values


TABLE1_LAYERS = ("prep", "gen", "filter", "eval", "rl")
EVAL_LAYERS = ("eval", "store", "pool", "shm", "ml", "fidelity")


def layer_metrics(record: dict) -> dict:
    total, calls, counts = record["total"], record["calls"], record["counts"]
    result, wall, top = record["result"], record["wall"], record["top"]
    get = lambda name: total.get(name, 0.0)  # noqa: E731
    count = lambda name: counts.get(name, 0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    fits = result.n_downstream_evaluations
    submissions = record["submissions"]
    shares = {layer: top.get(layer, 0.0) for layer in TABLE1_LAYERS}
    shares["eval"] = sum(top.get(layer, 0.0) for layer in EVAL_LAYERS)
    attributed = sum(top.values())
    return {
        "gen.generate_s": get("gen.generate"),
        "gen.blocked_ratio": ratio(count("gen.blocked"), count("gen.calls")),
        "filter.keep_batch_s": get("filter.keep_batch"),
        "filter.proba_s": get("filter.proba"),
        "filter.signature_s": get("filter.signature"),
        "filter.keep_ratio": ratio(count("filter.kept"), count("filter.seen")),
        "rl.act_s": get("rl.act"),
        "rl.update_s": get("rl.update"),
        "eval.submit_s": get("eval.submit"),
        "eval.result_wait_s": get("eval.result_wait") + get("eval.iter"),
        "eval.fingerprint_s": get("eval.fingerprint"),
        "eval.hit_ratio": ratio(result.n_cache_hits, submissions),
        "eval.useful_fit_ratio": ratio(count("eval.consumed"), fits),
        "eval.real_fits": fits,
        "eval.wall_s": shares["eval"],
        "eval.reported_fraction": ratio(result.evaluation_time, result.wall_time),
        "store.get_s": get("store.get"),
        "store.get_calls": calls.get("store.get", 0),
        "store.put_many_s": get("store.put_many"),
        "store.put_many_calls": calls.get("store.put_many", 0),
        "pool.submit_s": get("pool.submit"),
        "pool.result_wait_s": get("pool.result_wait"),
        "shm.publish_s": get("shm.publish"),
        "shm.publish_calls": calls.get("shm.publish", 0),
        "pool.occupancy": result.pool_occupancy,
        "pool.spec_used_ratio": ratio(
            result.n_speculative_used, result.n_speculative_submitted
        ),
        "pool.worker_fit_s": result.evaluation_time if result.pool_workers else 0.0,
        "pool.worker_cpu_s": record["child_cpu"],
        "ml.cv_s": get("ml.cv"),
        "ml.tree_fit_s": get("ml.tree_fit"),
        "ml.tree_fit_calls": calls.get("ml.tree_fit", 0),
        "ml.predict_s": get("ml.predict"),
        "ml.metric_s": get("ml.metric"),
        "ml.fit_ms_per_candidate": ratio(get("ml.cv") * 1e3, calls.get("ml.cv", 0)),
        "fidelity.score_batch_s": get("fidelity.score_batch"),
        "fidelity.lowfi_ratio": ratio(result.n_lowfi_scored, submissions),
        "fidelity.promote_ratio": ratio(result.n_promoted, result.n_lowfi_scored),
        "fidelity.regret": result.fidelity_regret,
        "engine.unattributed_s": wall - attributed,
        "engine.attributed_ratio": ratio(attributed, wall),
        **{f"table1.{layer}_share": ratio(shares[layer], wall) for layer in TABLE1_LAYERS},
        "table1.unattributed_share": ratio(wall - attributed, wall),
    }


def per_layer(run: Run) -> dict:
    traced = [r for r in run.records if r["traced"]]
    plain = [r for r in run.records if not r["traced"]]
    rows = [layer_metrics(r) for r in traced]
    values = {
        name: statistics.median(row[name] for row in rows) for name in rows[0]
    }
    samples = [ms for r in traced for ms in r["latency_ms"]]
    p_tail, tail = tail_percentile(samples)
    values["eval.cand_latency_p50_ms"] = percentile(samples, 50.0)
    values["eval.cand_latency_ptail_ms"] = tail
    traced_wall = statistics.median(
        r["wall"] * s for r, s in zip(traced, run.scales(traced))
    )
    plain_wall = statistics.median(
        r["wall"] * s for r, s in zip(plain, run.scales(plain))
    )
    values["trace.overhead_s"] = traced_wall - plain_wall
    note(
        f"per-layer metrics are medians over n={len(traced)} traced fits; "
        f"untraced n={len(plain)}; candidate latency n={len(samples)}, "
        f"tail percentile p{p_tail:g}"
    )
    note(
        "table1 " + " ".join(
            f"{layer}={values[f'table1.{layer}_share']:.4f}"
            for layer in TABLE1_LAYERS + ("unattributed",)
        )
    )
    if run.workload.backend == "pool":
        note(
            f"eval time semantics: worker fit seconds "
            f"{values['pool.worker_fit_s']:.3f} (cpu {values['pool.worker_cpu_s']:.3f}) "
            f"vs evaluation wall seconds {values['eval.wall_s']:.3f}; "
            f"AFEResult eval_fraction {values['eval.reported_fraction']:.3f}"
        )
    record = traced[len(traced) // 2]
    note("span                      calls   total_s    self_s")
    for name in sorted(record["calls"]):
        note(
            f"{name:<24} {record['calls'][name]:>6} "
            f"{record['total'].get(name, 0.0):>9.4f} {record['self_time'][name]:>9.4f}"
        )
    return values


def trace_failures(run: Run, values: dict) -> list[str]:
    """Spans cover >= 95% of every fit; on the cold workloads also the
    paper's Table I: eval dominates and gen stays under 1%."""
    failures = []
    if values["engine.attributed_ratio"] < 0.95:
        failures.append("attribution_below_95pct")
    if run.workload.warm_replay:
        return failures
    shares = {layer: values[f"table1.{layer}_share"] for layer in TABLE1_LAYERS}
    if max(shares, key=shares.get) != "eval":
        failures.append("table1_eval_dominates")
    if shares["gen"] >= 0.01:
        failures.append("table1_gen_share")
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    offending = refuse_unhermetic_env()
    if offending is not None:
        print(f"refusing to run: {offending} is set", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import POOL_WORKERS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT))
    # A pool fit keeps every worker's core busy; probe that many at once.
    pool = WORKLOADS[args.workload].backend == "pool"
    probe = Probe(POOL_WORKERS if pool else 1)
    try:
        run = Run(args, tmp, probe)
        note("machine " + json.dumps(machine_shape(POOL_WORKERS)))
        if args.trace:
            # Alternate untraced and traced fits, so the difference of
            # their medians is the tracing overhead.
            run.timed_loop(lambda i: i % 2 == 1)
            values = per_layer(run)
            extra = trace_failures(run, values)
            run.failures.extend(extra)
            run.failed += len(extra)
            units = metric_units("per_layer")
        else:
            run.timed_loop(lambda i: False)
            values = end_to_end(run)
            units = metric_units("end_to_end")
        if run.failures:
            note(f"failed checks: {sorted(set(run.failures))}")
        report = {
            "correct": not run.failures,
            "attempted": max(run.attempted, 1),
            "failed": run.failed,
            "metrics": {
                name: {"value": values[name], "unit": units[name]} for name in units
            },
        }
    finally:
        probe.close()
        stop_resource_tracker()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass
    print(json.dumps(report), flush=True)
    return 0


def stop_resource_tracker() -> None:
    """End the resource-tracker process the pool starts, and wait for it.

    multiprocessing otherwise leaves it to exit on its own after this
    process does; ``_stop`` is the stdlib's own close-and-waitpid.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def load_references(workload: str) -> dict:
    recorded = json.loads((ROOT / "perfbench" / "references.json").read_text())
    return {int(seed): ref for seed, ref in recorded[workload].items()}


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
