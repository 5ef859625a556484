"""Fleet crash recovery: SIGKILL a worker mid-cell, lose nothing.

The lease-semantics acceptance test: a worker is SIGKILLed while
fitting (no exception handler ever runs), the leader's reap re-queues
the cell *exactly once* with an incremented retry count, a second
worker completes it, and the final store is bit-identical to a serial
run — the audit log proving the cell produced exactly one completed
claim.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.bench.harness import bench_config
from repro.datasets import make_classification
from repro.fleet.spec import CellSpec
from repro.store import RunStore, config_hash

from fleet_helpers import canonical

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: A searcher that blocks while a sentinel file exists, then delegates
#: to NFS — the window in which the test SIGKILLs the worker.  Loaded
#: into worker subprocesses via REPRO_SEARCHER_PLUGINS.
_PLUGIN = """
import os
import time

from repro.api import searcher_registry
from repro.baselines import NFS


class Sleeper:
    def __init__(self, config):
        self.config = config

    def fit(self, task):
        sentinel = os.environ.get("SLEEPER_SENTINEL", "")
        while sentinel and os.path.exists(sentinel):
            time.sleep(0.02)
        return NFS(self.config).fit(task)


searcher_registry().register(
    "Sleeper", lambda config, fpe=None: Sleeper(config)
)
"""


def _wait(predicate, timeout=60.0, interval=0.05):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def plugin_dir(tmp_path):
    directory = tmp_path / "plugins"
    directory.mkdir()
    (directory / "sleeper_plugin.py").write_text(_PLUGIN, encoding="utf-8")
    return str(directory)


def _worker_env(plugin_dir, sentinel=""):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [plugin_dir, _SRC, environment.get("PYTHONPATH", "")]
    )
    environment["REPRO_SEARCHER_PLUGINS"] = "sleeper_plugin"
    environment["SLEEPER_SENTINEL"] = sentinel
    return environment


def _spawn_worker(store_path, worker_id, environment, lease_ttl):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.fleet", "worker", store_path,
            "--worker-id", worker_id, "--lease-ttl", str(lease_ttl),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=environment,
    )


class TestSigkillRecovery:
    def test_killed_worker_cell_requeues_once_and_finishes_identically(
        self, tmp_path, plugin_dir
    ):
        store = RunStore(str(tmp_path / "sweep.db"))
        task = make_classification(
            name="crash-task", n_samples=60, n_features=3, seed=0
        )
        config = bench_config(seed=0)
        cell_hash = f"{config_hash(config)}|fpe:none"
        spec = CellSpec.build(task, "Sleeper", config, None, cell_hash)
        store.enqueue_cells(
            [(task.name, "Sleeper", 0, cell_hash, spec.to_json())]
        )

        sentinel = str(tmp_path / "hold-the-fit")
        open(sentinel, "w").close()

        victim = _spawn_worker(
            store.path, "victim", _worker_env(plugin_dir, sentinel),
            lease_ttl=1.0,
        )
        try:
            # The victim claims the cell and blocks inside fit() on the
            # sentinel; kill it there — no cleanup code ever runs.
            assert _wait(
                lambda: store.queue_counts().get("running", 0) == 1
            ), "victim never started the cell"
            victim.kill()
            victim.wait()

            # Leader's watchdog: once the un-heartbeated lease expires,
            # exactly one reap re-queues the cell with one retry charged.
            assert _wait(lambda: bool(store.reap_expired()), timeout=30.0)
            cell = store.queue_cells()[0]
            assert (cell.status, cell.retries, cell.claim_count) == (
                "pending", 1, 1,
            )
            assert store.reap_expired() == []  # exactly once

            # A rescuer (sentinel lifted) finishes the re-queued cell.
            os.unlink(sentinel)
            rescuer = _spawn_worker(
                store.path, "rescuer", _worker_env(plugin_dir),
                lease_ttl=30.0,
            )
            assert rescuer.wait(timeout=240) == 0
        finally:
            if victim.poll() is None:
                victim.kill()

        cell = store.queue_cells()[0]
        assert (cell.status, cell.retries, cell.claim_count) == (
            "completed", 1, 2,
        )
        log = store.claim_log()
        assert [
            (entry["worker_id"], entry["outcome"]) for entry in log
        ] == [("victim", "expired"), ("rescuer", "completed")]

        # Bit-identity with a serial run of the same cell (scores and
        # plans; wall clocks excluded), via a fresh single-process
        # worker draining a single-cell queue of its own.
        serial = RunStore(str(tmp_path / "serial.db"))
        serial.enqueue_cells(
            [(task.name, "Sleeper", 0, cell_hash, spec.to_json())]
        )
        solo = _spawn_worker(
            serial.path, "solo", _worker_env(plugin_dir), lease_ttl=30.0
        )
        assert solo.wait(timeout=240) == 0
        fleet_payload = store.completed_payload(
            task.name, "Sleeper", 0, cell_hash
        )
        serial_payload = serial.completed_payload(
            task.name, "Sleeper", 0, cell_hash
        )
        assert canonical(fleet_payload) == canonical(serial_payload)
        assert fleet_payload.get("feature_plan") == serial_payload.get(
            "feature_plan"
        )
