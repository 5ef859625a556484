"""Fleet under chaos: SIGKILL plus injected heartbeat loss, no double work.

The lease protocol's safety property — at most one worker completes a
cell — must hold even when heartbeats are being dropped by a fault
plan (``fleet.heartbeat:err=...``): a dropped beat merely lets the
lease age; it never corrupts claim ownership.  The queue_claims audit
log is the witness: exactly one ``completed`` outcome per cell, ever.
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


def _worker_env(plugin_dir, sentinel="", faults=""):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [plugin_dir, _SRC, environment.get("PYTHONPATH", "")]
    )
    environment["REPRO_SEARCHER_PLUGINS"] = "sleeper_plugin"
    environment["SLEEPER_SENTINEL"] = sentinel
    if faults:
        environment["REPRO_FAULTS"] = faults
    else:
        environment.pop("REPRO_FAULTS", None)
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


class TestChaosNoDoubleClaims:
    def test_sigkill_under_heartbeat_loss_yields_single_completion(
        self, tmp_path, plugin_dir
    ):
        store = RunStore(str(tmp_path / "sweep.db"))
        task = make_classification(
            name="chaos-fleet", n_samples=60, n_features=3, seed=0
        )
        config = bench_config(seed=0)
        cell_hash = f"{config_hash(config)}|fpe:none"
        spec = CellSpec.build(task, "Sleeper", config, None, cell_hash)
        store.enqueue_cells(
            [(task.name, "Sleeper", 0, cell_hash, spec.to_json())]
        )

        sentinel = str(tmp_path / "hold-the-fit")
        open(sentinel, "w").close()

        # The victim claims, blocks in fit(), and dies by SIGKILL.
        victim = _spawn_worker(
            store.path, "victim", _worker_env(plugin_dir, sentinel),
            lease_ttl=1.0,
        )
        try:
            assert _wait(
                lambda: store.queue_counts().get("running", 0) == 1
            ), "victim never started the cell"
            victim.kill()
            victim.wait()

            assert _wait(lambda: bool(store.reap_expired()), timeout=30.0)

            # The rescuer runs with every second heartbeat dropped by
            # the fault plan; a generous TTL keeps the lease alive
            # through the losses, and the retry policy shields its
            # claim traffic.
            os.unlink(sentinel)
            rescuer = _spawn_worker(
                store.path,
                "rescuer",
                _worker_env(
                    plugin_dir, faults="fleet.heartbeat:err=0.5@seed=3"
                ),
                lease_ttl=60.0,
            )
            assert rescuer.wait(timeout=240) == 0
        finally:
            if victim.poll() is None:
                victim.kill()

        # Safety: the audit log records exactly one completed claim —
        # the victim's expired, the rescuer's completed, nothing else.
        log = store.claim_log()
        outcomes = [(entry["worker_id"], entry["outcome"]) for entry in log]
        assert outcomes == [("victim", "expired"), ("rescuer", "completed")]
        assert sum(
            1 for _, outcome in outcomes if outcome == "completed"
        ) == 1

        cell = store.queue_cells()[0]
        assert cell.status == "completed"
        assert cell.claim_count == 2

        # Liveness + correctness: the chaotic fleet's payload is
        # bit-identical to a fault-free serial run of the same cell.
        serial = RunStore(str(tmp_path / "serial.db"))
        serial.enqueue_cells(
            [(task.name, "Sleeper", 0, cell_hash, spec.to_json())]
        )
        solo = _spawn_worker(
            serial.path, "solo", _worker_env(plugin_dir), lease_ttl=30.0
        )
        assert solo.wait(timeout=240) == 0
        assert canonical(
            store.completed_payload(task.name, "Sleeper", 0, cell_hash)
        ) == canonical(
            serial.completed_payload(task.name, "Sleeper", 0, cell_hash)
        )
