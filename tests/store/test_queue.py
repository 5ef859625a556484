"""RunStore queue semantics: atomic claims, leases, retries, audit log.

The fleet's correctness bar lives here: concurrent workers — threads
in one process and real OS processes — never double-claim a cell, an
expired lease is re-queued exactly once per expiry, a stale token can
never corrupt the queue, and the start()/finish() ownership protocol
resolves a two-process race to one winner.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.store import RunStore

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _cells(n, spec="{}"):
    return [(f"ds{i}", "NFS", 0, "hash", spec) for i in range(n)]


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "queue.db"))


class TestEnqueue:
    def test_enqueue_counts_new_cells_only(self, store):
        assert store.enqueue_cells(_cells(3)) == 3
        assert store.enqueue_cells(_cells(3)) == 0  # idempotent
        assert store.enqueue_cells(_cells(5)) == 2  # only the new tail
        assert store.queue_counts() == {"pending": 5}
        assert store.queue_depth() == 5

    def test_enqueue_preserves_in_flight_state(self, store):
        store.enqueue_cells(_cells(1))
        claim = store.claim_cell("w0")
        assert store.enqueue_cells(_cells(1)) == 0
        assert store.queue_counts() == {"claimed": 1}
        assert store.heartbeat(claim.token)  # the lease survived

    def test_requeue_dead_gives_cells_a_fresh_life(self, store):
        store.enqueue_cells(_cells(1), max_retries=1)
        claim = store.claim_cell("w0")
        store.fail_cell(claim.token, error="boom")
        assert store.queue_counts() == {"dead": 1}
        assert store.enqueue_cells(_cells(1), requeue_dead=True) == 1
        cell = store.queue_cells()[0]
        assert cell.status == "pending"
        assert cell.retries == 0


class TestClaimLifecycle:
    def test_claim_orders_by_enqueue_then_completes(self, store):
        store.enqueue_cells([("b", "NFS", 0, "h", "{}")])
        store.enqueue_cells([("a", "NFS", 0, "h", "{}")])
        claim = store.claim_cell("w0", lease_ttl=30.0)
        assert claim.dataset == "b"  # FIFO by enqueue time, not name
        assert claim.spec == "{}"
        assert claim.lease_expires > time.time()
        assert store.mark_running(claim.token)
        assert store.queue_counts() == {"running": 1, "pending": 1}
        assert store.complete_cell(claim.token)
        assert store.queue_counts() == {"completed": 1, "pending": 1}
        assert store.queue_depth() == 1

    def test_claimed_cell_is_not_claimable_again(self, store):
        store.enqueue_cells(_cells(1))
        assert store.claim_cell("w0") is not None
        assert store.claim_cell("w1") is None

    def test_heartbeat_extends_the_lease(self, store):
        store.enqueue_cells(_cells(1))
        claim = store.claim_cell("w0", lease_ttl=0.2)
        assert store.heartbeat(claim.token, lease_ttl=60.0)
        cell = store.queue_cells(status="claimed")[0]
        assert cell.lease_expires > time.time() + 30
        assert cell.heartbeat_at is not None
        assert store.reap_expired() == []  # extended lease is live

    def test_stale_token_operations_are_noops(self, store):
        store.enqueue_cells(_cells(1))
        claim = store.claim_cell("w0", lease_ttl=0.01)
        time.sleep(0.05)
        assert store.reap_expired()  # lease gone; token now stale
        for op in (
            lambda: store.heartbeat(claim.token),
            lambda: store.mark_running(claim.token),
            lambda: store.complete_cell(claim.token),
            lambda: store.release_cell(claim.token),
            lambda: store.fail_cell(claim.token),
        ):
            assert op() is False
        # The zombie changed nothing: the cell is pending for others.
        assert store.queue_counts() == {"pending": 1}

    def test_release_returns_cell_without_charging_a_retry(self, store):
        store.enqueue_cells(_cells(1))
        claim = store.claim_cell("w0")
        assert store.release_cell(claim.token)
        cell = store.queue_cells()[0]
        assert (cell.status, cell.retries) == ("pending", 0)
        assert store.claim_cell("w1") is not None


class TestLeasesAndRetries:
    def test_expired_lease_requeues_exactly_once(self, store):
        store.enqueue_cells(_cells(1))
        store.claim_cell("w0", lease_ttl=0.01)
        time.sleep(0.05)
        reaped = store.reap_expired()
        assert [cell.status for cell in reaped] == ["pending"]
        assert reaped[0].retries == 1
        assert reaped[0].last_error == "lease expired"
        assert store.reap_expired() == []  # second reap finds nothing
        cell = store.queue_cells()[0]
        assert (cell.status, cell.retries, cell.claim_count) == (
            "pending", 1, 1,
        )

    def test_fail_requeues_then_dead_letters_at_max_retries(self, store):
        store.enqueue_cells(_cells(1), max_retries=2)
        claim = store.claim_cell("w0")
        assert store.fail_cell(claim.token, error="first crash")
        cell = store.queue_cells()[0]
        assert (cell.status, cell.retries) == ("pending", 1)
        assert cell.last_error == "first crash"
        claim = store.claim_cell("w1")
        assert store.fail_cell(claim.token, error="second crash")
        cell = store.queue_cells()[0]
        assert (cell.status, cell.retries) == ("dead", 2)
        assert store.claim_cell("w2") is None  # dead cells stay down
        assert store.queue_depth() == 0  # dead does not block a drain

    def test_expiry_dead_letters_too(self, store):
        store.enqueue_cells(_cells(1), max_retries=1)
        store.claim_cell("w0", lease_ttl=0.01)
        time.sleep(0.05)
        reaped = store.reap_expired()
        assert [cell.status for cell in reaped] == ["dead"]

    def test_lease_ages_reflect_heartbeats(self, store):
        store.enqueue_cells(_cells(2))
        store.claim_cell("w0")
        store.claim_cell("w1")
        ages = store.lease_ages(now=time.time() + 5.0)
        assert len(ages) == 2
        assert all(4.0 < age < 6.0 for age in ages)

    def test_prune_queue_debris_resolves_zombie_claims(self, store):
        store.enqueue_cells(_cells(2))
        store.claim_cell("w0", lease_ttl=0.01)
        time.sleep(0.05)
        debris = store.prune_queue_debris()
        assert debris["reaped"] == 1
        assert store.queue_counts() == {"pending": 2}


def _reap(store, claim):
    reaped = store.reap_expired(now=claim.lease_expires + 1.0)
    # reap_expired reports the post-transition rows it touched.
    assert reaped in ([], store.queue_cells())
    return bool(reaped)


#: ending -> (max_retries, call, status, retries, last_error, outcome)
LEASE_ENDINGS = {
    "complete": (
        3, lambda s, c: s.complete_cell(c.token),
        "completed", 0, None, "completed",
    ),
    "release": (
        3, lambda s, c: s.release_cell(c.token),
        "pending", 0, None, "released",
    ),
    "fail": (
        3, lambda s, c: s.fail_cell(c.token, error="boom"),
        "pending", 1, "boom", "failed",
    ),
    "fail_at_budget": (
        1, lambda s, c: s.fail_cell(c.token, error="boom"),
        "dead", 1, "boom", "failed",
    ),
    "reap": (3, _reap, "pending", 1, "lease expired", "expired"),
    "reap_at_budget": (1, _reap, "dead", 1, "lease expired", "expired"),
}


@pytest.mark.parametrize("ending", sorted(LEASE_ENDINGS))
def test_queue_transition_rows(store, ending):
    """claim -> mark_running -> one lease ending, full row after each."""
    max_retries, end, status, retries, last_error, outcome = (
        LEASE_ENDINGS[ending]
    )
    store.enqueue_cells(_cells(1), max_retries=max_retries)
    pending = store.queue_cells()[0]
    expected = {
        "dataset": "ds0", "method": "NFS", "seed": 0, "config_hash": "hash",
        "status": "pending", "worker_id": None, "lease_expires": None,
        "heartbeat_at": None, "retries": 0, "max_retries": max_retries,
        "claim_count": 0, "last_error": None,
        "enqueued_at": pending.enqueued_at,
    }

    def check(log_outcome):
        cell = dataclasses.asdict(store.queue_cells()[0])
        assert cell.pop("updated_at") >= pending.updated_at
        assert cell == expected
        assert [row["outcome"] for row in store.claim_log()] == [log_outcome]

    claim = store.claim_cell("w0", lease_ttl=30.0)
    expected.update(
        status="claimed", worker_id="w0", lease_expires=claim.lease_expires,
        heartbeat_at=pytest.approx(claim.lease_expires - 30.0),
        claim_count=1,
    )
    check(None)
    assert store.mark_running(claim.token)
    expected["status"] = "running"
    check(None)
    assert end(store, claim)
    expected.update(
        status=status, retries=retries, last_error=last_error,
        worker_id=None, lease_expires=None, heartbeat_at=None,
    )
    check(outcome)
    assert store.claim_log()[0]["resolved_at"] is not None
    # The lease is over: its token no longer moves the row.
    assert store.heartbeat(claim.token) is False
    assert end(store, claim) is False
    check(outcome)


class TestClaimAuditLog:
    def test_every_claim_resolution_is_logged(self, store):
        store.enqueue_cells(_cells(1), max_retries=3)
        store.mark_running(store.claim_cell("w0", lease_ttl=0.01).token)
        time.sleep(0.05)
        store.reap_expired()
        store.fail_cell(store.claim_cell("w1").token, error="crash")
        store.release_cell(store.claim_cell("w2").token)
        store.complete_cell(store.claim_cell("w3").token)
        log = store.claim_log()
        assert [entry["worker_id"] for entry in log] == [
            "w0", "w1", "w2", "w3",
        ]
        assert [entry["outcome"] for entry in log] == [
            "expired", "failed", "released", "completed",
        ]
        assert all(entry["resolved_at"] is not None for entry in log)

    def test_clear_queue_wipes_cells_and_log(self, store):
        store.enqueue_cells(_cells(2))
        store.claim_cell("w0")
        store.clear_queue()
        assert store.queue_cells() == []
        assert store.claim_log() == []


def _claim_worker(store, worker_id, claimed, barrier):
    barrier.wait()
    while True:
        claim = store.claim_cell(worker_id, lease_ttl=30.0)
        if claim is None:
            return
        claimed.append((worker_id, claim.key))
        store.complete_cell(claim.token)


class TestConcurrentClaims:
    def test_threads_never_double_claim(self, store):
        n_cells, n_workers = 24, 6
        store.enqueue_cells(_cells(n_cells))
        claimed: list = []
        barrier = threading.Barrier(n_workers)
        threads = [
            threading.Thread(
                target=_claim_worker,
                args=(store, f"w{i}", claimed, barrier),
            )
            for i in range(n_workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        keys = [key for _, key in claimed]
        assert len(keys) == n_cells
        assert len(set(keys)) == n_cells  # no cell claimed twice
        assert store.queue_counts() == {"completed": n_cells}
        assert len(store.claim_log()) == n_cells

    def test_processes_never_double_claim(self, store, tmp_path):
        """Two real OS processes hammering one queue: disjoint claims."""
        n_cells = 16
        store.enqueue_cells(_cells(n_cells))
        script = (
            "import json, sys\n"
            "from repro.store import RunStore\n"
            "store = RunStore(sys.argv[1])\n"
            "mine = []\n"
            "while True:\n"
            "    claim = store.claim_cell(sys.argv[2], lease_ttl=30.0)\n"
            "    if claim is None:\n"
            "        break\n"
            "    mine.append(list(claim.key))\n"
            "    store.complete_cell(claim.token)\n"
            "print(json.dumps(mine))\n"
        )
        environment = dict(os.environ)
        environment["PYTHONPATH"] = _SRC + os.pathsep + environment.get(
            "PYTHONPATH", ""
        )
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", script, store.path, f"proc{i}"],
                stdout=subprocess.PIPE,
                text=True,
                env=environment,
            )
            for i in range(2)
        ]
        per_process = [
            json.loads(process.communicate()[0]) for process in processes
        ]
        assert all(process.returncode == 0 for process in processes)
        all_keys = [tuple(key) for keys in per_process for key in keys]
        assert len(all_keys) == n_cells
        assert len(set(all_keys)) == n_cells
        assert store.queue_counts() == {"completed": n_cells}
        # The audit log agrees: one resolved claim per cell, ever.
        log = store.claim_log()
        assert len(log) == n_cells
        assert all(entry["outcome"] == "completed" for entry in log)


_RACE_SCRIPT = """
import json, os, sys, time
from repro.store import RunStore

store = RunStore(sys.argv[1])
role, sync_dir = sys.argv[2], sys.argv[3]

def wait_for(name, timeout=20.0):
    deadline = time.time() + timeout
    while not os.path.exists(os.path.join(sync_dir, name)):
        if time.time() > deadline:
            raise TimeoutError(name)
        time.sleep(0.01)

def signal(name):
    open(os.path.join(sync_dir, name), "w").close()

if role == "winner":
    won = store.start("ds", "NFS", 0, "h", owner="winner")
    signal("winner-started")
    wait_for("loser-finished")
    finished = store.finish(
        "ds", "NFS", 0, "h", {"best_score": 1.0, "by": "winner"},
        owner="winner",
    )
else:
    wait_for("winner-started")
    won = store.start("ds", "NFS", 0, "h", owner="loser")
    finished = store.finish(
        "ds", "NFS", 0, "h", {"best_score": 2.0, "by": "loser"},
        owner="loser",
    )
    signal("loser-finished")
print(json.dumps({"won": won, "finished": finished}))
"""


class TestStartFinishRace:
    def test_two_processes_one_winner(self, store, tmp_path):
        """Regression: both processes used to 'win' start() and the
        later finish() silently clobbered the earlier one.  With owner
        tokens, the loser observes both its start and its finish as
        rejected, and the winner's payload is the one stored."""
        sync_dir = str(tmp_path / "sync")
        os.makedirs(sync_dir)
        environment = dict(os.environ)
        environment["PYTHONPATH"] = _SRC + os.pathsep + environment.get(
            "PYTHONPATH", ""
        )

        def launch(role):
            return subprocess.Popen(
                [sys.executable, "-c", _RACE_SCRIPT, store.path, role,
                 sync_dir],
                stdout=subprocess.PIPE,
                text=True,
                env=environment,
            )

        processes = [launch("winner"), launch("loser")]
        outputs = {}
        for role, process in zip(("winner", "loser"), processes):
            outputs[role] = json.loads(process.communicate()[0])
            assert process.returncode == 0
        assert outputs["winner"] == {"won": True, "finished": True}
        assert outputs["loser"] == {"won": False, "finished": False}
        payload = store.completed_payload("ds", "NFS", 0, "h")
        assert payload["by"] == "winner"

    def test_sequential_reruns_still_win(self, store):
        # The historical non-resume contract: back-to-back runs of one
        # cell each win start() and overwrite finish().
        for attempt in ("first", "second"):
            assert store.start("ds", "NFS", 0, "h", owner=attempt)
            assert store.finish(
                "ds", "NFS", 0, "h", {"by": attempt}, owner=attempt
            )
        assert store.completed_payload("ds", "NFS", 0, "h")["by"] == "second"

    def test_stale_running_owner_is_taken_over(self, store):
        assert store.start("ds", "NFS", 0, "h", owner="dead-process")
        assert not store.start("ds", "NFS", 0, "h", owner="new-process")
        assert store.start(
            "ds", "NFS", 0, "h", owner="new-process", stale_after=0.0
        )
