"""Serving under concurrency: many threads, one compiled-plan cache.

The serving contract is *bit-identical outputs with shared compiled
state*: N threads hammering one :class:`TransformService` (or the
threaded HTTP server) must produce exactly the bytes a serial
``FeaturePlan.transform`` produces, while the plan compiles once —
not once per thread, not once per request.
"""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.api import FeaturePlan
from repro.serve import PlanRegistry, TransformService, make_server

N_THREADS = 8
N_REQUESTS = 25


def _plan(names=("f0", "mul(f0,f1)", "log(f2)", "div(f1,f2)")):
    return FeaturePlan(list(names), ["f0", "f1", "f2"])


def _hammer(n_threads, worker):
    """Run ``worker(thread_index)`` on N threads; re-raise any failure."""
    errors = []

    def wrapped(index):
        try:
            worker(index)
        except Exception as error:  # noqa: BLE001 — collected for the test
            errors.append(error)

    threads = [
        threading.Thread(target=wrapped, args=(index,))
        for index in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestServiceConcurrency:
    def test_threads_share_one_compile_and_match_serial(self, tmp_path):
        registry = PlanRegistry(tmp_path / "plans")
        registry.publish(_plan(), "demo")
        service = TransformService(registry=registry)
        X = np.random.default_rng(0).normal(size=(64, 3)) + 2.0
        expected = _plan().transform(X).tobytes()
        outputs = [None] * N_THREADS

        def worker(index):
            for _ in range(N_REQUESTS):
                out = service.transform("demo", X)
                assert out.tobytes() == expected
            outputs[index] = service.transform("demo", X).tobytes()

        _hammer(N_THREADS, worker)
        assert all(out == expected for out in outputs)
        stats = service.stats("demo")
        assert stats.n_requests == N_THREADS * (N_REQUESTS + 1)
        assert stats.n_rows == stats.n_requests * X.shape[0]
        # Cold-start races may *parse* twice (compile runs outside the
        # lock by design) but only the thread that wins the cache slot
        # counts a compile — so the counter is exactly 1, and a
        # per-request compile (broken cache) is loudly visible.
        assert stats.n_compiles == 1

    def test_threads_across_distinct_plans(self, tmp_path):
        registry = PlanRegistry(tmp_path / "plans")
        plans = {}
        for i in range(4):
            plan = _plan([f"f{i % 3}", f"mul(f{i % 3},f{(i + 1) % 3})"])
            registry.publish(plan, f"plan{i}")
            plans[f"plan{i}"] = plan
        service = TransformService(registry=registry, capacity=4)
        X = np.random.default_rng(1).normal(size=(32, 3)) + 2.0
        expected = {
            name: plan.transform(X).tobytes() for name, plan in plans.items()
        }

        def worker(index):
            name = f"plan{index % 4}"
            for _ in range(N_REQUESTS):
                assert service.transform(name, X).tobytes() == expected[name]

        _hammer(N_THREADS, worker)
        for name in plans:
            assert service.stats(name).n_compiles == 1


class TestHTTPConcurrency:
    def test_threaded_clients_bit_identical(self, tmp_path):
        registry = PlanRegistry(tmp_path / "plans")
        registry.publish(_plan(), "demo")
        service = TransformService(registry=registry)
        server = make_server(service, default_plan="demo")
        server.serve_background()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}/transform"
        X = np.random.default_rng(2).normal(size=(16, 3)) + 2.0
        expected = _plan().transform(X).tobytes()
        payload = json.dumps({"rows": X.tolist()}).encode("utf-8")

        def worker(index):
            for _ in range(10):
                request = urllib.request.Request(
                    url, data=payload, method="POST"
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    document = json.loads(response.read())
                served = np.asarray(document["rows"], dtype=np.float64)
                assert served.tobytes() == expected

        try:
            _hammer(N_THREADS, worker)
        finally:
            server.shutdown()
            server.server_close()
        stats = service.stats("demo")
        assert stats.n_requests == N_THREADS * 10
        assert stats.n_compiles == 1


class TestRegistryConcurrency:
    def test_parallel_publishes_unique_versions(self, tmp_path):
        registry = PlanRegistry(tmp_path / "plans")
        plans = [_plan([f"f{i % 3}"]) for i in range(3)]

        def worker(index):
            registry.publish(plans[index % 3], "demo")

        _hammer(6, worker)
        # Content-dedup under concurrency: three distinct plans, three
        # versions, no duplicates and no gaps.
        versions = [record.version for record in registry.records()]
        assert sorted(versions) == [1, 2, 3]
        fingerprints = {record.fingerprint for record in registry.records()}
        assert len(fingerprints) == 3

    def test_mismatched_publish_refused_under_load(self, tmp_path):
        registry = PlanRegistry(tmp_path / "plans")
        registry.publish(_plan(["f0"]), "demo")
        refused = []

        def worker(index):
            try:
                registry.publish(_plan([f"f{1 + index % 2}"]), "demo", version=1)
            except ValueError:
                refused.append(index)

        _hammer(6, worker)
        assert len(refused) == 6
        assert registry.latest_version("demo") == 1
