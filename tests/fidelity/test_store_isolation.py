"""Fidelity-tagged store entries never poison full-CV resume.

A fidelity-on run and a fidelity-off run share one durable score store
across OS processes.  The low-fidelity namespace (``|fid=<rung>`` key
suffix) must keep them apart: the off run may reuse the genuine
full-CV scores the on run promoted or audited, but must never consume
a rung-0 estimate — its scores stay bit-identical to a cold off run
against a fresh store.
"""

import json
import os
import subprocess
import sys

from repro.store import SqliteBackend

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

_SCORE_SCRIPT = """
import json, sys
import numpy as np
from repro.core.evaluation import DownstreamEvaluator
from repro.eval import EvaluationService
from repro.fidelity import make_fidelity
from repro.store import make_eval_backend

store_path, fidelity_spec = sys.argv[1], sys.argv[2]
rng = np.random.default_rng(0)
base = rng.normal(size=(80, 4))
y = (base[:, 0] + 0.5 * base[:, 1] > 0).astype(np.float64)
columns = [rng.normal(size=80) for _ in range(10)]
service = EvaluationService(
    DownstreamEvaluator(task="C", n_splits=3, n_estimators=3, seed=0),
    cache=make_eval_backend(store_path),
    fidelity=make_fidelity(fidelity_spec, seed=0),
)
scores = service.score_batch(base, columns, y)
service.close()
print(json.dumps({
    "scores": [score.hex() for score in scores],
    "n_misses": service.stats.n_cache_misses,
    "n_real_fits": service.evaluator.n_evaluations,
    "n_lowfi_scored": service.stats.n_lowfi_scored,
}))
"""


def _score_in_fresh_process(store_path: str, fidelity: str) -> dict:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = _SRC + os.pathsep + environment.get(
        "PYTHONPATH", ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", _SCORE_SCRIPT, store_path, fidelity],
        capture_output=True,
        text=True,
        env=environment,
        check=True,
    )
    return json.loads(completed.stdout)


class TestNamespaceIsolationAcrossProcesses:
    def test_lowfi_entries_never_serve_a_full_cv_run(self, tmp_path):
        shared = str(tmp_path / "shared.db")
        pristine = str(tmp_path / "pristine.db")

        # Process 1: fidelity-on run warms the shared store with a mix
        # of rung-0 (tagged) and promoted full-CV (untagged) scores.
        warm = _score_in_fresh_process(
            shared, "ladder:promote=0.2,rows=0.5,audit=0"
        )
        assert warm["n_lowfi_scored"] == 10
        counts = SqliteBackend(shared).fidelity_counts()
        assert counts["1x0.5"] == 8  # rejected rung-0 estimates
        assert counts["full"] == 2  # promoted full-CV scores

        # Process 2: fidelity-off run against the warmed store.  It may
        # hit the 2 genuine full-CV entries but must re-fit the 8
        # candidates that only have rung-0 estimates.
        resumed = _score_in_fresh_process(shared, "off")
        assert resumed["n_misses"] == 8
        assert resumed["n_real_fits"] == 8

        # Control: a cold fidelity-off run with no warm store at all.
        cold = _score_in_fresh_process(pristine, "off")
        assert cold["n_misses"] == 10

        # The resumed off run is bit-identical to the cold off run —
        # no approximate score leaked through the shared store.
        assert resumed["scores"] == cold["scores"]

        # And the off run never wrote into the fidelity namespace.
        after = SqliteBackend(shared).fidelity_counts()
        assert after["1x0.5"] == 8
        assert after["full"] == 10

    def test_different_rung_settings_use_disjoint_namespaces(self, tmp_path):
        shared = str(tmp_path / "rungs.db")
        _score_in_fresh_process(shared, "ladder:promote=0.2,rows=0.5,audit=0")
        _score_in_fresh_process(shared, "ladder:promote=0.2,rows=0.25,audit=0")
        counts = SqliteBackend(shared).fidelity_counts()
        # The second run hit the first run's 2 promoted full-CV scores,
        # ran the other 8 through its own rung (promoting 2, rejecting
        # 6) — the two rung namespaces never share an entry.
        assert counts["1x0.5"] == 8
        assert counts["1x0.25"] == 6
        assert counts["full"] == 4
