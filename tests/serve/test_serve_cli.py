"""``python -m repro.serve``: real process, real socket, clean shutdown."""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

from repro.api import FeaturePlan
from repro.serve import PlanRegistry

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _plan():
    return FeaturePlan(["f0", "mul(f0,f1)", "log(f2)"], ["f0", "f1", "f2"])


def _environment():
    environment = dict(os.environ)
    environment["PYTHONPATH"] = _SRC + os.pathsep + environment.get(
        "PYTHONPATH", ""
    )
    return environment


def _spawn(arguments):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0", *arguments],
        env=_environment(),
        stderr=subprocess.PIPE,
        text=True,
    )


def _wait_for_address(process, timeout=30.0):
    """Read stderr until the 'serving on' line appears."""
    deadline = time.monotonic() + timeout
    lines = []
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        if not line:
            break
        lines.append(line)
        match = re.search(r"serving on (http://[0-9.]+:\d+)", line)
        if match:
            return match.group(1)
    raise AssertionError(f"server never announced its address: {lines!r}")


@pytest.mark.parametrize("source", ["registry", "plan-file"])
def test_serve_round_trip_and_clean_shutdown(tmp_path, source):
    plan = _plan()
    if source == "registry":
        registry = PlanRegistry(tmp_path / "plans")
        registry.publish(plan, "demo")
        arguments = ["--registry", str(tmp_path / "plans"), "--default-plan", "demo"]
    else:
        plan.save(tmp_path / "demo.plan.json")
        arguments = ["--plan", str(tmp_path / "demo.plan.json")]

    X = np.random.default_rng(3).normal(size=(9, 3)) + 2.0
    expected = plan.transform(X)

    process = _spawn(arguments)
    try:
        base = _wait_for_address(process)
        request = urllib.request.Request(
            f"{base}/transform",
            data=json.dumps({"rows": X.tolist()}).encode("utf-8"),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            document = json.loads(response.read())
        served = np.asarray(document["rows"], dtype=np.float64)
        assert served.tobytes() == expected.tobytes()
        with urllib.request.urlopen(f"{base}/healthz", timeout=10) as response:
            assert json.loads(response.read())["status"] == "ready"
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            raise AssertionError("server did not shut down on SIGINT")
    assert process.returncode == 0
    remainder = process.stderr.read()
    assert "shutdown complete" in remainder


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_shutdown_works_with_inherited_sigint_ignored(tmp_path, signum):
    # Non-interactive shells start `&` background jobs with SIGINT set
    # to SIG_IGN (the CI smoke does exactly this).  The server installs
    # its own handlers, so both signals must still shut it down
    # cleanly.
    _plan().save(tmp_path / "demo.plan.json")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve", "--port", "0",
            "--plan", str(tmp_path / "demo.plan.json"),
        ],
        env=_environment(),
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        _wait_for_address(process)
        process.send_signal(signum)
        process.wait(timeout=15)
    except subprocess.TimeoutExpired:
        process.kill()
        raise AssertionError(f"server ignored {signum!r}")
    assert process.returncode == 0
    assert "shutdown complete" in process.stderr.read()


def test_nothing_to_serve_is_an_error():
    completed = subprocess.run(
        [sys.executable, "-m", "repro.serve"],
        env=_environment(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert "nothing to serve" in completed.stderr


def test_registry_path_that_is_a_file_is_a_usage_error(tmp_path, capsys):
    from repro.serve.__main__ import main

    path = tmp_path / "runs.db"
    path.write_bytes(b"")
    with pytest.raises(SystemExit) as exited:
        main(["--registry", str(path)])
    assert exited.value.code == 2
    assert "not a directory" in capsys.readouterr().err
