"""The survey scripts run against the current package API."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent


@pytest.mark.parametrize("script", ["contact_profile.py", "singular_fiber_survey.py"])
def test_script_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


@pytest.mark.parametrize("workload", ["sing", "contact", "orbits", "cli"])
def test_traced_worker_pass_reads_the_package_internals(workload):
    # perfbench/worker.py reads private caches of toricarcs for its per-layer metrics
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    worker = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload]
    done = subprocess.run(
        [*worker, "--seed", "1", "--trace", "1", "--cli-in-process", str(int(workload == "cli"))],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["answered"] == last["queries"]
    assert {"hilbert_basis_dual.hit_ratio", "face_quotient.hit_ratio"} <= set(last["layers"])
    if workload == "orbits":
        # a stratum's quotient goes through the public, traced quotient_lattice
        assert last["layers"]["quotient_lattice.calls"] > 0
    if workload in ("orbits", "sing"):
        # the loops inside the package read int tuples, so these passes build no vector
        assert last["layers"]["LatticeVector.made"] == 0
