"""The output checks count a corrupted output as a failed job.

    python3 -m pytest -q perfbench/test_checks.py

Each test runs a workload on tiny inputs, corrupts one job's output after
the program wrote it and before the check reads it, and expects exactly
that job to fail in every round while the other jobs pass.
"""

from __future__ import annotations

import json
import shutil
import sys

import pytest

import reference as ref
import run


@pytest.fixture
def work():
    path = run.HERE / "_work" / "test-checks"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_with_corruption(name, work, corrupt):
    workload = run.WORKLOADS[name](3, work, True)
    cli, _, _ = run.set_up(workload, None, "setup")
    jobs = workload.jobs()
    check = jobs[0].check

    def corrupted(stdouts):
        corrupt()
        return check(stdouts)

    jobs[0].check = corrupted
    return run.measure(cli, jobs, 0.0, None), len(jobs)


def test_coefficient_on_wrong_diagonal_fails(work):
    lin, report = work / "lin0.json", work / "report0.json"

    def move_to_target_diagonal():
        i, j, c = json.loads(report.read_text())["removed"][0]
        u = ref.read_qubo(lin)
        u[i, i] -= c
        u[j, j] += c
        ref.write_qubo(u, lin)

    m, jobs = run_with_corruption("dense-verify", work, move_to_target_diagonal)
    rounds = m.attempted // jobs
    assert rounds >= 2 and m.attempted == rounds * jobs
    assert m.failed == rounds


def test_wrong_sample_energy_fails(work):
    samples = work / "samples0plain.json"

    def bump_first_energy():
        data = json.loads(samples.read_text())
        data["samples"][0]["energy"] += 1.0
        samples.write_text(json.dumps(data))

    m, jobs = run_with_corruption("mkp-anneal", work, bump_first_energy)
    rounds = m.attempted // jobs
    assert rounds >= 2 and m.attempted == rounds * jobs
    assert m.failed == rounds
