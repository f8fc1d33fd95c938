"""Every benchmark workload runs once on tiny inputs without a failed job.

Each workload goes through the set-up and the measuring loop of
``perfbench/run.py``, whose checks compare every output with computations
made apart from the program, once untraced and once traced, where the
per-layer metrics read the arguments and results of the traced calls.
"""

import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _qubolin_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "qubolin" or k.startswith("qubolin.")}


@pytest.fixture
def run():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import run as module

    # set_up imports qubolin afresh; the other tests keep the modules they imported
    saved = _qubolin_modules()
    yield module
    for name in _qubolin_modules():
        del sys.modules[name]
    sys.modules.update(saved)


WORKLOADS = ["dense-verify", "sparse-fused", "hard-fused", "mkp-anneal"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_without_a_failed_job(run, tmp_path, name):
    workload = run.WORKLOADS[name](3, tmp_path, True)
    cli, _, _ = run.set_up(workload, None, "setup")
    m = run.measure(cli, workload.jobs(), 0.0, None)
    assert m.attempted > 0 and m.failed == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_workload_reports_finite_metrics(run, tmp_path, name):
    workload = run.WORKLOADS[name](3, tmp_path, True)
    tracer = run.Tracer()
    cli, import_s, gen_s = run.set_up(workload, tracer, "setup0")
    m = run.measure(cli, workload.jobs(), 0.0, tracer)
    assert m.failed == 0 and m.traced_jobs
    metrics = run.per_layer(m, tracer, [(import_s, gen_s)])
    assert all(math.isfinite(value) for value, _ in metrics.values())
