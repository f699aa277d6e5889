"""The benchmark under perfbench/ reaches into the package by name (functions,
classes, enum members). These checks fail when a rename in src/ would break
the benchmark, which no other test runs."""
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


@pytest.mark.parametrize("workload", ["train-matched", "step-mid"])
def test_setup_probe_builds_each_workload(workload):
    run = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--setup-probe",
                          "--workload", workload], cwd=PERFBENCH.parent,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_every_traced_target_resolves(perfbench_path):
    import spans

    tracer = spans.Tracer()
    targets = tracer.layer_targets() + tracer.verify_targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_restore_check_passes(perfbench_path):
    import workloads

    assert workloads.restore_check(0) is True
