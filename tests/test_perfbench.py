"""The benchmark under perfbench/ reaches into the package by name (functions,
classes, enum members). These checks fail when a rename in src/ would break
the benchmark, which no other test runs."""
import dataclasses
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


def test_train_matched_bp_peak_within_its_bound_by_shape(perfbench_path):
    # the BP peak the benchmark reads, held to the model's own account of it
    import workloads
    from mezofit.model import ToyTransformer

    wl = workloads.TrainMatched(0)
    cfg = wl.plan.bp_model
    bound = ToyTransformer(cfg).peak_bytes("backward", cfg.batch_size, cfg.context_length)
    assert wl.memory_pass()["bp_peak_bytes"] <= bound


def test_train_matched_mezo_peak_within_its_bound_by_shape(perfbench_path):
    # the MeZO peak the benchmark reads: one forward plus loss, by the
    # model's own account, plus the noise that a vector of one chunk keeps
    # through the step, 8*P
    import workloads
    from mezofit.model import ToyTransformer
    from mezofit.zo import DEFAULT_CHUNK

    wl = workloads.TrainMatched(0)
    cfg = wl.plan.mezo_model
    model = ToyTransformer(cfg)
    P = model.param_count()
    assert P <= DEFAULT_CHUNK
    bound = model.peak_bytes("forward", cfg.batch_size, cfg.context_length) + 8 * P
    assert wl.memory_pass()["mezo_peak_bytes"] <= bound


def test_step_mid_mezo_peak_within_8_percent_of_one_loss_evaluation(perfbench_path):
    # the MeZO peak the benchmark reads at step-mid: a walked step holds two
    # chunk buffers between loss calls and only its undo record through them
    import workloads

    wl = workloads.StepMid(0)
    step_peak = wl.memory_pass()["mezo_peak_bytes"]
    loss_fn = wl._loss_fn(*wl.task.batch(range(wl.cfg.batch_size)))
    loss_fn(wl.theta_mezo)  # warm
    loss_peak = workloads.peak_bytes(lambda: loss_fn(wl.theta_mezo))
    assert step_peak <= 1.08 * loss_peak, (step_peak, loss_peak)


@pytest.mark.parametrize("method", ["mezo", "bp"])
def test_train_matched_evaluation_peaks_no_higher_than_a_step_loss(perfbench_path, method):
    # A block holds at most a step's batch, so `correct` over a run's 128
    # cropped eval sequences peaks no higher than the bound loss of a step.
    # With blocks sized by _BLOCK alone, the MeZO model's 128 sequences ran
    # as two blocks of 64 and peaked at 398,416 B.
    import workloads
    from mezofit.bench import EVAL_SEQUENCES
    from mezofit.model import ToyTransformer

    plan = workloads.TrainMatched(0).plan
    cfg = getattr(plan, f"{method}_model")
    model, N = ToyTransformer(cfg), cfg.context_length
    params = model.init_params(0)
    tokens, targets = (a[:, -N:] for a in plan.task.eval_batch(EVAL_SEQUENCES))
    model.correct(params, tokens, targets)  # warm up
    peak = workloads.peak_bytes(lambda: model.correct(params, tokens, targets))
    bound = model.peak_bytes("correct", EVAL_SEQUENCES, N)
    assert peak <= bound <= model.peak_bytes("loss", cfg.batch_size, N)


def test_traced_mezo_steps_account_for_every_loss_evaluation(perfbench_path):
    # the MeZO steps of a short train-matched run take their loss from
    # ToyTransformer.loss_fn, which the tracer sees only as the step's
    # "zo.loss_fn" callbacks
    import spans
    import workloads
    from mezofit import bench

    plan = dataclasses.replace(workloads.TrainMatched(0).plan, steps=20)
    tracer = spans.Tracer()
    with tracer.installed(tracer.layer_targets()):
        tracer.run("bench.run_experiment", bench.run_experiment, plan)
    n, spans_ = plan.zo.num_perturbations, tracer.spans
    steps = [i for i, s in enumerate(spans_) if s[0] == "zo.mezo_step"]
    assert len(steps) == plan.steps * len(plan.lr_grid_mezo)
    for i in steps:
        losses = [s for s in spans_ if s[3] == i and s[0] == "zo.loss_fn"]
        assert len(losses) == 2 * n
        assert abs(spans._mezo_gaps(spans_[i], losses)[3]) < 1e-3
    metrics, residual = spans.layer_metrics(spans_, "bench.run_experiment")
    assert metrics["zo.loss_evals_per_step"] == 2 * n and residual < 1e-3

    # a training run never calls forward or loss_from_logits: a MeZO step
    # and the train-loss probe take their loss from loss_fn, an evaluation
    # its count from correct, and backward runs its own forward
    assert [s for s in spans_ if s[0] == "zo.bp_sgd_step"]
    assert not [s for s in spans_ if s[0] in ("model.forward", "model.loss")]
