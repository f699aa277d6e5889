"""The two workloads. Each builds its inputs from the seed, runs one job at a
time (a closed loop: the next job starts when the previous one returns) and
reports per-job timings, step latencies and correctness facts.

train-matched: one job is one bench.run_experiment over the matched-budget
plan in train_matched.ini (2 methods x 2 learning rates x 400 steps).
step-mid: one job is 1 MeZO step and 2 BP steps on the mid config in
step_mid.ini, on one fixed batch, then a loss forward of the MeZO parameters.
"""
from __future__ import annotations

import dataclasses
import hashlib
import time
import tracemalloc
from pathlib import Path

import numpy as np

from mezofit import bench, configfile, model, zo
from mezofit.memory import activation_bytes, mezo_memory
from mezofit.model import LedgerMode, ToyTransformer
from mezofit.tasks import TaskKind, ToyTask

HERE = Path(__file__).resolve().parent
MID_INI = HERE / "step_mid.ini"
PLAN_INI = HERE / "train_matched.ini"

# The float64 desk stack stores 8 bytes per element; the analytic memory
# model is evaluated at that width when set beside a measured peak.
MEASURED_BYTES_PER_PARAM = 8.0
STEP_MID_BP_LR = 1e-3
STEP_MID_BP_PER_MEZO = 2


@dataclasses.dataclass
class JobResult:
    wall_s: float
    # per step: the step call (step-mid), or the step and the loop's work
    # before it since the previous step (train-matched)
    mezo_ms: list[float]
    bp_ms: list[float]
    steps: dict[str, int]  # per method: steps run, and the seconds they took
    step_s: dict[str, float]
    attempted: int
    failed: int
    notes: dict


def peak_bytes(fn) -> int:
    """tracemalloc peak of the allocations made during fn()."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mid_param_count() -> int:
    cfg = configfile.parse_model_config(MID_INI.read_text(), is_text=True)
    return ToyTransformer(cfg).param_count()


def restore_check(seed: int) -> bool:
    """One spsa_directional_derivative at the mid P (14 noise chunks) must
    leave theta bit for bit as it was."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(mid_param_count())
    theta = zo.ParameterVector(values, (zo.Segment("w", 0, values.size),))
    before = theta.values.tobytes()
    g = zo.spsa_directional_derivative(
        lambda t: float(t.values[::97] @ t.values[::97]), theta,
        zo.PerturbationSeed(seed, 0), 1e-3)
    return bool(np.isfinite(g)) and theta.values.tobytes() == before


def _paced(step, ms: list[float]):
    """A step function that, from the second step on the same parameters,
    appends to ms the time since the previous step returned: the step itself
    plus what the training loop did before it (fetching and cropping the
    batch and, every eval_every steps, an evaluation)."""
    clock = time.perf_counter
    last = {"theta": None, "end": 0.0}

    def paced(fn, theta, *args, **kwargs):
        try:
            return step(fn, theta, *args, **kwargs)
        finally:
            end = clock()
            if last["theta"] is theta:
                ms.append(1e3 * (end - last["end"]))
            last["theta"], last["end"] = theta, end
    return paced


class TrainMatched:
    name = "train-matched"
    job_span = "bench.run_experiment"
    runs_verify_battery = False

    def __init__(self, seed: int) -> None:
        plan = configfile.parse_plan(PLAN_INI.read_text(), is_text=True)
        self.plan = dataclasses.replace(
            plan, run_seed=seed, task=dataclasses.replace(plan.task, seed=seed))
        # what a training run builds before its first step (run_experiment
        # builds its own; these serve set-up timing and the memory pass)
        self.models = {m: ToyTransformer(cfg) for m, cfg in
                       (("bp", self.plan.bp_model), ("mezo", self.plan.mezo_model))}
        self.params = {m: mdl.init_params(seed) for m, mdl in self.models.items()}
        self.eval_batch = self.plan.task.eval_batch(bench.EVAL_SEQUENCES)

    @staticmethod
    def parse() -> None:
        configfile.parse_plan(PLAN_INI.read_text(), is_text=True)

    def warm(self) -> None:
        bench.run_experiment(dataclasses.replace(self.plan, steps=self.plan.eval_every))

    @property
    def noise_length(self) -> int:
        return len(self.params["mezo"])

    @property
    def directions(self) -> int:
        return self.plan.zo.num_perturbations

    def job(self, run_job) -> JobResult:
        # time each training step run_experiment takes, through the names it calls
        real = bench.mezo_step, bench.bp_sgd_step
        mezo_ms, bp_ms = [], []
        bench.mezo_step, bench.bp_sgd_step = _paced(real[0], mezo_ms), _paced(real[1], bp_ms)
        try:
            t0 = time.perf_counter()
            result = run_job(bench.run_experiment, self.plan)
            wall = time.perf_counter() - t0
        finally:
            bench.mezo_step, bench.bp_sgd_step = real

        # steps over RunResult.wall_time_s, evaluations included
        steps, step_s = {}, {}
        for method in ("bp", "mezo"):
            runs = [r for r in result.runs if r.method == method and r.records]
            steps[method] = sum(r.records[-1].step for r in runs)
            step_s[method] = sum(r.wall_time_s for r in runs)
        failed = [r for r in result.runs if r.failed]
        zeroed = [dataclasses.replace(r, wall_clock_s=0.0) for r in result.all_records()]
        notes = {"csv_sha256": hashlib.sha256(bench.emit_csv(zeroed).encode()).hexdigest()}
        if not failed:
            notes["mezo_best_acc"] = result.best_run("mezo").final_running_max
            notes["bp_best_acc"] = result.best_run("bp").final_running_max
        return JobResult(wall, mezo_ms, bp_ms, steps, step_s,
                         len(result.runs), len(failed), notes)

    def check(self, jobs: list[JobResult]) -> dict[str, bool]:
        notes = [j.notes for j in jobs]
        return {
            "train_runs_ok": all(j.failed == 0 for j in jobs),
            "csv_identical_across_jobs": len({n["csv_sha256"] for n in notes}) == 1,
            "mezo_beats_bp": all(n.get("mezo_best_acc", 0) > n.get("bp_best_acc", 1)
                                 for n in notes),
        }

    def memory_pass(self) -> dict[str, float]:
        """Peak bytes of one MeZO and one BP step of the plan's models, beside
        the analytic activation bytes at 8 bytes per element."""
        plan = self.plan
        out = {}
        for method, cfg in (("mezo", plan.mezo_model), ("bp", plan.bp_model)):
            mdl, theta = self.models[method], self.params[method].copy()
            tokens, targets = plan.task.batch(range(cfg.batch_size))
            tokens, targets = tokens[:, -cfg.context_length:], targets[:, -cfg.context_length:]
            wide = cfg.replace(bytes_per_param=MEASURED_BYTES_PER_PARAM)
            if method == "mezo":
                zo_cfg = dataclasses.replace(plan.zo, learning_rate=plan.lr_grid_mezo[0])
                loss = lambda t: model.loss_from_logits(
                    mdl.forward(t, tokens, mode=LedgerMode.MEZO)[0], targets)
                out["mezo_peak_bytes"] = peak_bytes(lambda: zo.mezo_step(loss, theta, zo_cfg, 0))
                out["mezo_analytic_acts"] = mezo_memory(wide).activations_bytes
            else:
                out["bp_peak_bytes"] = peak_bytes(lambda: zo.bp_sgd_step(
                    lambda t: mdl.backward(t, tokens, targets), theta, plan.lr_grid_bp[0]))
                out["bp_analytic_acts"] = activation_bytes(wide)
        return out


class StepMid:
    name = "step-mid"
    job_span = "step_mid.job"
    runs_verify_battery = True

    def __init__(self, seed: int) -> None:
        text = MID_INI.read_text()
        self.cfg = configfile.parse_model_config(text, is_text=True)
        self.zo_cfg = dataclasses.replace(
            configfile.parse_zo_config(text, is_text=True), master_seed=seed)
        self.model = ToyTransformer(self.cfg)
        self.theta_mezo = self.model.init_params(seed)
        self.theta_bp = self.theta_mezo.copy()
        self.task = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, self.cfg.vocab_size,
                            self.cfg.context_length, seed)
        self.task.batch(range(self.cfg.batch_size))  # built in set-up; each job fetches it again
        self.step_index = 0

    @staticmethod
    def parse() -> None:
        text = MID_INI.read_text()
        configfile.parse_model_config(text, is_text=True)
        configfile.parse_zo_config(text, is_text=True)

    @property
    def noise_length(self) -> int:
        return len(self.theta_mezo)

    @property
    def directions(self) -> int:
        return self.zo_cfg.num_perturbations

    def _loss_fn(self, tokens, targets):
        mdl = self.model
        return lambda t: model.loss_from_logits(
            mdl.forward(t, tokens, mode=LedgerMode.MEZO)[0], targets)

    def _steps(self) -> tuple[list[float], list[float], int, int, list[float]]:
        tokens, targets = self.task.batch(range(self.cfg.batch_size))
        loss_fn = self._loss_fn(tokens, targets)
        bp_fn = lambda t: self.model.backward(t, tokens, targets)
        clock = time.perf_counter
        mezo_ms, bp_ms, losses = [], [], []
        attempted = 1 + STEP_MID_BP_PER_MEZO
        failed = 0
        t0 = clock()
        try:
            _, report = zo.mezo_step(loss_fn, self.theta_mezo, self.zo_cfg, self.step_index)
            mezo_ms.append(1e3 * (clock() - t0))
            losses += [v for pair in report.losses for v in pair]
        except (zo.NonfiniteLossError, zo.NonfiniteGradError):
            failed += 1
        self.step_index += 1
        for _ in range(STEP_MID_BP_PER_MEZO):
            t0 = clock()
            try:
                zo.bp_sgd_step(bp_fn, self.theta_bp, STEP_MID_BP_LR)
                bp_ms.append(1e3 * (clock() - t0))
            except (zo.NonfiniteLossError, zo.NonfiniteGradError):
                failed += 1
        # the loss after the update, outside any step; bp_sgd_step itself
        # raises on a non-finite loss or gradient
        losses.append(loss_fn(self.theta_mezo))
        return mezo_ms, bp_ms, attempted, failed, losses

    def warm(self) -> None:
        self._steps()

    def job(self, run_job) -> JobResult:
        t0 = time.perf_counter()
        mezo_ms, bp_ms, attempted, failed, losses = run_job(self._steps)
        wall = time.perf_counter() - t0
        return JobResult(wall, mezo_ms, bp_ms,
                         {"mezo": len(mezo_ms), "bp": len(bp_ms)},
                         {"mezo": sum(mezo_ms) / 1e3, "bp": sum(bp_ms) / 1e3},
                         attempted, failed,
                         {"losses_finite": bool(np.all(np.isfinite(losses)))})

    def check(self, jobs: list[JobResult]) -> dict[str, bool]:
        return {
            "steps_ok": all(j.failed == 0 for j in jobs),
            "losses_finite": all(j.notes["losses_finite"] for j in jobs),
        }

    def memory_pass(self) -> dict[str, float]:
        tokens, targets = self.task.batch(range(self.cfg.batch_size))
        loss_fn = self._loss_fn(tokens, targets)
        theta_m, theta_b = self.theta_mezo.copy(), self.theta_bp.copy()
        wide = self.cfg.replace(bytes_per_param=MEASURED_BYTES_PER_PARAM)
        return {
            "mezo_peak_bytes": peak_bytes(
                lambda: zo.mezo_step(loss_fn, theta_m, self.zo_cfg, self.step_index)),
            "bp_peak_bytes": peak_bytes(lambda: zo.bp_sgd_step(
                lambda t: self.model.backward(t, tokens, targets), theta_b, STEP_MID_BP_LR)),
            "mezo_analytic_acts": mezo_memory(wide).activations_bytes,
            "bp_analytic_acts": activation_bytes(wide),
        }


WORKLOADS = {w.name: w for w in (TrainMatched, StepMid)}
