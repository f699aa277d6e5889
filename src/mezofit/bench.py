"""Matched-budget fine-tuning benchmark: a larger MeZO model vs. a smaller
BP model whose analytic memory totals both fit the same byte budget.

Runs a learning-rate grid per method on a synthetic task, evaluates on a
held-out split on a fixed cadence, and reports running-max accuracy curves.
All randomness derives from the plan's run_seed, so repeated runs produce
identical numbers except for the wall-clock fields.

An experiment draws its data once, before its first run: one read-only
training stream that every run slices step by step, steps * max(batch_size)
* seq_len * 16 bytes of int64 tokens and targets (819,200 B for the desk
plan), and one read-only eval set. So `wall_clock_s`, `wall_time_s` and
`cpu_time_s` count training and evaluation only, the same for both methods.
"""
from __future__ import annotations

import dataclasses
import io
import time
from dataclasses import dataclass, field

import numpy as np

from mezofit.memory import ConfigError, MemoryMode, ModelConfig, memory_for_mode, real_setting
from mezofit.model import ToyTransformer, loss_from_logits
from mezofit.tasks import EVAL_INDEX_BASE, ToyTask
from mezofit.zo import (
    NonfiniteGradError,
    NonfiniteLossError,
    ZOConfig,
    bp_sgd_step,
    mezo_step,
    splitmix64,
)

loss_from_logits = loss_from_logits  # unused here; perfbench's tracer wraps it

EVAL_SEQUENCES = 128  # held-out split size, fixed for determinism
BUDGET_MATCH_TOLERANCE = 0.15  # the two totals must agree within 15%
PLATEAU_FRACTION = 0.9  # the 90% of the summary's steps_to_90pct_of_plateau

CSV_COLUMNS = ("method", "learning_rate", "step", "wall_clock_s",
               "train_loss", "eval_accuracy", "running_max_accuracy")


@dataclass(frozen=True)
class ExperimentPlan:
    budget_bytes: float | None  # None: the larger of the two models' totals
    bp_model: ModelConfig
    mezo_model: ModelConfig
    task: ToyTask
    steps: int
    eval_every: int
    lr_grid_bp: tuple[float, ...]
    lr_grid_mezo: tuple[float, ...]
    zo: ZOConfig
    run_seed: int

    def __post_init__(self) -> None:
        if self.steps < 0 or self.eval_every < 1:
            raise ConfigError("steps must be >= 0 and eval_every >= 1")
        batch = max(self.bp_model.batch_size, self.mezo_model.batch_size)
        if self.steps * batch > EVAL_INDEX_BASE:  # train indices must stay below eval's
            raise ConfigError(
                f"steps * batch_size = {self.steps} * {batch} train samples is more "
                f"than the {EVAL_INDEX_BASE} train indices below the eval split")
        for name in ("lr_grid_bp", "lr_grid_mezo"):
            if not getattr(self, name):
                raise ConfigError(f"{name} needs at least one rate")
            # stored as floats: a numpy float or a Fraction would print as such in the CSV
            object.__setattr__(self, name, tuple(real_setting(name, lr, positive=False)
                                                 for lr in getattr(self, name)))
        bp_total = memory_for_mode(self.bp_model, MemoryMode.BP).total_bytes
        mezo_total = memory_for_mode(self.mezo_model, MemoryMode.MEZO).total_bytes
        budget = self.budget_bytes
        object.__setattr__(self, "budget_bytes", max(bp_total, mezo_total) if budget is None
                           else real_setting("budget_bytes", budget, positive=True))
        if not max(bp_total, mezo_total) <= self.budget_bytes:
            raise ConfigError(
                f"matched-budget violation: BP needs {bp_total:.4g} B and MeZO "
                f"{mezo_total:.4g} B against a budget of {self.budget_bytes:.4g} B")
        counts = {}
        for name, cfg in (("BP", self.bp_model), ("MeZO", self.mezo_model)):
            counts[name] = ToyTransformer(cfg).param_count()
            if counts[name] * cfg.bytes_per_param > self.budget_bytes:
                raise ConfigError(
                    f"matched-budget violation: the {name} model's {counts[name]} weights "
                    f"alone exceed the budget of {self.budget_bytes:.4g} B")
        if counts["MeZO"] <= counts["BP"]:
            raise ConfigError(
                "the MeZO model must have strictly more parameters than the BP model")
        if max(bp_total, mezo_total) / min(bp_total, mezo_total) > 1 + BUDGET_MATCH_TOLERANCE:
            raise ConfigError(
                f"matched-budget violation: totals {bp_total:.4g} B and "
                f"{mezo_total:.4g} B differ by more than "
                f"{BUDGET_MATCH_TOLERANCE:.0%}")
        probe_tokens, probe_targets = self.task.batch(range(1))
        for name, cfg in (("bp", self.bp_model), ("mezo", self.mezo_model)):
            _, cropped = _crop_to_window(cfg, probe_tokens, probe_targets)
            if not (cropped >= 0).any():
                raise ConfigError(
                    f"the {name} model's context window of {cfg.context_length} "
                    f"contains no defined target positions for this task")


@dataclass(frozen=True)
class RunRecord:
    method: str
    learning_rate: float
    step: int
    wall_clock_s: float
    train_loss: float
    eval_accuracy: float
    running_max_accuracy: float


@dataclass
class RunResult:
    method: str
    learning_rate: float
    records: list[RunRecord]
    failed: bool = False
    fail_reason: str | None = None
    cpu_time_s: float = 0.0
    wall_time_s: float = 0.0

    @property
    def final_running_max(self) -> float:
        return self.records[-1].running_max_accuracy if self.records else float("-inf")


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    runs: list[RunResult] = field(default_factory=list)

    def best_run(self, method: str) -> RunResult:
        candidates = [r for r in self.runs if r.method == method and not r.failed]
        if not candidates:
            raise ValueError(f"all {method} runs failed")
        # ties resolve to the earliest grid entry; order is deterministic
        return max(candidates, key=lambda r: r.final_running_max)

    def all_records(self) -> list[RunRecord]:
        return [rec for run in self.runs for rec in run.records]


def _eval_points(steps: int, eval_every: int) -> list[int]:
    points = list(range(0, steps + 1, eval_every))
    if points[-1] != steps:
        points.append(steps)
    return points


def run_experiment(plan: ExperimentPlan, progress: bool = False) -> ExperimentResult:
    """Train every (method, learning rate) combination in the plan.

    The data is drawn once, before the first run, and held read-only: the
    training stream of max(steps, 1) * max(batch_size) samples (steps *
    max(batch_size) * seq_len * 16 bytes, 819,200 B for the desk plan) and
    the eval set with its defined-target count. Samples are keyed by index,
    so step s of a run with batch size B trains on rows [s*B, (s+1)*B) of
    the stream, the bits `task.batch` gives for those indices; the probe
    loss binds step 0's rows. `wall_clock_s`, `wall_time_s` and `cpu_time_s`
    count training and evaluation only, the same for both methods."""
    batch = max(plan.bp_model.batch_size, plan.mezo_model.batch_size)
    stream = plan.task.batch(range(max(plan.steps, 1) * batch))
    eval_set = plan.task.eval_batch(EVAL_SEQUENCES)
    for array in (*stream, *eval_set):
        array.flags.writeable = False
    eval_total = int(np.count_nonzero(eval_set[1] >= 0))
    result = ExperimentResult(plan)
    for method, grid, cfg in (("bp", plan.lr_grid_bp, plan.bp_model),
                              ("mezo", plan.lr_grid_mezo, plan.mezo_model)):
        for lr in grid:
            result.runs.append(_run_single(plan, method, lr, cfg, stream,
                                           eval_set, eval_total, progress))
    return result


def _crop_to_window(cfg: ModelConfig, tokens: np.ndarray,
                    targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standard context truncation: a model sees the last context_length
    tokens of each sample."""
    window = min(cfg.context_length, tokens.shape[1])
    return tokens[:, -window:], targets[:, -window:]


def _run_single(plan: ExperimentPlan, method: str, lr: float, cfg: ModelConfig,
                stream: tuple[np.ndarray, np.ndarray],
                eval_set: tuple[np.ndarray, np.ndarray], eval_total: int,
                progress: bool) -> RunResult:
    model = ToyTransformer(cfg)
    init_seed = splitmix64(plan.run_seed ^ (0xB0 if method == "bp" else 0x2E0))
    theta = model.init_params(init_seed)
    B = cfg.batch_size

    def step_batch(step: int) -> tuple[np.ndarray, np.ndarray]:
        rows = slice(step * B, (step + 1) * B)
        return _crop_to_window(cfg, stream[0][rows], stream[1][rows])

    # a defined target outside the context window counts as wrong: the model cannot see it
    eval_window = _crop_to_window(cfg, *eval_set)
    probe_loss = model.loss_fn(*step_batch(0))

    eval_at = set(_eval_points(plan.steps, plan.eval_every))
    run = RunResult(method, lr, [])
    rmax = 0.0
    t0, c0 = time.perf_counter(), time.process_time()

    def evaluate(step: int) -> None:
        nonlocal rmax
        acc = model.correct(theta, *eval_window) / eval_total
        rmax = max(rmax, acc)
        train_loss = probe_loss(theta)
        run.records.append(RunRecord(method, lr, step,
                                     time.perf_counter() - t0, train_loss,
                                     acc, rmax))
        if progress:
            print(f"[{method} lr={lr:g}] step {step}: loss {train_loss:.4f} "
                  f"acc {acc:.3f} (max {rmax:.3f})", flush=True)

    evaluate(0)
    zo_cfg = dataclasses.replace(plan.zo, learning_rate=lr)
    for step in range(plan.steps):
        tokens, targets = step_batch(step)
        try:
            if method == "bp":
                bp_sgd_step(lambda t: model.backward(t, tokens, targets), theta, lr)
            else:
                mezo_step(model.loss_fn(tokens, targets), theta, zo_cfg, step)
        except (NonfiniteLossError, NonfiniteGradError) as exc:
            run.failed = True
            run.fail_reason = f"step {step}: {exc}"
            break
        if (step + 1) in eval_at:
            evaluate(step + 1)
    run.wall_time_s = time.perf_counter() - t0
    run.cpu_time_s = time.process_time() - c0
    return run


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def emit_csv(records) -> str:
    """Serialize records sorted by (method, learning_rate, step); floats use
    shortest round-trip decimal form, LF line endings."""
    records = sorted(records, key=lambda r: (r.method, r.learning_rate, r.step))
    if not records:
        raise ValueError("no records to emit")
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for r in records:
        out.write(f"{r.method},{r.learning_rate!r},{r.step},{r.wall_clock_s!r},"
                  f"{r.train_loss!r},{r.eval_accuracy!r},{r.running_max_accuracy!r}\n")
    return out.getvalue()


def steps_to_fraction_of_plateau(records: list[RunRecord]) -> int:
    """First evaluated step whose running max reaches `PLATEAU_FRACTION` of
    the final running max (the plateau)."""
    plateau = records[-1].running_max_accuracy
    for r in records:
        if r.running_max_accuracy >= PLATEAU_FRACTION * plateau:
            return r.step
    return records[-1].step


def summarize(result: ExperimentResult) -> dict:
    summary: dict = {"methods": {}}
    for method in ("bp", "mezo"):
        best = result.best_run(method)
        summary["methods"][method] = {
            "best_learning_rate": best.learning_rate,
            "final_running_max_accuracy": best.final_running_max,
            "steps_to_90pct_of_plateau": steps_to_fraction_of_plateau(best.records),
            "wall_time_s": best.wall_time_s,
            "cpu_time_s": best.cpu_time_s,
            "failed_runs": [r.learning_rate for r in result.runs
                            if r.method == method and r.failed],
        }
    return summary
