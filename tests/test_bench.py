import json
import math
import re
import sys
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from mezofit.bench import (
    CSV_COLUMNS,
    EVAL_SEQUENCES,
    ExperimentPlan,
    RunRecord,
    emit_csv,
    run_experiment,
    steps_to_fraction_of_plateau,
    summarize,
)
from mezofit.memory import ConfigError, MemoryMode, ModelConfig, memory_for_mode
from mezofit.model import LedgerMode, ToyTransformer, loss_from_logits
from mezofit.tasks import TaskKind, ToyTask
from mezofit.zo import ZOConfig, mezo_step

BP_CFG = ModelConfig(context_length=6, num_layers=1, hidden_dim=8, num_heads=2,
                     vocab_size=16, batch_size=8)
MEZO_CFG = ModelConfig(context_length=6, num_layers=2, hidden_dim=16, num_heads=2,
                       vocab_size=16, batch_size=8, stored_layers=0.2)
TASK = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, vocab_size=16, seq_len=6, seed=3)


def parse_csv(text: str) -> list[RunRecord]:
    """The records of an `emit_csv` text, in its order."""
    lines = text.strip().split("\n")
    if lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError("unexpected CSV header")
    records = []
    for line in lines[1:]:
        method, lr, step, wall, loss, acc, rmax = line.split(",")
        records.append(RunRecord(method, float(lr), int(step), float(wall),
                                 float(loss), float(acc), float(rmax)))
    return records


def make_plan(**overrides) -> ExperimentPlan:
    fields = dict(
        budget_bytes=max(memory_for_mode(BP_CFG, MemoryMode.BP).total_bytes,
                         memory_for_mode(MEZO_CFG, MemoryMode.MEZO).total_bytes),
        bp_model=BP_CFG,
        mezo_model=MEZO_CFG,
        task=TASK,
        steps=6,
        eval_every=3,
        lr_grid_bp=(0.5,),
        lr_grid_mezo=(1e-3,),
        zo=ZOConfig(epsilon=1e-3, num_perturbations=2, master_seed=5),
        run_seed=99,
    )
    fields.update(overrides)
    return ExperimentPlan(**fields)


# ---------------------------------------------------------------------------
# plan validation
# ---------------------------------------------------------------------------

def test_a_plan_without_a_budget_takes_the_larger_total():
    assert make_plan(budget_bytes=None).budget_bytes == make_plan().budget_bytes


def test_plan_totals_are_matched():
    plan = make_plan()
    bp_total = memory_for_mode(plan.bp_model, MemoryMode.BP).total_bytes
    mz_total = memory_for_mode(plan.mezo_model, MemoryMode.MEZO).total_bytes
    assert max(bp_total, mz_total) <= plan.budget_bytes
    assert max(bp_total, mz_total) / min(bp_total, mz_total) <= 1.15


@pytest.mark.parametrize("budget", ["26624", math.inf, math.nan, 0.0, -1.0, True, 10 ** 400],
                         ids=["str", "inf", "nan", "zero", "negative", "bool", "int-1e400"])
def test_plan_refuses_a_budget_that_is_not_a_positive_real_number(budget):
    with pytest.raises(ConfigError, match="^budget_bytes must be"):
        make_plan(budget_bytes=budget)


@pytest.mark.parametrize("real", [np.float32, np.float64, Fraction, int],
                         ids=lambda real: real.__name__)
def test_plan_stores_a_budget_of_any_real_type_as_its_float(real):
    budget = make_plan().budget_bytes
    assert float(real(budget)) == budget  # the default budget is a whole number
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = make_plan(budget_bytes=real(budget))
    assert type(plan.budget_bytes) is float and plan.budget_bytes == budget


def test_plan_rejects_budget_violation():
    with pytest.raises(ConfigError, match="matched-budget"):
        make_plan(budget_bytes=1000.0)


def test_plan_rejects_mismatched_totals():
    small = MEZO_CFG.replace(stored_layers=2.0)  # inflates the MeZO total
    budget = max(memory_for_mode(BP_CFG, MemoryMode.BP).total_bytes,
                 memory_for_mode(small, MemoryMode.MEZO).total_bytes)
    with pytest.raises(ConfigError, match="differ by more than"):
        make_plan(mezo_model=small, budget_bytes=budget)


def test_plan_requires_larger_mezo_model():
    with pytest.raises(ConfigError, match="strictly more parameters"):
        make_plan(mezo_model=BP_CFG.replace(stored_layers=0.0),
                  bp_model=MEZO_CFG.replace(stored_layers=0.0),
                  budget_bytes=1e12)


@pytest.mark.parametrize("grid", ["lr_grid_bp", "lr_grid_mezo"])
def test_plan_refuses_a_learning_rate_past_the_largest_float(grid):
    # an int rate compares below inf but overflows the float update
    with pytest.raises(ConfigError, match=grid):
        make_plan(**{grid: (0.5, 10 ** 400)})


@pytest.mark.parametrize("grid", ["lr_grid_bp", "lr_grid_mezo"])
@pytest.mark.parametrize("rate", [True, Decimal("0.5"), "0.5"], ids=["bool", "decimal", "str"])
def test_plan_refuses_a_learning_rate_that_is_not_a_real_number(grid, rate):
    # refused as the plan is built, so no run trains before it fails
    with pytest.raises(ConfigError, match=grid):
        make_plan(**{grid: (0.5, rate)})


_WIDE = np.finfo(np.longdouble).max > sys.float_info.max  # x86's 80-bit extended


@pytest.mark.parametrize("grid", ["lr_grid_bp", "lr_grid_mezo"])
@pytest.mark.parametrize("rate", [np.float16(0.25), np.float32(0.25), np.float64(0.25),
                                  np.int64(1), *([np.longdouble(0.25)] if _WIDE else [])],
                         ids=lambda rate: type(rate).__name__)
def test_a_numpy_rate_of_any_width_builds_a_plan_without_a_warning(grid, rate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = make_plan(**{grid: (rate,)})
    assert getattr(plan, grid) == (float(rate),)


@pytest.mark.skipif(not _WIDE, reason="longdouble is no wider than float64 here")
@pytest.mark.parametrize("grid", ["lr_grid_bp", "lr_grid_mezo"])
def test_plan_refuses_a_longdouble_rate_past_the_largest_float(grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=grid):
            make_plan(**{grid: (0.5, np.longdouble(sys.float_info.max) * 2)})


def matched_pair_plan(bp_batch: int, mezo_batch: int, steps: int,
                      mezo_stored_layers: float = 0.25) -> ExperimentPlan:
    """A plan over the matched pair of perfbench/train_matched.ini, at its
    budget of 26,624 B, with the given batch sizes and MeZO stored layers."""
    mezo = ModelConfig(context_length=8, num_layers=1, hidden_dim=16, num_heads=2,
                       vocab_size=8, batch_size=mezo_batch,
                       stored_layers=mezo_stored_layers)
    bp = mezo.replace(context_length=4, hidden_dim=8, batch_size=bp_batch, stored_layers=1.0)
    task = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, vocab_size=8, seq_len=8, seed=0)
    return make_plan(steps=steps, bp_model=bp, mezo_model=mezo, task=task,
                     budget_bytes=26624.0)


@pytest.mark.parametrize("bp_batch, mezo_batch", [(16, 16), (16, 8), (8, 16)])
def test_plan_refuses_train_samples_that_reach_the_eval_split(bp_batch, mezo_batch):
    # train indices are [0, 2^40); a run draws steps * batch_size of them.
    plan = lambda steps: matched_pair_plan(bp_batch, mezo_batch, steps)
    if bp_batch == mezo_batch:
        assert plan(2 ** 40 // 16).steps == 2 ** 40 // 16
    steps = 2 ** 40 // 16 + 1
    with pytest.raises(ConfigError, match=re.escape(
            f"steps * batch_size = {steps} * 16 train samples is more than the "
            f"{2 ** 40} train indices")):
        plan(steps)


@pytest.mark.parametrize("bp_grid, mezo_grid", [
    ((np.float64(0.5), np.float64(0.25)), (np.float64(1e-3),)),
    ((Fraction(1, 2),), (Fraction(1, 1000), Fraction(1, 3))),
], ids=["numpy", "fraction"])
def test_rates_of_any_real_type_round_trip_through_the_csv_and_json(bp_grid, mezo_grid):
    # a numpy float printed as np.float64(0.5) and a Fraction's repr holds a comma
    plan = make_plan(steps=2, eval_every=1, lr_grid_bp=bp_grid, lr_grid_mezo=mezo_grid)
    assert plan.lr_grid_bp == tuple(float(lr) for lr in bp_grid)
    assert plan.lr_grid_mezo == tuple(float(lr) for lr in mezo_grid)
    assert all(type(lr) is float for lr in plan.lr_grid_bp + plan.lr_grid_mezo)
    result = run_experiment(plan)
    records = result.all_records()
    parsed = parse_csv(emit_csv(records))
    assert parsed == sorted(records, key=lambda r: (r.method, r.learning_rate, r.step))
    summary = json.loads(json.dumps(summarize(result)))
    assert summary["methods"]["bp"]["best_learning_rate"] in plan.lr_grid_bp


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

def capture_step_batches(monkeypatch) -> list:
    """Wrap `ToyTransformer.loss_fn` and `backward` so that each records what
    it is handed: (call, model config, tokens, targets)."""
    seen = []
    real_loss_fn, real_backward = ToyTransformer.loss_fn, ToyTransformer.backward

    def loss_fn(self, tokens, targets):
        seen.append(("loss_fn", self.cfg, tokens, targets))
        return real_loss_fn(self, tokens, targets)

    def backward(self, params, tokens, targets):
        seen.append(("backward", self.cfg, tokens, targets))
        return real_backward(self, params, tokens, targets)

    monkeypatch.setattr(ToyTransformer, "loss_fn", loss_fn)
    monkeypatch.setattr(ToyTransformer, "backward", backward)
    return seen


def per_step_batches(plan: ExperimentPlan) -> list:
    """What each run of the plan is handed when every step draws its own
    batch: the probe loss binds step 0's batch, then each step's batch goes
    to `backward` (BP) or `loss_fn` (MeZO), cropped to the model's window."""
    expected = []
    for method, grid, cfg in (("bp", plan.lr_grid_bp, plan.bp_model),
                              ("mezo", plan.lr_grid_mezo, plan.mezo_model)):
        B, window = cfg.batch_size, min(cfg.context_length, plan.task.seq_len)

        def drawn(step):
            tokens, targets = plan.task.batch(range(step * B, (step + 1) * B))
            return tokens[:, -window:], targets[:, -window:]

        call = "backward" if method == "bp" else "loss_fn"
        for _ in grid:
            expected.append(("loss_fn", cfg, *drawn(0)))
            expected += [(call, cfg, *drawn(step)) for step in range(plan.steps)]
    return expected


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("plan", [
    *(pytest.param(lambda kind=kind: make_plan(task=ToyTask(kind, vocab_size=16, seq_len=7,
                                                            seed=3),
                                               lr_grid_bp=(0.5, 0.1)), id=kind.value)
      for kind in TaskKind),
    # MeZO at batch 8 stores half a layer, so its total stays at the 26,624 B budget
    pytest.param(lambda: matched_pair_plan(16, 8, steps=5, mezo_stored_layers=0.5),
                 id="bp16-mezo8"),
    pytest.param(lambda: make_plan(steps=0), id="zero-steps"),
])
def test_every_run_trains_on_the_batches_per_step_draws_give(monkeypatch, plan):
    plan = plan()
    expected = per_step_batches(plan)
    seen = capture_step_batches(monkeypatch)
    result = run_experiment(plan)
    assert not any(run.failed for run in result.runs)
    assert len(seen) == len(expected)
    for (call, cfg, tokens, targets), (want_call, want_cfg, want_tokens, want_targets) \
            in zip(seen, expected):
        assert (call, cfg) == (want_call, want_cfg)
        assert same_bits(tokens, want_tokens) and same_bits(targets, want_targets)


@pytest.mark.parametrize("steps, bp_rates, mezo_rates", [(0, 1, 1), (1, 2, 1), (7, 1, 3)])
def test_an_experiment_draws_its_data_in_two_batch_calls_and_steps_cannot_write_it(
        monkeypatch, steps, bp_rates, mezo_rates):
    plan = make_plan(steps=steps, lr_grid_bp=(0.5, 0.1)[:bp_rates],
                     lr_grid_mezo=(1e-3, 1e-4, 1e-5)[:mezo_rates])
    splits = []
    real_batch = ToyTask.batch

    def counting_batch(self, indices, split="train"):
        splits.append(split)
        return real_batch(self, indices, split)

    monkeypatch.setattr(ToyTask, "batch", counting_batch)
    seen = capture_step_batches(monkeypatch)
    run_experiment(plan)
    assert sorted(splits) == ["eval", "train"]  # the training stream and the eval set
    assert len(seen) == (bp_rates + mezo_rates) * (steps + 1)
    for _, _, tokens, targets in seen:
        for array in (tokens, targets):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0


def test_zero_steps_gives_only_initial_evaluation():
    result = run_experiment(make_plan(steps=0))
    for run in result.runs:
        assert [r.step for r in run.records] == [0]
        assert not run.failed


def test_identical_plans_are_deterministic_except_wall_clock():
    a = run_experiment(make_plan())
    b = run_experiment(make_plan())
    ra, rb = a.all_records(), b.all_records()
    assert len(ra) == len(rb)
    for x, y in zip(ra, rb):
        assert (x.method, x.learning_rate, x.step) == (y.method, y.learning_rate, y.step)
        assert x.train_loss == y.train_loss
        assert x.eval_accuracy == y.eval_accuracy
        assert x.running_max_accuracy == y.running_max_accuracy


def test_running_max_is_prefix_max_and_nondecreasing():
    result = run_experiment(make_plan(steps=9, eval_every=3))
    for run in result.runs:
        best = 0.0
        for rec in run.records:
            best = max(best, rec.eval_accuracy)
            assert rec.running_max_accuracy == best
        steps = [r.step for r in run.records]
        assert steps == sorted(steps)
        assert steps[0] == 0 and steps[-1] == 9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_run_fails_without_aborting_siblings():
    # rms-norms keep activations bounded at moderate blowups, so force an
    # immediate float overflow in the FFN cube
    result = run_experiment(make_plan(lr_grid_bp=(1e150, 0.5)))
    exploded = [r for r in result.runs if r.method == "bp" and r.learning_rate == 1e150]
    healthy = [r for r in result.runs if r.method == "bp" and r.learning_rate == 0.5]
    assert exploded[0].failed and "step" in exploded[0].fail_reason
    assert not healthy[0].failed
    assert result.best_run("bp").learning_rate == 0.5
    assert not result.best_run("mezo").failed


def test_evaluation_uses_held_out_split():
    plan = make_plan()
    eval_tokens, _ = plan.task.eval_batch(EVAL_SEQUENCES)
    train_tokens, _ = plan.task.batch(range(plan.steps * plan.bp_model.batch_size))
    eval_set = {t.tobytes() for t in eval_tokens}
    # sampling is index-partitioned; rare content collisions do not matter at
    # this size but identical sets would mean the split leaked
    assert len(eval_set - {t.tobytes() for t in train_tokens}) > 0


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_emit_csv_single_record():
    rec = RunRecord("bp", 0.5, 0, 0.1, 2.5, 0.25, 0.25)
    text = emit_csv([rec])
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == ("method,learning_rate,step,wall_clock_s,train_loss,"
                        "eval_accuracy,running_max_accuracy")


def test_emit_csv_round_trip():
    result = run_experiment(make_plan())
    records = result.all_records()
    parsed = parse_csv(emit_csv(records))
    assert parsed == sorted(records, key=lambda r: (r.method, r.learning_rate, r.step))


def test_emit_csv_sorted_and_lf_only():
    records = [RunRecord("mezo", 1e-3, 3, 0.2, 1.0, 0.5, 0.5),
               RunRecord("bp", 0.5, 0, 0.1, 2.0, 0.1, 0.1),
               RunRecord("bp", 0.1, 0, 0.1, 2.0, 0.2, 0.2)]
    text = emit_csv(records)
    assert "\r" not in text
    rows = [line.split(",")[:2] for line in text.strip().split("\n")[1:]]
    assert rows == [["bp", "0.1"], ["bp", "0.5"], ["mezo", "0.001"]]


def test_emit_csv_rejects_empty():
    with pytest.raises(ValueError):
        emit_csv([])


def test_running_max_column_matches_prefix_max_oracle():
    result = run_experiment(make_plan(steps=9, eval_every=3))
    parsed = parse_csv(emit_csv(result.all_records()))
    by_run: dict = {}
    for r in parsed:
        by_run.setdefault((r.method, r.learning_rate), []).append(r)
    for records in by_run.values():
        prefix = np.maximum.accumulate([r.eval_accuracy for r in records])
        assert [r.running_max_accuracy for r in records] == list(prefix)


# ---------------------------------------------------------------------------
# summaries and timing sanity
# ---------------------------------------------------------------------------

def test_summarize_reports_best_per_method():
    result = run_experiment(make_plan(lr_grid_bp=(0.5, 1e-7)))
    summary = summarize(result)
    assert set(summary["methods"]) == {"bp", "mezo"}
    bp = summary["methods"]["bp"]
    assert bp["best_learning_rate"] in (0.5, 1e-7)
    assert 0.0 <= bp["final_running_max_accuracy"] <= 1.0
    assert bp["cpu_time_s"] > 0


def test_steps_to_fraction_of_plateau():
    recs = [RunRecord("bp", 0.5, s, 0.0, 0.0, a, m)
            for s, a, m in [(0, 0.1, 0.1), (3, 0.5, 0.5), (6, 0.9, 0.9), (9, 0.88, 0.9)]]
    assert steps_to_fraction_of_plateau(recs) == 6  # the first running max >= 0.9 * 0.9


def test_mezo_step_time_within_forward_pass_band():
    # one MeZO step runs 2n forwards plus bounded bookkeeping; measure on a
    # model large enough that a forward dominates fixed per-step overhead
    cfg = ModelConfig(context_length=16, num_layers=2, hidden_dim=32,
                      num_heads=4, vocab_size=64, batch_size=8)
    task = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, vocab_size=64, seq_len=16, seed=0)
    model = ToyTransformer(cfg)
    theta = model.init_params(0)
    tokens, targets = task.batch(range(cfg.batch_size))

    def loss_fn(t):
        return loss_from_logits(model.forward(t, tokens, mode=LedgerMode.MEZO)[0],
                                targets)

    n = 5
    zc = ZOConfig(learning_rate=1e-3, num_perturbations=n, master_seed=1)
    loss_fn(theta)  # warm up
    # time 2n forwards and one step in turn, so both see the same load on a
    # shared machine, and compare the medians
    forward_times, step_times = [], []
    for s in range(10):
        t0 = time.perf_counter()
        for _ in range(2 * n):
            loss_fn(theta)
        forward_times.append((time.perf_counter() - t0) / (2 * n))
        t0 = time.perf_counter()
        mezo_step(loss_fn, theta, zc, s)
        step_times.append(time.perf_counter() - t0)
    forward_time = float(np.median(forward_times))
    step_time = float(np.median(step_times))
    assert forward_time * 1 <= step_time <= forward_time * 4 * n
