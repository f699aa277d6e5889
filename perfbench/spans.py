"""In-memory span tracing around calls into mezofit, and the per-layer
metrics derived from the spans.

A span is [name, start, end, parent index], with times from
time.perf_counter. Wrappers are installed by replacing module or class
attributes for the duration of one traced job and removed afterwards, so an
untraced job runs the program's own functions with nothing in between.
"""
from __future__ import annotations

import gzip
import time
from contextlib import contextmanager
from pathlib import Path

from mezofit import bench, model, tasks, verify, zo

STEP_SPANS = ("zo.mezo_step", "zo.bp_sgd_step")
# root span of one traced batch of verify.check_quadratic_unbiasedness
VERIFY_BATCH_SPAN = "verify.quadratic_batch"

# every per-layer metric a traced run reports, with its unit
LAYER_UNITS = {
    "tasks.batch.calls": "count",
    "tasks.batch.self_s": "s",
    "model.forward.calls": "count",
    "model.forward.us_per_call": "us",
    "model.backward.self_s": "s",
    "model.loss.self_s": "s",
    "zo.mezo_step.self_s": "s",
    "zo.gap_plus_s": "s",
    "zo.gap_minus_s": "s",
    "zo.tail_s": "s",
    "zo.loss_evals_per_step": "ratio",
    "zo.noise_share": "ratio",
    "zo.regen_ms": "ms",
    "zo.spsa.share": "ratio",
    "zo.spsa.us_per_call": "us",
    "bench.self_s": "s",
    "bench.eval_s": "s",
    "memory.mezo_peak_over_analytic_acts": "ratio",
    "memory.bp_peak_over_analytic_acts": "ratio",
    "configfile.parse_ms": "ms",
    "trace.overhead": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return traced

    def wrap_mezo_step(self, real):
        """mezo_step whose loss callback is traced as "zo.loss_fn" children,
        so the noise work between callbacks can be split by timestamps."""
        step = self.wrap(real, "zo.mezo_step")

        def traced(loss_fn, *args, **kwargs):
            return step(self.wrap(loss_fn, "zo.loss_fn"), *args, **kwargs)
        return traced

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn under a root span."""
        return self.wrap(fn, name)(*args, **kwargs)

    @contextmanager
    def installed(self, targets):
        """Replace each (owner, attribute) with its traced wrapper."""
        saved = []
        try:
            for owner, attr, make in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, make(orig))
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def layer_targets(self):
        """Boundaries of every layer a training job calls into."""
        named = lambda name: (lambda f: self.wrap(f, name))
        return [
            (tasks.ToyTask, "batch", named("tasks.batch")),
            (model.ToyTransformer, "forward", named("model.forward")),
            (model.ToyTransformer, "backward", named("model.backward")),
            (model, "loss_from_logits", named("model.loss")),
            (bench, "loss_from_logits", named("model.loss")),
            (zo, "mezo_step", self.wrap_mezo_step),
            (bench, "mezo_step", self.wrap_mezo_step),
            (zo, "bp_sgd_step", named("zo.bp_sgd_step")),
            (bench, "bp_sgd_step", named("zo.bp_sgd_step")),
        ]

    def verify_targets(self):
        return [(verify, "spsa_directional_derivative",
                 lambda f: self.wrap(f, "zo.spsa"))]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            f.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                f.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")


# ---------------------------------------------------------------------------
# derivation
# ---------------------------------------------------------------------------

def _mezo_gaps(step, losses):
    """Split one mezo_step span by its loss callbacks, which alternate
    +epsilon, -epsilon for each direction:

      gap_plus:  before each +eval (restore of the previous direction + the
                 +shift; for the first direction, the +shift alone)
      gap_minus: between the +eval and the -eval of a direction (the -shift)
      tail:      after the last -eval (its restore + the update)

    Returns (gap_plus, gap_minus, tail, residual) where residual is the span
    duration minus the callbacks and the three gaps."""
    _, start, end, _ = step
    plus = minus = 0.0
    prev = start
    for i, (_, s, e, _) in enumerate(losses):
        if i % 2 == 0:
            plus += s - prev
        else:
            minus += s - prev
        prev = e
    tail = end - prev
    evals = sum(e - s for _, s, e, _ in losses)
    return plus, minus, tail, (end - start) - (evals + plus + minus + tail)


def layer_metrics(spans: list[list], job_name: str) -> tuple[dict[str, float], float]:
    """Per-layer metrics of the traced jobs, per job, plus the spsa calls of
    the traced verify batches, and the largest mezo_step accounting residual.
    Self time is a span's duration minus its children."""
    n = len(spans)
    root = [0] * n
    in_step = [False] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for i, (name, _, _, parent) in enumerate(spans):
        if parent < 0:
            root[i] = i
        else:
            root[i] = root[parent]
            in_step[i] = in_step[parent]
            children[parent].append(i)
        if name in STEP_SPANS:
            in_step[i] = True

    dur = [s[2] - s[1] for s in spans]
    self_time = [dur[i] - sum(dur[c] for c in children[i]) for i in range(n)]
    jobs = [i for i in range(n) if spans[i][3] < 0 and spans[i][0] == job_name]
    if not jobs:
        raise ValueError(f"no traced {job_name!r} job")
    jobs_set = set(jobs)
    in_job = [root[i] in jobs_set for i in range(n)]

    def job_spans(name):
        return [i for i in range(n) if in_job[i] and spans[i][0] == name]

    per_job = len(jobs)
    batch = job_spans("tasks.batch")
    forward = job_spans("model.forward")
    steps = job_spans("zo.mezo_step")
    plus = minus = tail = residual = 0.0
    loss_calls = 0
    for i in steps:
        losses = [spans[c] for c in children[i] if spans[c][0] == "zo.loss_fn"]
        loss_calls += len(losses)
        p, m, t, r = _mezo_gaps(spans[i], losses)
        plus, minus, tail = plus + p, minus + m, tail + t
        residual = max(residual, abs(r))
    step_total = sum(dur[i] for i in steps)
    step_self = sum(self_time[i] for i in steps)
    spsa = [i for i in range(n) if spans[i][0] == "zo.spsa"]
    batches = [i for i in range(n) if spans[i][0] == VERIFY_BATCH_SPAN]

    metrics = {
        "tasks.batch.calls": len(batch) / per_job,
        "tasks.batch.self_s": sum(self_time[i] for i in batch) / per_job,
        "model.forward.calls": len(forward) / per_job,
        "model.forward.us_per_call": 1e6 * sum(dur[i] for i in forward) / max(len(forward), 1),
        "model.backward.self_s": sum(self_time[i] for i in job_spans("model.backward")) / per_job,
        "model.loss.self_s": sum(self_time[i] for i in job_spans("model.loss")) / per_job,
        "zo.mezo_step.self_s": step_self / per_job,
        "zo.gap_plus_s": plus / per_job,
        "zo.gap_minus_s": minus / per_job,
        "zo.tail_s": tail / per_job,
        "zo.loss_evals_per_step": loss_calls / max(len(steps), 1),
        "zo.noise_share": step_self / step_total if step_total else 0.0,
        "zo.spsa.share": sum(dur[i] for i in spsa) / max(sum(dur[i] for i in batches), 1e-12),
        "zo.spsa.us_per_call": 1e6 * sum(dur[i] for i in spsa) / max(len(spsa), 1),
        "bench.self_s": sum(self_time[i] for i in jobs) / per_job,
        "bench.eval_s": sum(dur[i] for i in forward if not in_step[i]) / per_job,
    }
    return metrics, residual
