"""Estimator and gradient verification checks.

These are the invariant suites behind the `verify` CLI command: bitwise
parameter restoration, unbiasedness of the projected-gradient estimator at
quadratics, agreement of the hand-written transformer backward pass with
central finite differences, and positive alignment of the averaged update
direction with the true gradient. Each check returns a CheckResult so
callers can render pass/fail lines.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mezofit.memory import ModelConfig, int_setting, real_setting
from mezofit.model import ToyTransformer
from mezofit.tasks import ToyTask, TaskKind
from mezofit.zo import (
    ParameterVector,
    PerturbationSeed,
    Segment,
    ZOConfig,
    generate_noise,
    mezo_step,
    spsa_directional_derivative,
    step_seed,
)

MAX_VERIFY_DIM, RESTORE_DIM = 4096, 64  # the restoration vector's bound and default size
SEED, EPSILON = 0, 1e-3  # the battery's default seed and perturbation scale

# The battery's fixed spec. Callers choose only epsilon, the seed, the
# restoration vector's length and the quadratic check's direction count.
RESTORATION_SEEDS = 1000
QUADRATIC_DIM, QUADRATIC_TOL = 6, 0.02
FD_COORDS, FD_STEP, FD_TOL = 200, 1e-5, 1e-5  # coordinates of FD_CONFIG's model
COSINE_DIM, COSINE_TRIALS, COSINE_DIRECTIONS, COSINE_THRESHOLD = 64, 200, 5, 0.95

# the finite-difference reference instance
FD_CONFIG = ModelConfig(context_length=8, num_layers=2, hidden_dim=16,
                        num_heads=4, vocab_size=32, batch_size=2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _flat(values: np.ndarray) -> ParameterVector:
    return ParameterVector(values, (Segment("w", 0, values.size),))


def check_restoration(dim: int = RESTORE_DIM, epsilon: float = EPSILON,
                      seed: int = SEED) -> CheckResult:
    """Theta must be bit-identical after every directional-derivative call."""
    rng = np.random.default_rng(seed)
    theta = _flat(rng.standard_normal(dim))
    before = theta.values.tobytes()

    def loss(t):
        return float(0.5 * t.values @ t.values)

    failures = 0
    for s in range(RESTORATION_SEEDS):
        spsa_directional_derivative(loss, theta, PerturbationSeed(s, 0), epsilon)
        if theta.values.tobytes() != before:
            failures += 1
            theta = _flat(np.frombuffer(before).copy())
    return CheckResult(
        "restoration", failures == 0,
        f"{RESTORATION_SEEDS - failures}/{RESTORATION_SEEDS} seeds restored theta bitwise")


def check_quadratic_unbiasedness(directions: int = 120_000, epsilon: float = EPSILON,
                                 seed: int = SEED) -> CheckResult:
    """E[g * z] equals Q theta for the quadratic 0.5 theta^T Q theta."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((QUADRATIC_DIM, QUADRATIC_DIM))
    q = m + m.T
    theta = _flat(rng.standard_normal(QUADRATIC_DIM))

    def loss(t):  # float(0.5 * v @ q @ v) bit for bit, as the README's notes show
        return 0.5 * float(t.values.dot(q).dot(t.values))

    acc = np.zeros(QUADRATIC_DIM)
    base = step_seed(seed, 0)
    for i in range(directions):
        s = PerturbationSeed(base, i)
        g = spsa_directional_derivative(loss, theta, s, epsilon)
        acc += g * generate_noise(s, QUADRATIC_DIM)
    estimate = acc / directions
    target = q @ theta.values
    rel = float(np.linalg.norm(estimate - target) / np.linalg.norm(target))
    return CheckResult(
        "quadratic_unbiasedness", rel < QUADRATIC_TOL,
        f"relative error {rel:.4f} over {directions} directions (tolerance {QUADRATIC_TOL})")


def check_fd_gradient(seed: int = SEED) -> CheckResult:
    """Hand-written backward vs. central finite differences on the toy model."""
    model = ToyTransformer(FD_CONFIG)
    params = model.init_params(seed)
    task = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, FD_CONFIG.vocab_size,
                   FD_CONFIG.context_length, seed=seed)
    tokens, targets = task.batch(range(FD_CONFIG.batch_size))
    grad, _ = model.backward(params, tokens, targets)
    loss = model.loss_fn(tokens, targets)

    rng = np.random.default_rng(seed + 1)
    coords = rng.choice(len(params), size=FD_COORDS, replace=False)
    worst = 0.0
    for i in coords:
        orig = params.values[i]
        params.values[i] = orig + FD_STEP
        lp = loss(params)
        params.values[i] = orig - FD_STEP
        lm = loss(params)
        params.values[i] = orig
        fd = (lp - lm) / (2 * FD_STEP)
        rel = abs(fd - grad.values[i]) / max(abs(fd), abs(grad.values[i]), 1e-10)
        worst = max(worst, rel)
    return CheckResult(
        "fd_gradient", worst < FD_TOL,
        f"worst relative error {worst:.3e} over {len(coords)} coordinates "
        f"(tolerance {FD_TOL})")


def check_cosine_positivity(epsilon: float = EPSILON, seed: int = SEED) -> CheckResult:
    """The COSINE_DIRECTIONS-averaged update must align with -grad almost always."""
    rng = np.random.default_rng(seed)

    def loss(t):
        return float(np.sum(np.log(np.cosh(t.values))))

    positives = 0
    for trial in range(COSINE_TRIALS):
        theta = _flat(rng.standard_normal(COSINE_DIM) * 2.0)
        true_grad = np.tanh(theta.values)
        before = theta.values.copy()
        cfg = ZOConfig(epsilon=epsilon, learning_rate=1.0,
                       num_perturbations=COSINE_DIRECTIONS,
                       master_seed=seed * 1_000_003 + trial)
        mezo_step(loss, theta, cfg, 0)
        update = theta.values - before  # equals -(1/n) sum g_i z_i
        cos = float(update @ (-true_grad)
                    / (np.linalg.norm(update) * np.linalg.norm(true_grad)))
        if cos > 0:
            positives += 1
    rate = positives / COSINE_TRIALS
    return CheckResult(
        "cosine_positivity", rate > COSINE_THRESHOLD,
        f"positive-alignment rate {rate:.3f} over {COSINE_TRIALS} trials "
        f"(threshold {COSINE_THRESHOLD})")


def run_verification(dim: int = RESTORE_DIM, seed: int = SEED,
                     epsilon: float = EPSILON) -> list[CheckResult]:
    """The full check battery used by the CLI. `dim` sizes the restoration
    check's vector only; the other checks run at their fixed spec."""
    dim = int_setting("dim", dim, 1, MAX_VERIFY_DIM)  # these three before any check runs
    seed = int_setting("seed", seed, 0)
    epsilon = real_setting("epsilon", epsilon, positive=True)
    return [
        check_restoration(dim=dim, epsilon=epsilon, seed=seed),
        check_quadratic_unbiasedness(epsilon=epsilon, seed=seed),
        check_fd_gradient(seed=seed),
        check_cosine_positivity(epsilon=epsilon, seed=seed),
    ]
