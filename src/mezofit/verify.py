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

from mezofit.memory import ModelConfig
from mezofit.model import ToyTransformer, loss_from_logits
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

MAX_VERIFY_DIM = 4096

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


def check_restoration(dim: int = 64, seeds: int = 1000, epsilon: float = 1e-3,
                      seed: int = 0) -> CheckResult:
    """Theta must be bit-identical after every directional-derivative call."""
    rng = np.random.default_rng(seed)
    theta = _flat(rng.standard_normal(dim))
    before = theta.values.tobytes()

    def loss(t):
        return float(0.5 * t.values @ t.values)

    failures = 0
    for s in range(seeds):
        spsa_directional_derivative(loss, theta, PerturbationSeed(s, 0), epsilon)
        if theta.values.tobytes() != before:
            failures += 1
            theta = _flat(np.frombuffer(before).copy())
    return CheckResult(
        "restoration", failures == 0,
        f"{seeds - failures}/{seeds} seeds restored theta bitwise")


def check_quadratic_unbiasedness(dim: int = 6, directions: int = 120_000,
                                 epsilon: float = 1e-3, seed: int = 0,
                                 tol: float = 0.02) -> CheckResult:
    """E[g * z] equals Q theta for the quadratic 0.5 theta^T Q theta."""
    dim = min(dim, 8)
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    q = m + m.T
    theta = _flat(rng.standard_normal(dim))

    def loss(t):
        return float(0.5 * t.values @ q @ t.values)

    acc = np.zeros(dim)
    base = step_seed(seed, 0)
    for i in range(directions):
        s = PerturbationSeed(base, i)
        g = spsa_directional_derivative(loss, theta, s, epsilon)
        acc += g * generate_noise(s, dim)
    estimate = acc / directions
    target = q @ theta.values
    rel = float(np.linalg.norm(estimate - target) / np.linalg.norm(target))
    return CheckResult(
        "quadratic_unbiasedness", rel < tol,
        f"relative error {rel:.4f} over {directions} directions (tolerance {tol})")


def check_fd_gradient(ncoords: int = 200, step: float = 1e-5, seed: int = 0,
                      tol: float = 1e-5) -> CheckResult:
    """Hand-written backward vs. central finite differences on the toy model."""
    model = ToyTransformer(FD_CONFIG)
    params = model.init_params(seed)
    task = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, FD_CONFIG.vocab_size,
                   FD_CONFIG.context_length, seed=seed)
    tokens, targets = task.batch(range(FD_CONFIG.batch_size))
    grad, _ = model.backward(params, tokens, targets)

    rng = np.random.default_rng(seed + 1)
    coords = rng.choice(len(params), size=min(ncoords, len(params)), replace=False)
    worst = 0.0
    for i in coords:
        orig = params.values[i]
        params.values[i] = orig + step
        lp = loss_from_logits(model.forward(params, tokens)[0], targets)
        params.values[i] = orig - step
        lm = loss_from_logits(model.forward(params, tokens)[0], targets)
        params.values[i] = orig
        fd = (lp - lm) / (2 * step)
        rel = abs(fd - grad.values[i]) / max(abs(fd), abs(grad.values[i]), 1e-10)
        worst = max(worst, rel)
    return CheckResult(
        "fd_gradient", worst < tol,
        f"worst relative error {worst:.3e} over {len(coords)} coordinates "
        f"(tolerance {tol})")


def check_cosine_positivity(dim: int = 64, trials: int = 200, n: int = 5,
                            epsilon: float = 1e-3, seed: int = 0,
                            threshold: float = 0.95) -> CheckResult:
    """The n-averaged update direction must align with -grad almost always."""
    dim = min(dim, 64)
    rng = np.random.default_rng(seed)

    def loss(t):
        return float(np.sum(np.log(np.cosh(t.values))))

    positives = 0
    for trial in range(trials):
        theta = _flat(rng.standard_normal(dim) * 2.0)
        true_grad = np.tanh(theta.values)
        before = theta.values.copy()
        cfg = ZOConfig(epsilon=epsilon, learning_rate=1.0, num_perturbations=n,
                       master_seed=seed * 1_000_003 + trial)
        mezo_step(loss, theta, cfg, 0)
        update = theta.values - before  # equals -(1/n) sum g_i z_i
        cos = float(update @ (-true_grad)
                    / (np.linalg.norm(update) * np.linalg.norm(true_grad)))
        if cos > 0:
            positives += 1
    rate = positives / trials
    return CheckResult(
        "cosine_positivity", rate > threshold,
        f"positive-alignment rate {rate:.3f} over {trials} trials "
        f"(threshold {threshold})")


def run_verification(dim: int = 64, seed: int = 0,
                     epsilon: float = 1e-3) -> list[CheckResult]:
    """The full check battery used by the CLI. dim caps the flat test vector."""
    if not 1 <= dim <= MAX_VERIFY_DIM:
        raise ValueError(f"dim must be in [1, {MAX_VERIFY_DIM}], got {dim}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    ZOConfig(epsilon=epsilon)  # reject invalid epsilon up front
    return [
        check_restoration(dim=dim, seeds=1000, epsilon=epsilon, seed=seed),
        check_quadratic_unbiasedness(dim=min(dim, 6), epsilon=epsilon, seed=seed),
        check_fd_gradient(seed=seed),
        check_cosine_positivity(dim=dim, epsilon=epsilon, seed=seed),
    ]
