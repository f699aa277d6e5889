import tracemalloc

import numpy as np
import pytest

from mezofit import zo
from mezofit.memory import ConfigError, ModelConfig
from mezofit.model import LedgerMode, ToyTransformer, loss_from_logits
from mezofit.tasks import TaskKind, ToyTask
from mezofit.zo import (
    DEFAULT_CHUNK,
    NonfiniteGradError,
    NonfiniteLossError,
    ParameterVector,
    PerturbationSeed,
    Segment,
    StepReport,
    ZOConfig,
    bp_sgd_step,
    generate_noise,
    iter_noise_chunks,
    keyed_philox,
    mezo_step,
    release_philox,
    spsa_directional_derivative,
    step_seed,
)


def flat(values) -> ParameterVector:
    arr = np.asarray(values, dtype=np.float64)
    return ParameterVector(arr, (Segment("w", 0, arr.size),))


def quadratic(t: ParameterVector) -> float:
    return float(0.5 * np.sum(t.values ** 2))


# ---------------------------------------------------------------------------
# parameter vector
# ---------------------------------------------------------------------------

def test_parameter_vector_segments_tile_exactly():
    pv = ParameterVector.from_arrays([("a", np.ones((2, 3))), ("b", np.zeros(4))])
    assert len(pv) == 10
    assert pv.segment("a").size == 6
    assert pv.view("a", (2, 3)).shape == (2, 3)
    # views alias the flat storage
    pv.view("b", (4,))[0] = 7.0
    assert pv.values[6] == 7.0

    with pytest.raises(ValueError, match="contiguously"):
        ParameterVector(np.zeros(4), (Segment("a", 0, 2), Segment("b", 3, 1)))
    with pytest.raises(ValueError, match="cover"):
        ParameterVector(np.zeros(4), (Segment("a", 0, 2),))
    with pytest.raises(ValueError, match="unique"):
        ParameterVector(np.zeros(4), (Segment("a", 0, 2), Segment("a", 2, 2)))


# ---------------------------------------------------------------------------
# noise streams
# ---------------------------------------------------------------------------

def test_noise_replay_is_bitwise_identical():
    s = PerturbationSeed(987654321, 2)
    assert np.array_equal(generate_noise(s, 4096), generate_noise(s, 4096))


def test_noise_zero_length():
    assert generate_noise(PerturbationSeed(1, 0), 0).size == 0


def test_noise_chunked_equals_whole():
    s = PerturbationSeed(5, 1)
    whole = generate_noise(s, 10_000)
    parts = np.concatenate([z for _, z in iter_noise_chunks(s, 10_000, chunk=333)])
    assert np.array_equal(whole, parts)
    sizes = [z.size for _, z in iter_noise_chunks(s, 10_000, chunk=333)]
    assert max(sizes) == 333
    out = np.empty(333)
    drawn = []
    for _, z in iter_noise_chunks(s, 10_000, chunk=333, out=out):
        assert z.base is out
        drawn.append(z.copy())
    assert np.concatenate(drawn).tobytes() == whole.tobytes()


def test_noise_streams_are_distinct_and_uncorrelated():
    a = generate_noise(PerturbationSeed(7, 0), 100_000)
    b = generate_noise(PerturbationSeed(7, 1), 100_000)
    assert not np.array_equal(a[:64], b[:64])
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02


def test_noise_moments():
    z = generate_noise(PerturbationSeed(2024, 0), 1_000_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.01


def test_step_seed_changes_with_step_and_master():
    seen = {step_seed(m, s) for m in (0, 1, 2, -5) for s in range(50)}
    assert len(seen) == 4 * 50


_M64 = (1 << 64) - 1


def _draws(gen: np.random.Generator):
    return (gen.standard_normal(1000), gen.integers(0, 17, size=33), gen.random(5),
            gen.permutation(9), gen.standard_normal(3))


@pytest.mark.parametrize("k0, k1", [(0, 0), (_M64, _M64), (0, _M64), (-1, -7),
                                    (-(1 << 63), 1 << 63)])
def test_keyed_philox_draws_equal_a_fresh_philox(monkeypatch, k0, k1):
    key = np.array([k0 & _M64, k1 & _M64], dtype=np.uint64)
    want = _draws(np.random.Generator(np.random.Philox(key=key)))
    monkeypatch.setattr(zo, "_SPARE", [])
    built = keyed_philox(k0, k1)  # no spare: a new generator
    assert all(np.array_equal(a, b) for a, b in zip(_draws(built), want))
    release_philox(built)
    reused = keyed_philox(k0, k1)  # the spare, rewound from mid-stream
    assert reused is built
    assert all(np.array_equal(a, b) for a, b in zip(_draws(reused), want))
    assert keyed_philox(k0, k1) is not reused  # one owner at a time


def test_keyed_philox_takes_numpy_integer_keys_and_refuses_floats():
    want = _draws(keyed_philox(_M64, -1))
    got = _draws(keyed_philox(np.uint64(_M64), np.int64(-1)))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    with pytest.raises(TypeError):
        keyed_philox(1.0, 0)


def test_mezo_step_is_unchanged_by_batches_drawn_inside_the_loss():
    # the loss takes and hands back generators (one per task sample) between
    # the step's noise passes, each of which borrows one; none may be shared
    cfg = ModelConfig(context_length=8, num_layers=1, hidden_dim=16, num_heads=2,
                      vocab_size=8, batch_size=4)
    model = ToyTransformer(cfg)
    task = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, 8, 8, seed=1)
    zcfg = ZOConfig(epsilon=1e-3, learning_rate=1e-2, num_perturbations=5, master_seed=3)
    fetched = task.batch(range(cfg.batch_size))

    def loss_of(batch):
        return lambda t: loss_from_logits(
            model.forward(t, batch[0], mode=LedgerMode.MEZO)[0], batch[1])

    drawing = lambda t: loss_of(task.batch(range(cfg.batch_size)))(t)
    for chunk in (1 << 16, 97):  # one chunk; 35 chunks, later ones rewound by state
        a, b = model.init_params(0), model.init_params(0)
        for step in range(2):
            # reference: each g_i from a lone estimate, each z_i regenerated whole
            seeds = [PerturbationSeed(step_seed(3, step), i) for i in range(5)]
            ref = a.copy()
            gs = [spsa_directional_derivative(loss_of(fetched), ref, s, 1e-3) for s in seeds]
            acc = generate_noise(seeds[0], len(ref)) * gs[0]
            for s, g in zip(seeds[1:], gs[1:]):
                acc += generate_noise(s, len(ref)) * g
            ref.values -= acc * (1e-2 / 5)

            _, report_a = mezo_step(loss_of(fetched), a, zcfg, step, chunk=chunk)
            _, report_b = mezo_step(drawing, b, zcfg, step, chunk=chunk)
            assert report_a == report_b and report_a.projected_gradients == tuple(gs)
            assert a.values.tobytes() == b.values.tobytes() == ref.values.tobytes()


# ---------------------------------------------------------------------------
# spsa directional derivative
# ---------------------------------------------------------------------------

def test_spsa_restores_theta_bitwise_1000_seeds():
    rng = np.random.default_rng(5)
    vals = np.concatenate([
        rng.standard_normal(101),
        rng.standard_normal(50) * 1e-300,  # far below the perturbation scale
        rng.standard_normal(25) * 1e250,   # far above it
        np.zeros(17),
    ])
    theta = flat(vals)
    before = theta.values.tobytes()

    def loss(t):
        return float(np.sum(t.values[:101] ** 2))

    for s in range(1000):
        spsa_directional_derivative(loss, theta, PerturbationSeed(s, 0), 1e-3, chunk=64)
        assert theta.values.tobytes() == before


def test_spsa_exact_on_quadratic_any_epsilon():
    # sum(theta^2) at theta=(1,): ((1+e z)^2 - (1-e z)^2)/(2e) == 2z in real
    # arithmetic at any eps. In floats the evaluation points round to
    # fl(1 +/- e z), which bounds |g - 2z| by ~2 ulp(1)/eps.
    for eps in (1e-6, 1e-3, 0.5):
        for s in range(20):
            seed = PerturbationSeed(s, 0)
            theta = flat([1.0])
            z = generate_noise(seed, 1)[0]
            g = spsa_directional_derivative(
                lambda t: float(np.sum(t.values ** 2)), theta, seed, eps)
            assert abs(g - 2 * z) < max(1e-9 * abs(2 * z), 5e-16 / eps)


def test_spsa_zero_on_constant_loss():
    theta = flat(np.linspace(-2, 2, 37))
    for s in range(50):
        g = spsa_directional_derivative(lambda t: 3.25, theta,
                                        PerturbationSeed(s, 0), 1e-3)
        assert g == 0.0


def test_spsa_matches_analytic_derivative_of_sine():
    seed = PerturbationSeed(11, 0)
    z = generate_noise(seed, 1)[0]
    theta = flat([0.3])
    g = spsa_directional_derivative(lambda t: float(np.sin(t.values[0])),
                                    theta, seed, 1e-4)
    assert g * z == pytest.approx(np.cos(0.3) * z * z, rel=1e-6)


def test_spsa_rejects_bad_epsilon():
    with pytest.raises(ConfigError):
        spsa_directional_derivative(quadratic, flat([1.0]),
                                    PerturbationSeed(0, 0), 0.0)


def test_spsa_nonfinite_loss_restores_then_raises():
    theta = flat(np.ones(100))
    before = theta.values.tobytes()
    calls = []

    def exploding(t):
        calls.append(1)
        return np.inf if len(calls) == 1 else 1.0

    with pytest.raises(NonfiniteLossError):
        spsa_directional_derivative(exploding, theta, PerturbationSeed(3, 0), 1e-3)
    assert theta.values.tobytes() == before

    calls.clear()

    def exploding_second(t):
        calls.append(1)
        return np.nan if len(calls) == 2 else 1.0

    with pytest.raises(NonfiniteLossError):
        spsa_directional_derivative(exploding_second, theta, PerturbationSeed(3, 0), 1e-3)
    assert theta.values.tobytes() == before


# ---------------------------------------------------------------------------
# mezo step
# ---------------------------------------------------------------------------

def test_mezo_step_zero_learning_rate_keeps_theta_bitwise():
    theta = flat(np.random.default_rng(0).standard_normal(300))
    before = theta.values.tobytes()
    cfg = ZOConfig(epsilon=1e-3, learning_rate=0.0, num_perturbations=4, master_seed=9)
    _, report = mezo_step(quadratic, theta, cfg, 0)
    assert theta.values.tobytes() == before
    assert len(report.projected_gradients) == 4
    assert len(report.losses) == 4
    assert all(np.isfinite(g) for g in report.projected_gradients)


def test_mezo_step_deterministic_and_chunk_invariant():
    rng = np.random.default_rng(1)
    base = rng.standard_normal(700)
    cfg = ZOConfig(epsilon=1e-3, learning_rate=0.05, num_perturbations=3, master_seed=123)
    t1, t2 = flat(base.copy()), flat(base.copy())
    _, r1 = mezo_step(quadratic, t1, cfg, 5, chunk=64)
    _, r2 = mezo_step(quadratic, t2, cfg, 5, chunk=4096)
    assert np.array_equal(t1.values, t2.values)
    assert r1.projected_gradients == r2.projected_gradients
    assert r1.seeds == r2.seeds

    t3 = flat(base.copy())
    _, _ = mezo_step(quadratic, t3, cfg, 6, chunk=64)  # different step
    assert not np.array_equal(t1.values, t3.values)


def test_mezo_step_expected_update_is_negative_lr_times_theta():
    # E[(theta . z) z] = theta for standard normal z; n=1, quadratic loss.
    theta0 = np.array([0.8, -1.3])
    eta = 1e-3
    total = np.zeros(2)
    m = 10_000
    for s in range(m):
        t = flat(theta0.copy())
        cfg = ZOConfig(epsilon=1e-3, learning_rate=eta, num_perturbations=1,
                       master_seed=s)
        mezo_step(quadratic, t, cfg, 0)
        total += t.values - theta0
    mean_update = total / m
    expected = -eta * theta0
    rel = np.linalg.norm(mean_update - expected) / np.linalg.norm(expected)
    assert rel < 0.02


def test_mezo_step_nonfinite_loss_leaves_theta_at_prestep_value():
    theta = flat(np.ones(64))
    before = theta.values.tobytes()
    calls = []

    def loss(t):
        calls.append(1)
        return np.inf if len(calls) == 3 else quadratic(t)

    cfg = ZOConfig(epsilon=1e-3, learning_rate=0.1, num_perturbations=5, master_seed=0)
    with pytest.raises(NonfiniteLossError):
        mezo_step(loss, theta, cfg, 0)
    assert theta.values.tobytes() == before


def test_mezo_step_nonfinite_projected_gradient_leaves_theta_untouched():
    theta = flat(np.ones(64))
    before = theta.values.tobytes()
    calls = []

    def loss(t):  # finite losses whose difference overflows
        calls.append(1)
        return 1e308 if len(calls) % 2 else -1e308

    cfg = ZOConfig(epsilon=1e-3, learning_rate=0.1, num_perturbations=2, master_seed=0)
    with pytest.raises(NonfiniteGradError):
        mezo_step(loss, theta, cfg, 0)
    assert len(calls) == 4
    assert theta.values.tobytes() == before


def test_mezo_step_overflowing_update_raises_with_theta_written():
    theta = flat(np.ones(64))
    calls = []

    def loss(t):  # projected gradient 1e308: finite, but g*z overflows
        calls.append(1)
        return 1e305 if len(calls) % 2 else -1e305

    cfg = ZOConfig(epsilon=1e-3, learning_rate=1.0, num_perturbations=1, master_seed=0)
    with np.errstate(over="ignore"), pytest.raises(NonfiniteLossError):
        mezo_step(loss, theta, cfg, 0)
    assert not np.all(np.isfinite(theta.values))


def test_mezo_step_memory_overhead_is_bounded():
    # No allocation proportional to the parameter count besides theta itself:
    # peak traced overhead stays a small fraction of theta's footprint.
    dim = 400_000
    theta = flat(np.random.default_rng(3).standard_normal(dim))
    cfg = ZOConfig(epsilon=1e-3, learning_rate=1e-4, num_perturbations=2,
                   master_seed=11)

    def cheap_loss(t):
        return float(t.values @ t.values) * 0.5

    mezo_step(cheap_loss, theta, cfg, 0, chunk=8192)  # warm up code paths
    tracemalloc.start()
    mezo_step(cheap_loss, theta, cfg, 1, chunk=8192)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < theta.values.nbytes * 0.2


def test_mezo_step_holds_less_than_a_chunk_at_every_loss_evaluation():
    # a multi-chunk stream keeps no noise between passes: what is live while
    # the loss runs is the undo record and a few small objects
    dim, chunk = 400_000, 8192
    theta = flat(np.random.default_rng(3).standard_normal(dim))
    cfg = ZOConfig(epsilon=1e-3, learning_rate=1e-4, num_perturbations=2,
                   master_seed=11)
    held = []

    def loss(t):
        held.append(tracemalloc.get_traced_memory()[0])
        return float(t.values @ t.values) * 0.5

    mezo_step(loss, theta, cfg, 0, chunk=chunk)  # warm up code paths
    held.clear()
    tracemalloc.start()
    try:
        mezo_step(loss, theta, cfg, 1, chunk=chunk)
    finally:
        tracemalloc.stop()
    assert len(held) == 4
    assert max(held) < chunk * 8, held


def _checked_out(monkeypatch) -> list[int]:
    """Count generators taken from keyed_philox and not yet handed back."""
    out = [0]
    take, give = zo.keyed_philox, zo.release_philox

    def counted_take(k0, k1):
        out[0] += 1
        return take(k0, k1)

    def counted_give(gen):
        out[0] -= 1
        give(gen)

    monkeypatch.setattr(zo, "keyed_philox", counted_take)
    monkeypatch.setattr(zo, "release_philox", counted_give)
    return out


@pytest.mark.parametrize("length, chunk", [(50, 97), (1000, 97)],
                         ids=["one-chunk", "many-chunks"])
def test_a_noise_walk_hands_its_generator_back_with_its_last_block(monkeypatch, length,
                                                                   chunk):
    out = _checked_out(monkeypatch)
    walk = iter_noise_chunks(PerturbationSeed(5, 1), length, chunk)
    blocks = []
    while sum(b.size for b in blocks) < length:
        blocks.append(next(walk)[1])
        # held between blocks, back as soon as the last one is drawn
        assert out[0] == (sum(b.size for b in blocks) < length)
    with pytest.raises(StopIteration):
        next(walk)
    assert out[0] == 0
    assert np.array_equal(np.concatenate(blocks), generate_noise(PerturbationSeed(5, 1), length))


def test_an_empty_walk_takes_no_generator(monkeypatch):
    taken, take = [], zo.keyed_philox
    monkeypatch.setattr(zo, "keyed_philox", lambda k0, k1: taken.append(k0) or take(k0, k1))
    assert list(iter_noise_chunks(PerturbationSeed(1, 0), 0)) == []
    assert taken == []


def test_init_params_and_generate_noise_leave_no_generator_checked_out(monkeypatch):
    out = _checked_out(monkeypatch)
    ToyTransformer(ModelConfig(context_length=8, num_layers=1, hidden_dim=16, num_heads=2,
                               vocab_size=8, batch_size=1)).init_params(3)
    generate_noise(PerturbationSeed(4, 0), 10)
    assert out[0] == 0


@pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 97], ids=["one-chunk", "many-chunks"])
def test_no_generator_is_checked_out_during_a_loss_evaluation(monkeypatch, chunk):
    out = _checked_out(monkeypatch)
    seen = []

    def scripted(loss_at):  # loss_at(k) is the k-th evaluation's loss, from 1
        seen.clear()

        def loss(t):
            seen.append(out[0])
            return loss_at(len(seen))
        return loss

    theta = flat(np.random.default_rng(6).standard_normal(1000))
    cfg = ZOConfig(epsilon=1e-3, learning_rate=1e-2, num_perturbations=4, master_seed=7)
    mezo_step(scripted(lambda k: quadratic(theta)), theta, cfg, 0, chunk=chunk)
    assert seen == [0] * 8 and out[0] == 0
    spsa_directional_derivative(scripted(lambda k: quadratic(theta)), theta,
                                PerturbationSeed(2, 0), 1e-3, chunk=chunk)
    assert seen == [0] * 2 and out[0] == 0

    with pytest.raises(NonfiniteLossError):
        mezo_step(scripted(lambda k: np.inf if k == 3 else 1.0), theta, cfg, 1, chunk=chunk)
    assert seen == [0] * 3 and out[0] == 0
    with pytest.raises(NonfiniteLossError):
        spsa_directional_derivative(scripted(lambda k: np.nan if k == 2 else 1.0), theta,
                                    PerturbationSeed(3, 0), 1e-3, chunk=chunk)
    assert seen == [0] * 2 and out[0] == 0
    with pytest.raises(NonfiniteGradError):  # finite losses whose difference overflows
        mezo_step(scripted(lambda k: 1e308 if k % 2 else -1e308), theta, cfg, 2, chunk=chunk)
    assert seen == [0] * 8 and out[0] == 0
    # raised by the update; `raised` keeps its traceback, and so the step's frame, alive
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonfiniteLossError) as raised:
        mezo_step(scripted(lambda k: 1e305 if k % 2 else -1e305), theta,
                  ZOConfig(learning_rate=1.0, num_perturbations=4), 3, chunk=chunk)
    assert seen == [0] * 8 and out[0] == 0, raised


@pytest.mark.parametrize("size, chunk, bound", [
    (3376, DEFAULT_CHUNK, 3.5 * 3376 * 8),  # one chunk: kept noise + 2 scratch
    (100_000, 8192, 3 * 8192 * 8),          # many: 2 chunk buffers + undo record
], ids=["one-chunk", "many-chunks"])
def test_noise_only_step_peak_holds_the_estimators_own_bytes(size, chunk, bound):
    theta = flat(np.random.default_rng(4).standard_normal(size))
    cfg = ZOConfig(epsilon=1e-3, learning_rate=1e-3, num_perturbations=4, master_seed=2)
    zero = lambda t: 0.0
    mezo_step(zero, theta, cfg, 0, chunk=chunk)  # warm up code paths
    tracemalloc.start()
    try:
        mezo_step(zero, theta, cfg, 1, chunk=chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


def test_shift_exception_records_are_sparse():
    from mezofit.zo import _Stream

    values = np.random.default_rng(8).standard_normal(200_000)
    stream = _Stream(PerturbationSeed(4, 0), values.size, 16384)
    stream.shift(values, 1e-3, +1.0)
    recorded = sum(idx.size for idx, _ in stream.undo.values())
    assert recorded < 0.01 * values.size


def test_zo_config_validation():
    with pytest.raises(ConfigError):
        ZOConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        ZOConfig(learning_rate=-1e-3)
    with pytest.raises(ConfigError):
        ZOConfig(num_perturbations=0)
    with pytest.raises(ConfigError):
        mezo_step(quadratic, flat([1.0]), ZOConfig(), -1)


# ---------------------------------------------------------------------------
# bp sgd step
# ---------------------------------------------------------------------------

def test_bp_sgd_step_closed_form_quadratic():
    theta = flat([1.0, 1.0])

    def grad_fn(t):
        return flat(t.values.copy()), quadratic(t)

    bp_sgd_step(grad_fn, theta, 0.1)
    assert np.allclose(theta.values, [0.9, 0.9], rtol=0, atol=0)


def test_bp_sgd_step_zero_eta_is_identity():
    theta = flat(np.linspace(0, 1, 11))
    before = theta.values.tobytes()

    def grad_fn(t):
        return flat(np.ones(11)), 1.0

    bp_sgd_step(grad_fn, theta, 0.0)
    assert theta.values.tobytes() == before


def test_bp_sgd_step_reaches_least_squares_optimum():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((20, 3))
    y = rng.standard_normal(20)
    w_star, *_ = np.linalg.lstsq(X, y, rcond=None)

    def objective(w):
        r = X @ w - y
        return 0.5 * float(r @ r) / len(y)

    def grad_fn(t):
        r = X @ t.values - y
        return flat(X.T @ r / len(y)), objective(t.values)

    theta = flat(np.zeros(3))
    for _ in range(100):
        bp_sgd_step(grad_fn, theta, 0.5)
    assert objective(theta.values) - objective(w_star) < 1e-6


def test_bp_sgd_step_nonfinite_errors():
    theta = flat([1.0])
    with pytest.raises(NonfiniteLossError):
        bp_sgd_step(lambda t: (flat([1.0]), np.nan), theta, 0.1)
    with pytest.raises(NonfiniteGradError):
        bp_sgd_step(lambda t: (flat([np.inf]), 1.0), theta, 0.1)
    assert theta.values[0] == 1.0
