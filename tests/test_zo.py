import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

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


@pytest.fixture
def set_chunk(monkeypatch):
    """Walk noise `chunk` values a block for the rest of the test, so small
    vectors take the multi-chunk paths."""
    return lambda chunk: monkeypatch.setattr(zo, "DEFAULT_CHUNK", chunk)


# ---------------------------------------------------------------------------
# parameter vector
# ---------------------------------------------------------------------------

def test_parameter_vector_segments_tile_exactly():
    assert len(ParameterVector(np.zeros(10), (Segment("a", 0, 6), Segment("b", 6, 4)))) == 10
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


def test_noise_chunked_equals_whole(set_chunk):
    set_chunk(333)
    s = PerturbationSeed(5, 1)
    whole = generate_noise(s, 10_000)
    parts = np.concatenate([z for _, z in iter_noise_chunks(s, 10_000)])
    assert np.array_equal(whole, parts)
    sizes = [z.size for _, z in iter_noise_chunks(s, 10_000)]
    assert max(sizes) == 333
    out = np.empty(333)
    drawn = []
    for _, z in iter_noise_chunks(s, 10_000, out=out):
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
    assert zo._KEYED["key"] == (0, 0)  # no key outlives its rewind
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


def test_mezo_step_is_unchanged_by_batches_drawn_inside_the_loss(set_chunk):
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
    bound = model.loss_fn(*fetched)
    for chunk in (1 << 16, 97):  # one chunk; 35 chunks, later ones rewound by state
        set_chunk(chunk)
        a, b, c = model.init_params(0), model.init_params(0), model.init_params(0)
        for step in range(2):
            # reference: each g_i from a lone estimate, each z_i regenerated whole
            seeds = [PerturbationSeed(step_seed(3, step), i) for i in range(5)]
            ref = a.copy()
            gs = [spsa_directional_derivative(loss_of(fetched), ref, s, 1e-3) for s in seeds]
            acc = generate_noise(seeds[0], len(ref)) * gs[0]
            for s, g in zip(seeds[1:], gs[1:]):
                acc += generate_noise(s, len(ref)) * g
            ref.values -= acc * (1e-2 / 5)

            _, report_a = mezo_step(loss_of(fetched), a, zcfg, step)
            _, report_b = mezo_step(drawing, b, zcfg, step)
            _, report_c = mezo_step(bound, c, zcfg, step)
            assert report_a == report_b == report_c
            assert report_a.projected_gradients == tuple(gs)
            assert a.values.tobytes() == b.values.tobytes() == c.values.tobytes() \
                == ref.values.tobytes()


# ---------------------------------------------------------------------------
# spsa directional derivative
# ---------------------------------------------------------------------------

def test_spsa_restores_theta_bitwise_1000_seeds(set_chunk):
    set_chunk(64)
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
        spsa_directional_derivative(loss, theta, PerturbationSeed(s, 0), 1e-3)
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


NOT_REAL = [True, Decimal("0.001"), "0.001", 1e-3 + 0j, None]
NOT_REAL_IDS = ["bool", "decimal", "str", "complex", "none"]


@pytest.mark.parametrize("value", NOT_REAL, ids=NOT_REAL_IDS)
def test_a_step_size_that_is_not_a_real_number_is_refused_before_theta_is_touched(value):
    theta = flat([1.0, -0.0, 2.0])
    before = theta.values.tobytes()
    never = lambda t: pytest.fail("the loss ran")
    with pytest.raises(ConfigError, match="epsilon"):
        spsa_directional_derivative(never, theta, PerturbationSeed(1, 0), value)
    with pytest.raises(ConfigError, match="eta"):
        bp_sgd_step(never, theta, value)
    for field in ("epsilon", "learning_rate"):
        with pytest.raises(ConfigError, match=field):
            ZOConfig(**{field: value})
    assert theta.values.tobytes() == before


# a longdouble only where it is wider than a float64 (x86's 80-bit extended)
_WIDE = np.finfo(np.longdouble).max > sys.float_info.max


@pytest.mark.parametrize("n", [2, 3, 7])
@pytest.mark.parametrize("value", [
    Fraction(1, 1000), Fraction(1, 10), np.float64(1e-3), np.float32(0.1), np.float16(0.1),
    *([np.longdouble(0.1)] if _WIDE else []), 1e-3,
], ids=["fraction", "fraction-tenth", "numpy-float", "float32", "float16",
        *(["longdouble"] if _WIDE else []), "float"])
def test_a_real_step_size_of_any_type_gives_the_float_results(value, n):
    # the rate becomes its float before mezo_step divides it by n
    def run(step):
        theta = flat([1.0, -0.5, 2.0])
        g = spsa_directional_derivative(quadratic, theta, PerturbationSeed(1, 0), step)
        bp_sgd_step(lambda t: (flat(t.values.copy()), quadratic(t)), theta, step)
        _, report = mezo_step(quadratic, theta, ZOConfig(step, step, n, 3), 0)
        return g, report, theta.values.tobytes()

    assert run(value) == run(float(value))


@pytest.mark.parametrize("epsilon", [np.inf, 10 ** 400], ids=["inf", "int-1e400"])
def test_spsa_refuses_an_epsilon_past_the_largest_float_before_shifting(epsilon):
    theta = flat([1.0, -2.0, 0.5])
    before = theta.values.tobytes()
    with pytest.raises(ConfigError, match="epsilon"):
        spsa_directional_derivative(quadratic, theta, PerturbationSeed(0, 0), epsilon)
    assert theta.values.tobytes() == before


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


def raising_on(call: int):
    """The quadratic loss, except that its `call`-th evaluation raises."""
    calls = []

    def loss(t):
        calls.append(1)
        if len(calls) == call:
            raise ValueError(f"loss raised on call {call}")
        return quadratic(t)
    return loss


@pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 97], ids=["one-chunk", "many-chunks"])
@pytest.mark.parametrize("call", [1, 2], ids=["plus", "minus"])
def test_spsa_restores_theta_when_the_loss_raises(set_chunk, call, chunk):
    set_chunk(chunk)
    # scale 3 at epsilon 1e-3 leaves some coordinates in the undo record
    theta = flat(np.random.default_rng(4).standard_normal(4000) * 3)
    before = theta.values.tobytes()
    with pytest.raises(ValueError, match=f"call {call}$"):
        spsa_directional_derivative(raising_on(call), theta, PerturbationSeed(5, 0), 1e-3)
    assert theta.values.tobytes() == before


@pytest.mark.parametrize("chunk", [DEFAULT_CHUNK, 97], ids=["one-chunk", "many-chunks"])
@pytest.mark.parametrize("call", [5, 6], ids=["plus", "minus"])
def test_mezo_step_restores_theta_when_the_loss_raises(set_chunk, call, chunk):
    set_chunk(chunk)
    # the third direction's +epsilon or -epsilon evaluation raises
    theta = flat(np.random.default_rng(4).standard_normal(4000) * 3)
    before = theta.values.tobytes()
    cfg = ZOConfig(epsilon=1e-3, learning_rate=0.1, num_perturbations=4, master_seed=1)
    with pytest.raises(ValueError, match=f"call {call}$"):
        mezo_step(raising_on(call), theta, cfg, 0)
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


def test_mezo_step_deterministic_and_chunk_invariant(set_chunk):
    rng = np.random.default_rng(1)
    base = rng.standard_normal(700)
    cfg = ZOConfig(epsilon=1e-3, learning_rate=0.05, num_perturbations=3, master_seed=123)
    t1, t2 = flat(base.copy()), flat(base.copy())
    set_chunk(64)
    _, r1 = mezo_step(quadratic, t1, cfg, 5)
    set_chunk(4096)
    _, r2 = mezo_step(quadratic, t2, cfg, 5)
    assert np.array_equal(t1.values, t2.values)
    assert r1.projected_gradients == r2.projected_gradients
    assert r1.seeds == r2.seeds

    t3 = flat(base.copy())
    set_chunk(64)
    _, _ = mezo_step(quadratic, t3, cfg, 6)  # different step
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


def test_mezo_step_memory_overhead_is_bounded(set_chunk):
    # No allocation proportional to the parameter count besides theta itself:
    # peak traced overhead stays a small fraction of theta's footprint.
    dim = 400_000
    theta = flat(np.random.default_rng(3).standard_normal(dim))
    cfg = ZOConfig(epsilon=1e-3, learning_rate=1e-4, num_perturbations=2,
                   master_seed=11)

    def cheap_loss(t):
        return float(t.values @ t.values) * 0.5

    set_chunk(8192)
    mezo_step(cheap_loss, theta, cfg, 0)  # warm up code paths
    tracemalloc.start()
    mezo_step(cheap_loss, theta, cfg, 1)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < theta.values.nbytes * 0.2


def test_mezo_step_holds_less_than_a_chunk_at_every_loss_evaluation(set_chunk):
    # a multi-chunk stream keeps no noise between passes: what is live while
    # the loss runs is the undo record and a few small objects
    dim, chunk = 400_000, 8192
    set_chunk(chunk)
    theta = flat(np.random.default_rng(3).standard_normal(dim))
    cfg = ZOConfig(epsilon=1e-3, learning_rate=1e-4, num_perturbations=2,
                   master_seed=11)
    held = []

    def loss(t):
        held.append(tracemalloc.get_traced_memory()[0])
        return float(t.values @ t.values) * 0.5

    mezo_step(loss, theta, cfg, 0)  # warm up code paths
    held.clear()
    tracemalloc.start()
    try:
        mezo_step(loss, theta, cfg, 1)
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
def test_a_noise_walk_hands_its_generator_back_with_its_last_block(monkeypatch, set_chunk,
                                                                   length, chunk):
    set_chunk(chunk)
    out = _checked_out(monkeypatch)
    walk = iter_noise_chunks(PerturbationSeed(5, 1), length)
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
def test_no_generator_is_checked_out_during_a_loss_evaluation(monkeypatch, set_chunk, chunk):
    set_chunk(chunk)
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
    mezo_step(scripted(lambda k: quadratic(theta)), theta, cfg, 0)
    assert seen == [0] * 8 and out[0] == 0
    spsa_directional_derivative(scripted(lambda k: quadratic(theta)), theta,
                                PerturbationSeed(2, 0), 1e-3)
    assert seen == [0] * 2 and out[0] == 0

    with pytest.raises(NonfiniteLossError):
        mezo_step(scripted(lambda k: np.inf if k == 3 else 1.0), theta, cfg, 1)
    assert seen == [0] * 3 and out[0] == 0
    with pytest.raises(NonfiniteLossError):
        spsa_directional_derivative(scripted(lambda k: np.nan if k == 2 else 1.0), theta,
                                    PerturbationSeed(3, 0), 1e-3)
    assert seen == [0] * 2 and out[0] == 0
    with pytest.raises(NonfiniteGradError):  # finite losses whose difference overflows
        mezo_step(scripted(lambda k: 1e308 if k % 2 else -1e308), theta, cfg, 2)
    assert seen == [0] * 8 and out[0] == 0
    # raised by the update; `raised` keeps its traceback, and so the step's frame, alive
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonfiniteLossError) as raised:
        mezo_step(scripted(lambda k: 1e305 if k % 2 else -1e305), theta,
                  ZOConfig(learning_rate=1.0, num_perturbations=4), 3)
    assert seen == [0] * 8 and out[0] == 0, raised


@pytest.mark.parametrize("size, chunk, bound", [
    (3376, DEFAULT_CHUNK, 3.5 * 3376 * 8),  # one chunk: kept noise + 2 scratch
    (100_000, 8192, 3 * 8192 * 8),          # many: 2 chunk buffers + undo record
], ids=["one-chunk", "many-chunks"])
def test_noise_only_step_peak_holds_the_estimators_own_bytes(set_chunk, size, chunk, bound):
    set_chunk(chunk)
    theta = flat(np.random.default_rng(4).standard_normal(size))
    cfg = ZOConfig(epsilon=1e-3, learning_rate=1e-3, num_perturbations=4, master_seed=2)
    zero = lambda t: 0.0
    mezo_step(zero, theta, cfg, 0)  # warm up code paths
    tracemalloc.start()
    try:
        mezo_step(zero, theta, cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


def test_shift_exception_records_are_sparse(set_chunk):
    from mezofit.zo import _Stream

    set_chunk(16384)
    values = np.random.default_rng(8).standard_normal(200_000)
    stream = _Stream(PerturbationSeed(4, 0), values.size, 1e-3)
    stream.shift(values, +1.0)
    recorded = sum(idx.size for idx, _ in stream.undo.values())
    assert recorded < 0.01 * values.size


@pytest.mark.parametrize("chunk, index", [(DEFAULT_CHUNK, np.uint16), (1 << 17, np.uint32)],
                         ids=["default-chunk", "past-uint16"])
def test_undo_record_indices_take_the_smallest_type_and_restore_bitwise(set_chunk, chunk,
                                                                        index):
    # chunk-local indices in the smallest unsigned type that holds chunk - 1,
    # 2 bytes at the default chunk, not 8
    from mezofit.zo import _Stream

    set_chunk(chunk)
    theta = flat(np.random.default_rng(8).standard_normal(200_000))
    before = theta.values.tobytes()
    stream = _Stream(PerturbationSeed(4, 0), len(theta), 1e-3)
    stream.shift(theta.values, +1.0)
    assert {idx.dtype for idx, _ in stream.undo.values()} == {np.dtype(index)}
    top = max(int(idx.max()) for idx, _ in stream.undo.values())
    assert top < chunk and (chunk <= 1 << 16 or top > 0xFFFF)  # uint32 past uint16's range
    stream.shift(theta.values, 0.0)
    assert theta.values.tobytes() == before
    for s in range(5):
        spsa_directional_derivative(quadratic, theta, PerturbationSeed(s, 0), 1e-3)
        assert theta.values.tobytes() == before


def test_a_walked_record_holds_signed_bit_offsets_in_their_smallest_type():
    # a walked stream saves bits(x) - bits(fl(up -/+ d)), at most 4 bytes per recorded
    # coordinate with its uint16 index here, where a saved float64 takes 10
    from mezofit.zo import _Stream

    values = np.random.default_rng(8).standard_normal(200_000) / np.sqrt(128)
    before = values.tobytes()
    stream = _Stream(PerturbationSeed(4, 0), values.size, 1e-3)
    stream.shift(values, +1.0)
    entries = list(stream.undo.values())
    assert len(entries) == 4  # 200,000 values walk four default chunks
    for idx, off in entries:
        assert idx.dtype == np.uint16 and off.dtype.kind == "i" and off.size == idx.size
        if off.itemsize > 1:  # no narrower signed type holds them all
            narrower = np.iinfo(np.dtype(f"i{off.itemsize // 2}"))
            assert off.min() < narrower.min or off.max() > narrower.max
    recorded = sum(idx.size for idx, _ in entries)
    assert recorded > 0.01 * values.size
    assert sum(idx.nbytes + off.nbytes for idx, off in entries) <= 4 * recorded
    stream.shift(values, -1.0)
    stream.shift(values, 0.0)
    assert values.tobytes() == before


def test_a_walked_record_over_special_values_takes_int64_offsets_and_restores_bitwise(
        set_chunk):
    # -0.0, a sign-crossing subnormal or a quieted signalling NaN lies 2^63 or
    # more bit patterns from what the next pass gives back
    from mezofit.zo import _Stream

    set_chunk(97)
    values = np.random.default_rng(5).standard_normal(296)
    values[::2] = np.resize(_SPECIALS, values[::2].size)
    before = values.tobytes()
    stream = _Stream(PerturbationSeed(5, 7), values.size, 1e-3)
    with np.errstate(invalid="ignore"):
        stream.shift(values, +1.0)
        assert np.dtype(np.int64) in {off.dtype for _, off in stream.undo.values()}
        stream.shift(values, -1.0)
        assert np.dtype(np.int64) in {off.dtype for _, off in stream.undo.values()}
        stream.shift(values, 0.0)
    assert values.tobytes() == before


def test_a_kept_record_saves_float64_values():
    # a stream of one chunk already holds 8*P bytes of d: its record stays the saved values
    from mezofit.zo import _Stream

    values = np.random.default_rng(8).standard_normal(3376) / np.sqrt(128)
    before = values.tobytes()
    stream = _Stream(PerturbationSeed(4, 0), values.size, 1e-3)
    stream.shift(values, +1.0)
    assert stream.undo and all(saved.dtype == np.float64 for _, saved in stream.undo.values())
    stream.shift(values, 0.0)
    assert values.tobytes() == before


def test_bytes_held_at_each_loss_evaluation_of_a_walked_step_stay_small():
    # at P = 853,120 and scale 1/sqrt(128) about 2.5% of coordinates are
    # recorded; saved as float64 with their index they took about 225 KB
    theta = flat(np.random.default_rng(0).standard_normal(853_120) / np.sqrt(128))
    cfg = ZOConfig(epsilon=1e-3, learning_rate=1e-3, num_perturbations=2, master_seed=3)
    held = []
    mezo_step(lambda t: 0.0, theta, cfg, 0)  # warm up code paths
    tracemalloc.start()
    try:
        mezo_step(lambda t: held.append(tracemalloc.get_traced_memory()[0]) or 0.0,
                  theta, cfg, 1)
    finally:
        tracemalloc.stop()
    assert len(held) == 4 and max(held) <= 110_000, held


@pytest.mark.parametrize("size, chunk", [(6, DEFAULT_CHUNK), (300, 97), (6, 1 << 70)],
                         ids=["one-chunk", "many-chunks", "chunk-past-uint64"])
def test_negative_zeros_come_back_bitwise(set_chunk, size, chunk):
    set_chunk(chunk)
    # -0.0 == +0.0 as floats, so only a bit-pattern check records them
    values = np.random.default_rng(3).standard_normal(size)
    values[::2] = -0.0
    theta = flat(values)
    before = theta.values.tobytes()
    for eps in (1e-3, 5e-324):
        for s in range(3):
            spsa_directional_derivative(quadratic, theta, PerturbationSeed(s, 0), eps)
            assert theta.values.tobytes() == before
    cfg = ZOConfig(epsilon=1e-3, learning_rate=0.0, num_perturbations=3, master_seed=1)
    mezo_step(quadratic, theta, cfg, 0)
    assert theta.values.tobytes() == before


_SNAN = np.frombuffer((0x7FF0_0000_0000_0001).to_bytes(8, "little"))[0]
_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e250, -1e250,
                      np.inf, -np.inf, np.nan, -_SNAN])


@pytest.mark.parametrize("size, chunk", [(1, 97), (6, 97), (97, 97), (98, 97), (296, 97),
                                         (3376, DEFAULT_CHUNK)])
@pytest.mark.parametrize("epsilon", [5e-324, 1e-300, 1e-3, 0.5, 1e300, 1e308, 10 ** 300,
                                     Fraction(1, 3)])
def test_shifts_are_plain_float_steps_and_restore_bitwise_at_extreme_epsilon(set_chunk, size,
                                                                           chunk, epsilon):
    from mezofit.zo import _Stream

    set_chunk(chunk)
    for offset in range(_SPECIALS.size):
        values = np.random.default_rng(offset).standard_normal(size)
        values[::2] = np.resize(np.roll(_SPECIALS, -offset), values[::2].size)
        before = values.tobytes()
        seed = PerturbationSeed(offset, 7)
        with np.errstate(all="ignore"):  # at 1e308, epsilon * z overflows
            d = generate_noise(seed, size) * float(epsilon)
            plus, minus = (values + d).tobytes(), (values - d).tobytes()
            for first, second in ((+1.0, -1.0), (-1.0, +1.0)):
                stream = _Stream(seed, size, float(epsilon))  # the float the entry points pass
                for sign in (first, second):
                    stream.shift(values, sign)
                    assert values.tobytes() == (plus if sign > 0 else minus)
                stream.shift(values, 0.0)
                assert values.tobytes() == before


@pytest.mark.parametrize("size, chunk, per_step, per_estimate",
                         [(1000, DEFAULT_CHUNK, 2, 1), (1000, 97, 4, 3)],
                         ids=["one-chunk", "many-chunks"])
def test_draw_budget_per_step_and_per_estimate(monkeypatch, set_chunk, size, chunk,
                                               per_step, per_estimate):
    # each draw is one keyed_philox loan: a redraw added anywhere fails here
    set_chunk(chunk)
    taken, take = [], zo.keyed_philox
    monkeypatch.setattr(zo, "keyed_philox", lambda k0, k1: taken.append(k0) or take(k0, k1))
    theta = flat(np.random.default_rng(2).standard_normal(size))
    cfg = ZOConfig(epsilon=1e-3, learning_rate=1e-2, num_perturbations=4, master_seed=7)
    mezo_step(quadratic, theta, cfg, 0)
    assert len(taken) == per_step * cfg.num_perturbations
    taken.clear()
    spsa_directional_derivative(quadratic, theta, PerturbationSeed(2, 0), 1e-3)
    assert len(taken) == per_estimate


@pytest.mark.parametrize("size, per_step, per_estimate",
                         [(DEFAULT_CHUNK, 2, 1), (DEFAULT_CHUNK + 1, 4, 3)],
                         ids=["at-the-chunk", "one-past-it"])
def test_the_kept_or_walked_switch_sits_at_the_default_chunk(monkeypatch, set_chunk, size,
                                                            per_step, per_estimate):
    # no chunk is set: DEFAULT_CHUNK values keep d, one more are walked in two chunks
    taken, take = [], zo.keyed_philox
    monkeypatch.setattr(zo, "keyed_philox", lambda k0, k1: taken.append(k0) or take(k0, k1))
    base = np.random.default_rng(9).standard_normal(size) * 3
    theta = flat(base.copy())
    spsa_directional_derivative(quadratic, theta, PerturbationSeed(2, 0), 1e-3)
    assert len(taken) == per_estimate and theta.values.tobytes() == base.tobytes()
    taken.clear()
    cfg = ZOConfig(epsilon=1e-3, learning_rate=1e-2, num_perturbations=2, master_seed=7)
    _, report = mezo_step(quadratic, theta, cfg, 0)
    assert len(taken) == per_step * cfg.num_perturbations
    set_chunk(4096)
    walked = flat(base.copy())
    _, walked_report = mezo_step(quadratic, walked, cfg, 0)
    assert walked_report == report and walked.values.tobytes() == theta.values.tobytes()


def test_zo_config_validation():
    with pytest.raises(ConfigError):
        ZOConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        ZOConfig(learning_rate=-1e-3)
    with pytest.raises(ConfigError):
        ZOConfig(num_perturbations=0)
    with pytest.raises(ConfigError):
        mezo_step(quadratic, flat([1.0]), ZOConfig(), -1)


def test_a_numpy_integer_step_index_runs_as_the_int_it_names():
    cfg = ZOConfig(epsilon=1e-3, learning_rate=1e-2, num_perturbations=2, master_seed=7)
    runs = []
    for index in (2, np.int64(2), np.uint8(2)):
        theta = flat(np.random.default_rng(1).standard_normal(50))
        _, report = mezo_step(quadratic, theta, cfg, index)
        runs.append((report, type(report.step_index), theta.values.tobytes()))
    assert runs[1] == runs[0] == runs[2]


@pytest.mark.parametrize("index", [True, np.True_, 1.5, np.float64(2.0), "2", None],
                         ids=repr)
def test_a_step_index_that_is_not_an_integer_is_refused_before_theta_moves(index):
    theta = flat([1.0, -0.5, 2.0])
    with pytest.raises(ConfigError, match="^step_index must be an integer"):
        mezo_step(lambda t: pytest.fail("a loss ran"), theta, ZOConfig(), index)
    assert theta.values.tolist() == [1.0, -0.5, 2.0]


def test_zo_config_refuses_a_learning_rate_past_the_largest_float():
    # mezo_step would run all 2n losses, then overflow at lr / n
    with pytest.raises(ConfigError, match="learning_rate"):
        ZOConfig(1e-3, 10 ** 400, 2, 0)


NUMPY_STEP_SIZES = [np.float16(0.25), np.float32(0.25), np.float64(0.25), np.int64(1),
                    *([np.longdouble(0.25)] if _WIDE else [])]
NUMPY_PAST_THE_LIMIT = [np.float32(np.nan), np.float32(np.inf), np.float16(-np.inf),
                        *([np.longdouble(sys.float_info.max) * 2] if _WIDE else [])]


def _numpy_id(value) -> str:
    return f"{type(value).__name__}-{value!s}"  # format() would print a longdouble as a float


@pytest.mark.parametrize("value", NUMPY_STEP_SIZES, ids=_numpy_id)
def test_a_numpy_step_size_of_any_width_gives_the_float_results_without_a_warning(value):
    # the limit check widens to float64 rather than casting the limit to inf, and the
    # estimator works in float, so a float32 epsilon gives float projected gradients
    def run(step):
        theta = flat([1.0, -0.5, 2.0])
        g = spsa_directional_derivative(quadratic, theta, PerturbationSeed(1, 0), step)
        bp_sgd_step(lambda t: (flat(t.values.copy()), quadratic(t)), theta, step)
        _, report = mezo_step(quadratic, theta, ZOConfig(step, step, 2, 3), 0)
        return g, report, theta.values.tobytes()

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run(value)
    assert got == run(float(value))
    assert all(type(g) is float for g in (got[0], *got[1].projected_gradients))


@pytest.mark.parametrize("value", NUMPY_PAST_THE_LIMIT, ids=_numpy_id)
def test_a_numpy_step_size_past_the_largest_float_is_refused_without_a_warning(value):
    theta = flat([1.0, -0.5, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for field in ("epsilon", "learning_rate"):
            with pytest.raises(ConfigError, match=field):
                ZOConfig(**{field: value})
        with pytest.raises(ConfigError, match="epsilon"):
            spsa_directional_derivative(quadratic, theta, PerturbationSeed(1, 0), value)
        with pytest.raises(ConfigError, match="eta"):
            bp_sgd_step(lambda t: pytest.fail("the gradient ran"), theta, value)


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


@pytest.mark.parametrize("eta", [np.nan, np.inf, -1.0, 10 ** 400],
                         ids=["nan", "inf", "negative", "int-1e400"])
def test_bp_sgd_step_refuses_a_bad_eta_before_touching_theta(eta):
    theta = flat([1.0, -2.0])
    before, calls = theta.values.tobytes(), []

    def grad_fn(t):
        calls.append(t)
        return flat([1.0, 1.0]), 1.0

    with pytest.raises(ConfigError, match="eta"):
        bp_sgd_step(grad_fn, theta, eta)
    assert theta.values.tobytes() == before and not calls


def test_bp_sgd_step_nonfinite_errors():
    theta = flat([1.0])
    with pytest.raises(NonfiniteLossError):
        bp_sgd_step(lambda t: (flat([1.0]), np.nan), theta, 0.1)
    with pytest.raises(NonfiniteGradError):
        bp_sgd_step(lambda t: (flat([np.inf]), 1.0), theta, 0.1)
    assert theta.values[0] == 1.0
