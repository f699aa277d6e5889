import hashlib
import tracemalloc

import numpy as np
import pytest

from mezofit.bench import EVAL_SEQUENCES
from mezofit.memory import (
    ConfigError,
    MemoryMode,
    ModelConfig,
    activation_bytes,
    memory_for_mode,
    param_elements,
)
from mezofit.model import (
    _GELU_A,
    _GELU_C,
    _NORM_EPS,
    _LIBC,
    _ROPE_BASE,
    _TILE,
    LedgerMode,
    ToyTransformer,
    _gelu,
    _gelu_backward,
    _loss_backward,
    _rms_inv,
    _rmsnorm_backward,
    _rope,
    _rope_tables,
    loss_from_logits,
)
from mezofit.tasks import TaskKind, ToyTask
from mezofit.zo import ParameterVector, Segment, ZOConfig, bp_sgd_step, mezo_step

CFG = ModelConfig(context_length=8, num_layers=2, hidden_dim=16, num_heads=4,
                  vocab_size=32, batch_size=2)


@pytest.fixture(scope="module")
def model():
    return ToyTransformer(CFG)


@pytest.fixture(scope="module")
def params(model):
    return model.init_params(7)


def tokens_for(cfg, seed=3, batch=None):
    rng = np.random.default_rng(seed)
    b = batch if batch is not None else cfg.batch_size
    return rng.integers(0, cfg.vocab_size, size=(b, cfg.context_length))


def traced_peak(call) -> int:
    """tracemalloc's peak over one call(), after one untraced call that warms
    numpy's caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_single_token(model, params):
    logits, _ = model.forward(params, np.array([[5]]))
    assert logits.shape == (1, 1, 32)
    assert np.all(np.isfinite(logits))


def test_forward_zero_head_gives_zero_logits(model):
    params = model.init_params(7)
    params.values[:] = 0.0
    model._views(params)[0]["embed"][:] = 1.0  # any embedding; head of zeros kills it
    logits, _ = model.forward(params, tokens_for(CFG))
    assert np.all(logits == 0.0)


def test_forward_bit_stable_and_golden(model):
    params = model.init_params(2024)
    tokens = np.arange(8).reshape(1, 8) % 32
    a, _ = model.forward(params, tokens)
    b, _ = model.forward(params, tokens)
    assert a.tobytes() == b.tobytes()
    # frozen snapshot values generated once from this implementation
    assert float(a.sum()) == pytest.approx(23.38793084604861, rel=1e-10)
    assert a[0, 0, 0] == pytest.approx(1.1795054831278684, rel=1e-10)
    assert a[0, 3, 7] == pytest.approx(1.9868070595769118, rel=1e-10)
    assert a[0, 7, 31] == pytest.approx(-0.2100255451765242, rel=1e-10)
    assert a[0, 5, 16] == pytest.approx(-1.3939548230480003, rel=1e-10)


def test_forward_rejects_bad_tokens(model, params):
    with pytest.raises(ValueError, match="out of range"):
        model.forward(params, np.array([[32]]))
    with pytest.raises(ValueError, match="out of range"):
        model.forward(params, np.array([[-1]]))
    with pytest.raises(ValueError, match="context_length"):
        model.forward(params, np.zeros((1, 9), dtype=int))
    with pytest.raises(ValueError, match="batch"):
        model.forward(params, np.zeros(4, dtype=int))


def test_causality(model, params):
    tokens = tokens_for(CFG, seed=11)
    base, _ = model.forward(params, tokens)
    for j in (1, 4, 7):
        changed = tokens.copy()
        changed[:, j] = (changed[:, j] + 1) % CFG.vocab_size
        out, _ = model.forward(params, changed)
        assert np.array_equal(base[:, :j], out[:, :j])
        assert not np.array_equal(base[:, j:], out[:, j:])


def test_attention_softmax_rows_sum_to_one(model, params):
    logits, cache = model.forward(params, tokens_for(CFG), LedgerMode.BP)
    for c in cache["layers"]:
        sums = c["probs"].sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) < 1e-12)
    p = np.exp(logits - logits.max(-1, keepdims=True))
    p /= p.sum(-1, keepdims=True)
    assert np.all(np.abs(p.sum(-1) - 1.0) < 1e-12)


@pytest.mark.parametrize("cfg, F", [(CFG, 64),
                                    (CFG.replace(num_layers=3, expansion_factor=2.5), 40)],
                         ids=["ffn-4D", "ffn-2.5D"])
def test_param_count_matches_a_longhand_count(cfg, F):
    model = ToyTransformer(cfg)
    L, D, V = cfg.num_layers, cfg.hidden_dim, cfg.vocab_size
    # per layer: two norm gains, q/k/v/o and the FFN's two matrices; then the
    # embedding, the final norm gain and the head
    expected = L * (2 * D + 4 * D * D + 2 * D * F) + V * D + D + V * D
    assert model.param_count() == len(model.init_params(0)) == expected
    # the analytic count is the same layout less the 2L + 1 norm gains
    assert param_elements(cfg) == expected - (2 * L + 1) * D


def test_toy_config_validation():
    with pytest.raises(ConfigError, match="kv_heads"):
        ToyTransformer(CFG.replace(kv_heads=2))
    with pytest.raises(ConfigError, match="num_mlps"):
        ToyTransformer(CFG.replace(num_mlps=3))
    with pytest.raises(ConfigError, match="even"):
        # head_dim = 21/7 = 3
        ToyTransformer(ModelConfig(context_length=8, num_layers=1,
                                   hidden_dim=21, num_heads=7, vocab_size=8))


def test_init_params_writes_theta_once():
    # beside theta, one segment's noise at a time; joining separately built
    # segments held theta twice at this step-mid config (13,932,260 B)
    model = ToyTransformer(ModelConfig(context_length=64, num_layers=4, hidden_dim=128,
                                       num_heads=4, vocab_size=256, batch_size=8))
    largest = max(seg.length for seg in model.init_params(0).segments)
    assert traced_peak(lambda: model.init_params(11)) <= 8 * (model.param_count() + largest) + 4096


def call_entry(model, entry, params, tokens, targets):
    if entry == "forward":
        return model.forward(params, tokens)
    if entry == "loss_fn":
        return model.loss_fn(tokens, targets)(params)
    return getattr(model, entry)(params, tokens, targets)


ENTRIES = ["forward", "loss_fn", "correct", "backward"]


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case", ["deeper-model", "one-segment"])
def test_parameters_of_another_layout_are_refused(model, entry, case):
    # a 2-layer theta on a 1-layer model; the right length in one segment
    one_layer = ToyTransformer(CFG.replace(num_layers=1))
    if case == "deeper-model":
        params = model.init_params(7)
    else:
        values = one_layer.init_params(7).values
        params = ParameterVector(values, (Segment("w", 0, values.size),))
    tokens, targets = tokens_for(CFG), tokens_for(CFG, seed=4)
    with pytest.raises(ValueError, match="not laid out as this model's segments"):
        call_entry(one_layer, entry, params, tokens, targets)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_loss_uniform_logits_is_log_vocab():
    logits = np.zeros((2, 5, 32))
    targets = np.zeros((2, 5), dtype=int)
    assert loss_from_logits(logits, targets) == pytest.approx(np.log(32), rel=1e-14)


def test_loss_one_hot_margin_goes_to_zero():
    logits = np.full((1, 3, 8), -50.0)
    targets = np.array([[1, 5, 2]])
    for i, t in enumerate(targets[0]):
        logits[0, i, t] = 50.0
    assert loss_from_logits(logits, targets) < 1e-12


def test_loss_matches_naive_log_softmax_oracle():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((3, 6, 17)) * 4
    targets = rng.integers(0, 17, size=(3, 6))
    targets[0, 2] = -1  # masked position
    total, count = 0.0, 0
    for b in range(3):
        for n in range(6):
            if targets[b, n] < 0:
                continue
            row = logits[b, n]
            total += -(row[targets[b, n]] - np.log(np.sum(np.exp(row))))
            count += 1
    assert loss_from_logits(logits, targets) == pytest.approx(total / count, rel=1e-12)


def test_loss_shape_mismatch():
    with pytest.raises(ValueError, match="match"):
        loss_from_logits(np.zeros((1, 4, 8)), np.zeros((1, 5), dtype=int))
    with pytest.raises(ValueError, match="unmasked"):
        loss_from_logits(np.zeros((1, 2, 8)), np.full((1, 2), -1))


@pytest.mark.parametrize("target", [-7, -2, 8])
def test_loss_from_logits_refuses_a_target_that_is_neither_minus_one_nor_an_id(target):
    with pytest.raises(ValueError, match="target id out of range for 8 logits"):
        loss_from_logits(np.zeros((1, 2, 8)), np.array([[3, target]]))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_unused_embedding_row_has_zero_gradient(model, params):
    tokens = np.full((2, 8), 3)
    targets = np.full((2, 8), 4)
    grad, _ = model.backward(params, tokens, targets)
    gemb = model._views(grad)[0]["embed"]
    assert np.all(gemb[7] == 0.0)  # token 7 never appears
    assert np.any(gemb[3] != 0.0)


def test_backward_loss_matches_forward_loss(model, params):
    tokens = tokens_for(CFG, seed=5)
    targets = tokens_for(CFG, seed=6)
    logits, _ = model.forward(params, tokens)
    grad, loss = model.backward(params, tokens, targets)
    assert loss == loss_from_logits(logits, targets)  # one shared NLL routine
    assert np.all(np.isfinite(grad.values))


def _gelu_backward_reference(du_out, u):
    u2 = u * u
    t = np.tanh(_GELU_C * (u + _GELU_A * u2 * u))
    local = 0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * u2)
    return du_out * local


def _rmsnorm_backward_reference(dy, x, gain):
    r = _rms_inv(x)
    dgain = np.sum(dy * x * r, axis=(0, 1))
    s = np.sum(dy * gain * x, axis=-1, keepdims=True)
    dx = dy * gain * r - x * (r ** 3) * s / x.shape[-1]
    return dx, dgain


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 5), (3, 7, 33), (8, 64, 128), (3, 41, 173)])
def test_in_place_primitives_match_the_plain_expressions_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    u, da = rng.standard_normal(shape) * 3, rng.standard_normal(shape)
    want = _gelu_backward_reference(da, u).tobytes()
    assert _gelu_backward(da.copy(), u.copy()).tobytes() == want
    dy, x, gain = (rng.standard_normal(shape), rng.standard_normal(shape),
                   rng.standard_normal(shape[-1]))
    got = _rmsnorm_backward(dy.copy(), x, gain, _rms_inv(x))
    want = _rmsnorm_backward_reference(dy, x, gain)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _half_view_rope(x, cos, sin):
    """The rotation over stride-2 half-width views of (B, N, H, dh) heads,
    cos/sin (N, dh/2): e*c - o*s and e*s + o*c, each into its half."""
    e, o = x[..., 0::2], x[..., 1::2]
    c, s = cos[None, :, None, :], sin[None, :, None, :]
    out = np.empty_like(x)
    oe, oo = out[..., 0::2], out[..., 1::2]
    np.multiply(e, c, out=oe)
    oe -= o * s
    np.multiply(e, s, out=oo)
    oo += o * c
    return out


@pytest.mark.parametrize("heads,n", [(2, 64), (2, 37), (4, 64), (4, 1)])
def test_full_width_rope_is_the_half_view_rotation_bitwise(heads, n):
    # a 64-position context cropped to n, at dh = 16
    dh, context = 16, 64
    inv_freq = _ROPE_BASE ** (-np.arange(0, dh, 2) / dh)
    ang = np.arange(context)[:, None] * inv_freq[None, :]
    cos, sin = np.cos(ang)[:n], np.sin(ang)[:n]
    x = np.random.default_rng(n).standard_normal((3, n, heads, dh)) * 5
    for tables, sign in zip(_rope_tables(context, dh, heads), (1.0, -1.0)):  # forward, inverse
        got = x.reshape(3, n, heads * dh).copy()
        assert _rope(got, *tables) is got
        assert got.tobytes() == _half_view_rope(x, cos, sign * sin).tobytes()


def test_rope_tables_and_causal_mask_are_read_only():
    model = ToyTransformer(CFG)
    for table in (*model._rot, *model._unrot, model._neg_mask):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


def test_rmsnorm_backward_works_through_one_scratch_buffer():
    # dx takes dy's buffer and r is cubed in place, so beside one B*N*D
    # scratch buffer it allocates the B*N row term s and the D-element dgain;
    # the B*N row term r is formed by _rms_inv just before, as backward does.
    # numpy's broadcast ufuncs (x * r) also allocate one buffer of
    # np.getbufsize() elements; the slack covers array headers, the ufunc's
    # iterator and numpy's cache of small dimension buffers.
    B, N, D = 8, 64, 128
    rng = np.random.default_rng(0)
    (x, dy), gain = rng.standard_normal((2, B, N, D)), rng.standard_normal(D)
    peak = traced_peak(lambda: _rmsnorm_backward(dy, x, gain, _rms_inv(x)))
    assert peak <= 8 * (B * N * D + 2 * B * N + D + np.getbufsize()) + 2048


def test_gelu_backward_works_through_three_tiles():
    # 262,144 elements: three untiled scratch buffers would be 6 MB
    rng = np.random.default_rng(0)
    u, da = rng.standard_normal((2, 8, 64, 512))
    assert traced_peak(lambda: _gelu_backward(da, u)) <= 3 * 8 * _TILE + 4096


@pytest.mark.parametrize("size", [1, _TILE - 1, _TILE, 2 * _TILE + 3])
def test_gelu_backward_leaves_gelu_of_u_in_u(size):
    # The backward rebuilds the GELU output the BP cache does not hold from
    # the tanh it already forms; 2*_TILE + 3 ends on a short tile.
    rng = np.random.default_rng(size)
    u, da = rng.standard_normal(size) * 3, rng.standard_normal(size)
    want_a, want_da = _gelu(u).tobytes(), _gelu_backward_reference(da, u).tobytes()
    got_da = _gelu_backward(da, u)
    assert got_da is da and da.tobytes() == want_da
    assert u.tobytes() == want_a


# u has 17,384 elements: 1000 and 7 leave a short last tile, _TILE + 3 one
# past the default tile
@pytest.mark.parametrize("size", [1, 7, 1000, _TILE + 3, 17_383, 17_384, 17_389])
def test_gelu_through_a_callers_scratch_matches_the_plain_expression_bitwise(size):
    rng = np.random.default_rng(size)
    u = rng.standard_normal((4, 41, 106)) * 3
    want = (u * 0.5 * (1.0 + np.tanh((u * u * _GELU_A * u + u) * _GELU_C))).tobytes()
    before = u.tobytes()
    # the scratch's contents are dead: NaN there must not reach the output
    assert _gelu(u, scratch=np.full(size, np.nan)).tobytes() == want
    assert u.tobytes() == before
    assert _gelu(u, u, np.full(size, np.nan)) is u and u.tobytes() == want


def test_gelu_in_place_through_a_callers_scratch_allocates_no_array():
    # the FFN's MeZO-mode call: u's 131,072 elements through a normed input
    # of 32,768, four tiles. Its few array views take under 1 KiB (928 B
    # measured); 96 B more for numpy's cache of small dimension buffers.
    rng = np.random.default_rng(0)
    u, h = rng.standard_normal((4, 64, 512)), np.empty((4, 64, 128))
    assert traced_peak(lambda: _gelu(u, u, h)) <= 1024 + 96


def _full_log_softmax_reference(logits, targets):
    """The loss and its logits gradient through the full log-probabilities."""
    mask = targets >= 0
    count = int(mask.sum())
    logp = logits - logits.max(axis=-1, keepdims=True)
    logp -= np.log(np.sum(np.exp(logp), axis=-1, keepdims=True))
    picked = np.take_along_axis(logp, np.where(mask, targets, 0)[..., None], axis=-1)[..., 0]
    dlogits = np.exp(logp)
    rows = np.nonzero(mask)
    dlogits[rows[0], rows[1], targets[mask]] -= 1.0
    dlogits *= mask[..., None] / count
    return float(-np.sum(picked, where=mask) / count), dlogits


@pytest.mark.parametrize("changes,n", [
    ({}, 8),
    # B*N*F = 21,312 and B*N*V = 33,411: more than one tile, neither a multiple
    (dict(context_length=40, hidden_dim=48, vocab_size=301, batch_size=3), 37),
    # each row wider than one tile
    (dict(num_layers=1, hidden_dim=8, num_heads=2, kv_heads=2, vocab_size=_TILE + 27), 5),
], ids=["one-tile", "odd-V-cropped-N", "V-past-one-tile"])
def test_lean_forward_and_loss_match_the_full_expressions_bitwise(changes, n):
    cfg = CFG.replace(**changes)
    model = ToyTransformer(cfg)
    params = model.init_params(4)
    tokens = tokens_for(cfg, seed=8)[:, :n]
    targets = tokens_for(cfg, seed=9)[:, :n]
    targets[0, ::3] = -1
    logits, _ = model.forward(params, tokens)
    assert logits.tobytes() == model.forward(params, tokens, LedgerMode.BP)[0].tobytes()
    want_loss, want_dlogits = _full_log_softmax_reference(logits, targets)
    loss, dlogits = _loss_backward(logits, targets)
    assert loss_from_logits(logits, targets) == loss == want_loss
    # the bound loss never builds the logits: one block, blocks of 2 and 1,
    # and one sequence per block
    assert model.loss_fn(tokens, targets)(params) == loss \
        == model.backward(params, tokens, targets)[1]
    assert dlogits.tobytes() == want_dlogits.tobytes()
    u = np.random.default_rng(n).standard_normal(
        (cfg.batch_size, n, model.ffn_dim)) * 3
    want = (u * 0.5 * (1.0 + np.tanh((u * u * _GELU_A * u + u) * _GELU_C))).tobytes()
    assert _gelu(u).tobytes() == want
    assert _gelu(u, out=u).tobytes() == want
    x = u[..., :cfg.hidden_dim]
    assert _rms_inv(x).tobytes() == (
        1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + _NORM_EPS)).tobytes()


def test_backward_repeats_bitwise_and_leaves_its_inputs_alone(model, params):
    tokens, targets = tokens_for(CFG, seed=5), tokens_for(CFG, seed=6)
    targets[0, 2] = -1
    before = [a.tobytes() for a in (params.values, tokens, targets)]
    (g1, loss1), (g2, loss2) = (model.backward(params, tokens, targets) for _ in range(2))
    assert g1.values.tobytes() == g2.values.tobytes() and loss1 == loss2
    assert [a.tobytes() for a in (params.values, tokens, targets)] == before


def test_step_mid_gradient_matches_its_pinned_digest():
    # The seed-0 BP gradient of the benchmark's step-mid config
    # (perfbench/step_mid.ini) on its next-token batch, recorded with numpy
    # 2.4.6 on x86-64: a refactor of the forward or backward must keep it to
    # the bit.
    cfg = ModelConfig(context_length=64, num_layers=4, hidden_dim=128, num_heads=4,
                      vocab_size=256, batch_size=8)
    model = ToyTransformer(cfg)
    task = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, cfg.vocab_size, cfg.context_length, 0)
    grad, loss = model.backward(model.init_params(0), *task.batch(range(8)))
    assert hashlib.sha256(grad.values.tobytes()).hexdigest().startswith("c952af9ad7809d6d")
    assert loss == 6.309151939492573


def test_train_matched_bp_gradient_matches_its_pinned_digest():
    # The seed-0 BP gradient of the benchmark's train-matched BP model
    # (perfbench/train_matched.ini: D=8, N=4, H=2, V=8, B=16, L=1) on its
    # first batch, recorded with numpy 2.4.6 on x86-64, so bit-exactness is
    # guarded at tiny BLAS shapes as well as at step-mid's.
    cfg = ModelConfig(context_length=4, num_layers=1, hidden_dim=8, num_heads=2,
                      vocab_size=8, batch_size=16)
    model = ToyTransformer(cfg)
    task = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, cfg.vocab_size, 8, 0)
    tokens, targets = (a[:, -cfg.context_length:] for a in task.batch(range(16)))
    grad, loss = model.backward(model.init_params(0), tokens, targets)
    assert hashlib.sha256(grad.values.tobytes()).hexdigest().startswith("6957731670a20725")
    assert loss == 2.1342525102144827


def test_step_mid_mezo_step_matches_its_pinned_digest():
    # One seed-0 MeZO step at the step-mid config (one sequence per block,
    # dh=32, 14 noise chunks), through the bound loss and through forward
    # plus loss_from_logits, recorded with numpy 2.4.6 on x86-64: sha256 of
    # theta after the step, then the losses, then the projected gradients.
    cfg = ModelConfig(context_length=64, num_layers=4, hidden_dim=128, num_heads=4,
                      vocab_size=256, batch_size=8)
    model = ToyTransformer(cfg)
    tokens, targets = ToyTask(TaskKind.NEXT_TOKEN_SYNTHETIC, cfg.vocab_size,
                              cfg.context_length, 0).batch(range(8))
    for loss_fn in (model.loss_fn(tokens, targets),
                    lambda p: loss_from_logits(model.forward(p, tokens)[0], targets)):
        theta, report = mezo_step(loss_fn, model.init_params(0), ZOConfig(1e-3, 1e-4, 5, 0), 0)
        digest = hashlib.sha256(theta.values.tobytes())
        digest.update(np.array(report.losses, dtype=np.float64).tobytes())
        digest.update(np.array(report.projected_gradients, dtype=np.float64).tobytes())
        assert digest.hexdigest().startswith("e6d43b6c12b5ddf4")


def test_backward_gradient_is_a_fresh_contiguous_vector(model, params):
    tokens, targets = tokens_for(CFG, seed=5), tokens_for(CFG, seed=6)
    g1, _ = model.backward(params, tokens, targets)
    g2, _ = model.backward(params, tokens, targets)
    for g in (g1, g2):
        assert g.segments == params.segments
        assert g.values.dtype == np.float64 and g.values.flags.c_contiguous
        assert g.values.flags.owndata and g.values.base is None
        assert not np.shares_memory(g.values, params.values)
    assert not np.shares_memory(g1.values, g2.values)


@pytest.mark.skipif(not hasattr(_LIBC, "mallopt"), reason="needs glibc's mallopt")
def test_warm_bp_step_reuses_the_pages_of_its_cache():
    # A count, not a time. Under glibc's default dynamic thresholds each step
    # at this config gives its ~25 MB cache back to the kernel and takes about
    # 9,800 minor faults to get it back.
    import resource  # Unix only, like mallopt
    cfg = ModelConfig(context_length=64, num_layers=4, hidden_dim=128, num_heads=4,
                      vocab_size=256, batch_size=8)
    model = ToyTransformer(cfg)
    theta = model.init_params(0)
    tokens, targets = tokens_for(cfg, seed=1), tokens_for(cfg, seed=2)
    step = lambda: bp_sgd_step(lambda t: model.backward(t, tokens, targets), theta, 1e-4)
    for _ in range(2):
        step()
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


# ---------------------------------------------------------------------------
# activations: the BP cache and the MeZO forward's peak
# ---------------------------------------------------------------------------

def layer_sizes(cache) -> list[dict[str, int]]:
    """Per layer, the elements the BP cache holds for attention scores,
    attention (rotated queries and keys, values, context), FFN
    (pre-activation) and the two norm inputs."""
    groups = dict(scores=("probs",), attn=("q4", "k4", "v4", "ctx"),
                  ffn=("u",), norm=("x_in", "x_mid"))
    return [{g: sum(c[k].size for k in keys) for g, keys in groups.items()}
            for c in cache["layers"]]


def cache_bytes(cache) -> int:
    return sum(a.nbytes for c in cache["layers"] for a in c.values()) + cache["x_f"].nbytes


def bp_cache(cfg):
    model = ToyTransformer(cfg)
    return model.forward(model.init_params(7), tokens_for(cfg), LedgerMode.BP)[1]


@pytest.mark.parametrize("n", [8, 5])
def test_bp_cache_holds_what_backward_reads(model, params, n):
    tokens = tokens_for(CFG)[:, :n]
    logits, cache = model.forward(params, tokens, LedgerMode.BP)
    mezo_logits, nothing = model.forward(params, tokens)
    assert nothing is None  # MeZO, the default, keeps nothing
    assert logits.tobytes() == mezo_logits.tobytes()
    B, D, H, F = CFG.batch_size, CFG.hidden_dim, CFG.num_heads, model.ffn_dim
    # nothing one elementwise op rebuilds: no normed input, no GELU output
    assert sorted(cache) == ["layers", "x_f"]
    assert all(sorted(c) == ["ctx", "k4", "probs", "q4", "u", "v4", "x_in", "x_mid"]
               for c in cache["layers"])
    assert layer_sizes(cache) == CFG.num_layers * [dict(
        scores=B * H * n * n, attn=4 * B * n * D, ffn=B * n * F, norm=2 * B * n * D)]
    assert cache["x_f"].shape == (B, n, D)
    # layer 0 reads the embedding rows themselves
    embed = model._views(params)[0]["embed"]
    assert cache["layers"][0]["x_in"].tobytes() == embed[tokens].tobytes()


@pytest.mark.parametrize("doubled,ratios", [
    ("context_length", dict(scores=4, attn=2, ffn=2, norm=2)),
    ("hidden_dim", dict(scores=1, attn=2, ffn=2, norm=2)),
], ids=["2N", "2D"])
def test_bp_cache_scaling_laws(doubled, ratios):
    base = layer_sizes(bp_cache(CFG))
    twice = layer_sizes(bp_cache(CFG.replace(**{doubled: 2 * getattr(CFG, doubled)})))
    assert [{g: t[g] / b[g] for g in b} for b, t in zip(base, twice)] == \
        CFG.num_layers * [ratios]


@pytest.mark.parametrize("changes", [{}, dict(context_length=16), dict(hidden_dim=32),
                                     *(dict(expansion_factor=e) for e in (1.0, 2.0, 8.0))],
                         ids=["base", "2N", "2D", "ffn-1D", "ffn-2D", "ffn-8D"])
def test_bp_cache_within_activation_bytes(changes):
    cfg = CFG.replace(**changes)
    assert cache_bytes(bp_cache(cfg)) <= activation_bytes(cfg.replace(bytes_per_param=8.0))


@pytest.mark.parametrize("n", [8, 5])
@pytest.mark.parametrize("stored", [0.0, 0.25, 1.0, 3.5, 4.0])
def test_mezo_forward_peak_within_one_layer_of_the_bp_cache(stored, n):
    cfg = ModelConfig(context_length=8, num_layers=4, hidden_dim=16, num_heads=4,
                      vocab_size=32, batch_size=2, stored_layers=stored)
    model = ToyTransformer(cfg)
    params, tokens = model.init_params(1), tokens_for(cfg)[:, :n]
    cache = model.forward(params, tokens, LedgerMode.BP)[1]
    # one layer's forward arrays by shape: x_in, its normed input, q, k, v,
    # ctx, x_mid and its normed input (8*B*n*D), the scores (B*H*n*n), and
    # the FFN's pre-activation and GELU output (2*B*n*F). The BP cache keeps
    # only some of them.
    B, D, H, F = cfg.batch_size, cfg.hidden_dim, cfg.num_heads, model.ffn_dim
    one_layer = 8 * (8 * B * n * D + B * H * n * n + 2 * B * n * F)
    model.forward(params, tokens)  # warm up
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            assert model.forward(params, tokens)[1] is None
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(set(peaks)) == 1  # the same count on every repeat
    assert peaks[0] <= one_layer and cache_bytes(cache) / cfg.num_layers <= one_layer


def test_mezo_forward_peak_does_not_grow_with_stored_layers():
    cfg = ModelConfig(context_length=16, num_layers=4, hidden_dim=32, num_heads=4,
                      vocab_size=32, batch_size=2, stored_layers=0.0)
    tokens = tokens_for(cfg)

    def peak(stored):
        model = ToyTransformer(cfg.replace(stored_layers=stored))
        params = model.init_params(1)
        return traced_peak(lambda: model.forward(params, tokens, mode=LedgerMode.MEZO))

    assert peak(4.0) <= 1.05 * peak(0.0)


def test_ledger_mezo_retains_one_layer_of_four():
    cfg = ModelConfig(context_length=8, num_layers=4, hidden_dim=16,
                      num_heads=4, vocab_size=32, batch_size=2, stored_layers=1.0)
    model = ToyTransformer(cfg)
    params, tokens = model.init_params(1), tokens_for(cfg)
    peak = lambda mode: traced_peak(lambda: model.forward(params, tokens, mode=mode))
    # measured against the BP forward's own peak, which holds all four layers
    mz = peak(LedgerMode.MEZO)
    assert 0 < mz <= peak(LedgerMode.BP) / cfg.num_layers


def test_ledger_mezo_zero_stored_layers_retains_nothing(model, params):
    cfg = CFG.replace(stored_layers=0.0)
    zero, tokens = ToyTransformer(cfg), tokens_for(cfg)
    zero.forward(params, tokens, mode=LedgerMode.MEZO)  # warm up
    tracemalloc.start()
    try:
        logits, cache = zero.forward(params, tokens, mode=LedgerMode.MEZO)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cache is None
    B, N, D = cfg.batch_size, cfg.context_length, cfg.hidden_dim
    assert logits.shape == (B, N, cfg.vocab_size)  # the loss still needs the logits
    # past the logits, less than one (B, N, D) activation outlives the forward
    assert live - logits.nbytes < 8 * B * N * D
    assert logits.tobytes() == model.forward(params, tokens)[0].tobytes()


@pytest.mark.parametrize("D,L,V,B", [(64, 4, 64, 4), (128, 4, 256, 8)])
def test_mezo_loss_peak_within_analytic_activations(D, L, V, B):
    # The bound is the MeZO activation term of memory_for_mode at 8 B per float64 element,
    # plus the logits, log-probabilities and their exp (3*B*N*V elements),
    # which the formula leaves out.
    cfg = ModelConfig(context_length=64, num_layers=L, hidden_dim=D, num_heads=4,
                      vocab_size=V, batch_size=B, stored_layers=1.0)
    model = ToyTransformer(cfg)
    params = model.init_params(0)
    tokens, targets = tokens_for(cfg, seed=1), tokens_for(cfg, seed=2)
    peak = traced_peak(lambda: loss_from_logits(
        model.forward(params, tokens, mode=LedgerMode.MEZO)[0], targets))
    N = cfg.context_length
    acts = memory_for_mode(cfg.replace(bytes_per_param=8.0), MemoryMode.MEZO).activations_bytes
    assert peak <= acts + 3 * B * N * V * 8


def entry_calls(model, tokens, targets):
    """One call per `peak_bytes` entry, on seed-0 parameters."""
    params = model.init_params(0)
    bound_loss = model.loss_fn(tokens, targets)
    return dict(backward=lambda: model.backward(params, tokens, targets),
                forward=lambda: loss_from_logits(model.forward(params, tokens)[0], targets),
                loss=lambda: bound_loss(params),
                correct=lambda: model.correct(params, tokens, targets))


# (D, V, B) at L=4, N=64: a one-block batch, and the step-mid shape. Against
# these bounds a GELU with its own tile beside the FFN's live set broke
# "forward" and "loss" at step-mid (1,514,376 B against 1,458,176, 465,016
# against 413,696), and an evaluation through forward broke "correct"
# (4,726,328 and 17,179,448 B against 540,672 and 409,600).
PEAK_SHAPES = {"D64-V64": (64, 64, 4), "step-mid": (128, 256, 8)}


@pytest.mark.parametrize("entry,shape", [
    *((e, s) for e in ("backward", "forward", "loss", "correct") for s in PEAK_SHAPES),
    ("step", "D64-V64")])
def test_peak_within_peak_bytes(entry, shape):
    D, V, B = PEAK_SHAPES[shape]
    cfg = ModelConfig(context_length=64, num_layers=4, hidden_dim=D, num_heads=4,
                      vocab_size=V, batch_size=B, stored_layers=1.0)
    model, N = ToyTransformer(cfg), cfg.context_length
    # `correct` reads the 128 sequences an evaluation reads, not a step's batch
    n = EVAL_SEQUENCES if entry == "correct" else B
    calls = entry_calls(model, tokens_for(cfg, seed=1, batch=n), tokens_for(cfg, seed=2, batch=n))
    if entry not in calls:
        with pytest.raises(ValueError, match="unknown entry 'step'"):
            model.peak_bytes(entry, n, N)
        return
    peak, bound = traced_peak(calls[entry]), model.peak_bytes(entry, n, N)
    assert peak <= bound
    if entry == "loss":  # below forward plus loss_from_logits, which holds all B*N*V logits
        assert peak < traced_peak(calls["forward"])
    if entry == "correct":  # nothing grows with the sequences past one block
        assert bound < 8 * n * N * V


# (D, V, B, L, N), with H = 2 at D = 8 and 4 otherwise: small and
# weight-dominated configs. Against these, a "backward" bound of the top
# layer's FFN moment alone, without the flat gradient's 8*P, fell short by up
# to 5.4x (2,070,095 B against 385,632 at D=64, V=8, B=1, L=4, N=4), and
# "loss" and "forward" bounds without the log-sum-exp's broadcast buffer by up
# to 52,208 B (D=8, V=256, B=16, L=4, N=64). At L=12 a MeZO slack that does
# not grow with the layers' view tables fell short by 744 B.
OFF_GRID = [(64, 8, 1, 4, 4), (32, 64, 4, 3, 8), (8, 256, 16, 4, 64), (64, 256, 1, 1, 4),
            (8, 64, 4, 2, 16), (8, 256, 1, 4, 16), (8, 256, 1, 2, 16), (64, 64, 1, 2, 16),
            (32, 256, 4, 1, 16), (8, 256, 4, 1, 64), (64, 8, 16, 4, 16), (8, 8, 1, 12, 4)]


@pytest.mark.parametrize("shape", OFF_GRID, ids=lambda s: "D{}-V{}-B{}-L{}-N{}".format(*s))
def test_peak_within_peak_bytes_off_the_activation_grid(shape):
    D, V, B, L, N = shape
    cfg = ModelConfig(context_length=N, num_layers=L, hidden_dim=D,
                      num_heads=2 if D == 8 else 4, vocab_size=V, batch_size=B)
    model = ToyTransformer(cfg)
    calls = entry_calls(model, tokens_for(cfg, seed=1), tokens_for(cfg, seed=2))
    over = {entry: (peak, bound) for entry, call in calls.items()
            if (peak := traced_peak(call)) > (bound := model.peak_bytes(entry, B, N))}
    assert not over


# odd V, cropped N: 37 * 301 elements of logits per sequence give two
# sequences per block, so five sequences run as blocks of 2, 2 and 1
RAGGED = CFG.replace(context_length=40, hidden_dim=48, vocab_size=301, batch_size=5)


def test_mezo_forward_over_a_ragged_run_of_blocks_is_bitwise_one_block():
    cfg = RAGGED
    model, n = ToyTransformer(cfg), 37
    assert model._block_rows(n) == 2
    params = model.init_params(4)
    tokens = tokens_for(cfg, seed=8)[:, :n]
    targets = tokens_for(cfg, seed=9)[:, :n]
    targets[0, ::3] = -1
    logits, cache = model.forward(params, tokens)
    assert cache is None
    one_block = model.forward(params, tokens, LedgerMode.BP)[0]
    assert logits.tobytes() == one_block.tobytes()
    loss = loss_from_logits(logits, targets)
    assert loss == loss_from_logits(one_block, targets) == model.backward(params, tokens, targets)[1]
    peak = traced_peak(lambda: loss_from_logits(model.forward(params, tokens)[0], targets))
    assert peak <= model.peak_bytes("forward", cfg.batch_size, n)


@pytest.mark.parametrize("case", ["ragged-blocks", "masked", "zero-head"])
def test_correct_counts_the_argmax_hits_of_the_full_logits(case):
    model, n = ToyTransformer(RAGGED), 37
    params = model.init_params(4)
    if case == "zero-head":  # every logit ties, so every argmax is 0
        model._views(params)[0]["head"][:] = 0.0
    tokens = tokens_for(RAGGED, seed=8)[:, :n]
    hits = model.forward(params, tokens)[0].argmax(-1)
    # half the targets are the argmax, so the count is neither 0 nor all
    rng = np.random.default_rng(9)
    targets = np.where(rng.random(hits.shape) < 0.5, hits,
                       rng.integers(0, RAGGED.vocab_size, hits.shape))
    if case == "masked":
        targets[:, ::3] = -1
    want = np.count_nonzero(hits == targets)
    # a zero-head count of "picked logit == row max" would be every target
    assert 0 < want < np.count_nonzero(targets >= 0)
    assert model.correct(params, tokens, targets) == want


@pytest.mark.parametrize("value,where,hits", [
    (v, w, h) for v, row in ((np.nan, (5, 1, 0)), (np.inf, (5, 1, 6)), (-np.inf, (5, 1, 2)))
    for w, h in zip(("first", "middle", "last"), row)])
def test_a_non_finite_parameter_gives_a_nan_loss_and_a_fixed_count(model, params, value,
                                                                     where, hits):
    # The first coordinate is token 0's embedding, which the batch reads; the
    # middle one sits in a layer's weights, the last in the head. Each count
    # is the one the row maxima of np.maximum gave.
    rng = np.random.default_rng(3)
    tokens = rng.integers(0, CFG.vocab_size, size=(2, 8))
    tokens[0, 3] = 0
    argmax = model.forward(params, tokens)[0].argmax(-1)
    targets = np.where(rng.random(argmax.shape) < 0.5, argmax,
                       rng.integers(0, CFG.vocab_size, argmax.shape))
    broken = params.copy()
    broken.values[dict(first=0, middle=len(params) // 2, last=len(params) - 1)[where]] = value
    with np.errstate(all="ignore"):
        logits = model.forward(broken, tokens)[0]
        assert np.isnan(model.loss_fn(tokens, targets)(broken))
        assert np.isnan(loss_from_logits(logits, targets))
        assert np.isnan(model.backward(broken, tokens, targets)[1])
        assert model.correct(broken, tokens, targets) == hits \
            == np.count_nonzero(logits.argmax(-1) == targets)


def test_bound_loss_follows_its_parameters_in_place_and_across_arrays(model):
    tokens, targets = tokens_for(CFG, seed=8), tokens_for(CFG, seed=9)
    loss = model.loss_fn(tokens, targets)

    def reference(p):
        return loss_from_logits(model.forward(p, tokens)[0], targets)

    params, other = model.init_params(4), model.init_params(5)
    assert loss(params) == reference(params)
    params.values *= 0.5  # shifted in place, as MeZO does
    assert loss(params) == reference(params)
    assert loss(other) == reference(other)  # another array: its views are read afresh
    assert loss(params) == reference(params)


@pytest.mark.parametrize("entry,tokens,targets,match", [
    ("loss_fn", np.full((2, 8), 32), np.ones((2, 8), int), "token id out of range"),
    ("loss_fn", np.full((2, 8), -1), np.ones((2, 8), int), "token id out of range"),
    ("loss_fn", np.ones((2, 9), int), np.ones((2, 9), int), "exceeds context_length"),
    ("loss_fn", np.ones(8, int), np.ones(8, int), "batch, positions"),
    ("loss_fn", np.ones((2, 8), int), np.ones((2, 7), int), "differ in shape"),
    ("loss_fn", np.ones((2, 8), int), np.full((2, 8), -1), "no unmasked target"),
    ("loss_fn", np.ones((2, 8), int), np.full((2, 8), 32), "target id out of range"),
    ("correct", np.full((2, 8), 32), np.ones((2, 8), int), "token id out of range"),
    ("correct", np.ones((2, 9), int), np.ones((2, 9), int), "exceeds context_length"),
    ("correct", np.ones((2, 8), int), np.ones((2, 7), int), "differ in shape"),
], ids=["token-past-V", "negative-token", "past-context", "one-dim", "shapes",
        "all-masked", "target-past-V", "correct-token-past-V", "correct-past-context",
        "correct-shapes"])
def test_bound_loss_checks_its_batch_when_bound(model, params, entry, tokens, targets, match):
    # `correct`, which counts the argmax hits of an evaluation, checks its
    # batch as `loss_fn` does (a batch with no defined target counts 0)
    with pytest.raises(ValueError, match=match):
        if entry == "correct":
            model.correct(params, tokens, targets)
        else:
            model.loss_fn(tokens, targets)


def one_target_set(value):
    """(2, 8) targets of ones but for `value` at the first position."""
    targets = np.ones((2, 8), int)
    targets[0, 0] = value
    return targets


MALFORMED = {
    "float-tokens": (np.ones((2, 8)), np.ones((2, 8), int), "token ids must be integers"),
    "bool-tokens": (np.ones((2, 8), bool), np.ones((2, 8), int), "token ids must be integers"),
    "float-targets": (np.ones((2, 8), int), np.ones((2, 8)), "target ids must be integers"),
    # a target is -1 (ignored) or an id in [0, V): -7 is not masked, and V is no id
    "target-below-minus-one": (np.ones((2, 8), int), one_target_set(-7), "target id out of range"),
    "target-past-V": (np.ones((2, 8), int), one_target_set(32), "target id out of range"),
    "no-sequences": (np.ones((0, 8), int), np.ones((0, 8), int), "empty batch"),
    "no-positions": (np.ones((2, 0), int), np.ones((2, 0), int), "empty batch"),
}


@pytest.mark.parametrize("case,entry", [(c, e) for c in MALFORMED for e in ENTRIES
                                        if e != "forward" or "target" not in c])
def test_every_entry_refuses_a_malformed_batch(model, params, case, entry):
    tokens, targets, match = MALFORMED[case]
    with pytest.raises(ValueError, match=match):
        call_entry(model, entry, params, tokens, targets)
