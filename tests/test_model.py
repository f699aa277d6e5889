import json
import struct
import tracemalloc

import numpy as np
import pytest

from mezofit.memory import (
    ConfigError,
    ModelConfig,
    activation_bytes,
    mezo_memory,
    param_elements,
)
from mezofit.model import (
    _GELU_A,
    _GELU_C,
    _NORM_EPS,
    _TILE,
    LedgerMode,
    ToyTransformer,
    _gelu,
    _gelu_backward,
    _loss_backward,
    _rms_inv,
    _rmsnorm_backward,
    load_weights,
    loss_from_logits,
    save_weights,
)

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
    params.segment("embed")[:] = 1.0  # any embedding; head of zeros kills it
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


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_unused_embedding_row_has_zero_gradient(model, params):
    tokens = np.full((2, 8), 3)
    targets = np.full((2, 8), 4)
    grad, _ = model.backward(params, tokens, targets)
    gemb = grad.view("embed", (32, 16))
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


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 5), (3, 7, 33), (8, 64, 128)])
def test_in_place_primitives_match_the_plain_expressions_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    u, da = rng.standard_normal(shape) * 3, rng.standard_normal(shape)
    want = _gelu_backward_reference(da, u).tobytes()
    assert _gelu_backward(da.copy(), u.copy()).tobytes() == want
    dy, x, gain = (rng.standard_normal(shape), rng.standard_normal(shape),
                   rng.standard_normal(shape[-1]))
    got, want = _rmsnorm_backward(dy, x, gain), _rmsnorm_backward_reference(dy, x, gain)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


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


@pytest.mark.parametrize("D,L,V,B", [(64, 4, 64, 4), (128, 4, 256, 8)])
def test_bp_backward_peak_within_activations_gradient_and_scratch(D, L, V, B):
    # activation_bytes at 8 B per float64 element, plus the 8*P gradient, plus
    # k = 3 B*N*F buffers: the scratch of _gelu_backward (u*u, the tanh and
    # 1 - tanh^2), live beside the layer's cached u and the incoming gradient
    # of a, whose buffer replaces the cached a freed just before. The last
    # term is the logits, log-probabilities and dlogits (3*B*N*V elements).
    cfg = ModelConfig(context_length=64, num_layers=L, hidden_dim=D, num_heads=4,
                      vocab_size=V, batch_size=B, stored_layers=1.0)
    model = ToyTransformer(cfg)
    params = model.init_params(0)
    tokens, targets = tokens_for(cfg, seed=1), tokens_for(cfg, seed=2)
    model.backward(params, tokens, targets)  # warm up
    tracemalloc.start()
    try:
        model.backward(params, tokens, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N, F, k = cfg.context_length, model.ffn_dim, 3
    acts = activation_bytes(cfg.replace(bytes_per_param=8.0))
    assert peak <= acts + 8 * len(params) + k * 8 * B * N * F + 3 * 8 * B * N * V


# ---------------------------------------------------------------------------
# activations: the BP cache and the MeZO forward's peak
# ---------------------------------------------------------------------------

def layer_sizes(cache) -> list[dict[str, int]]:
    """Per layer, the elements the BP cache holds for attention scores,
    attention (normed input, rotated queries and keys, values, context), FFN
    (normed input, pre-activation, GELU output) and the two norm inputs."""
    groups = dict(scores=("probs",), attn=("h", "q4", "k4", "v4", "ctx"),
                  ffn=("h2", "u", "a"), norm=("x_in", "x_mid"))
    return [{g: sum(c[k].size for k in keys) for g, keys in groups.items()}
            for c in cache["layers"]]


def cache_bytes(cache) -> int:
    return (sum(a.nbytes for c in cache["layers"] for a in c.values())
            + cache["x_f"].nbytes + cache["hf"].nbytes)


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
    assert sorted(cache) == ["hf", "layers", "x_f"]
    assert layer_sizes(cache) == CFG.num_layers * [dict(
        scores=B * H * n * n, attn=5 * B * n * D, ffn=B * n * D + 2 * B * n * F,
        norm=2 * B * n * D)]
    assert cache["x_f"].shape == cache["hf"].shape == (B, n, D)
    # layer 0 reads the embedding rows themselves
    embed = params.view("embed", (CFG.vocab_size, D))
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
    one_layer = max(sum(a.nbytes for a in c.values()) for c in cache["layers"])
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
    assert peaks[0] <= one_layer <= cache_bytes(cache) / cfg.num_layers


def test_mezo_forward_peak_does_not_grow_with_stored_layers():
    cfg = ModelConfig(context_length=16, num_layers=4, hidden_dim=32, num_heads=4,
                      vocab_size=32, batch_size=2, stored_layers=0.0)
    tokens = tokens_for(cfg)

    def peak(stored):
        model = ToyTransformer(cfg.replace(stored_layers=stored))
        params = model.init_params(1)
        model.forward(params, tokens, mode=LedgerMode.MEZO)  # warm up
        tracemalloc.start()
        try:
            model.forward(params, tokens, mode=LedgerMode.MEZO)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4.0) <= 1.05 * peak(0.0)


def test_ledger_mezo_retains_one_layer_of_four():
    cfg = ModelConfig(context_length=8, num_layers=4, hidden_dim=16,
                      num_heads=4, vocab_size=32, batch_size=2, stored_layers=1.0)
    model = ToyTransformer(cfg)
    params, tokens = model.init_params(1), tokens_for(cfg)
    model.forward(params, tokens, mode=LedgerMode.BP)  # warm up

    def peak(mode):
        tracemalloc.start()
        try:
            model.forward(params, tokens, mode=mode)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

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
    # The bound is mezo_memory's activation term at 8 B per float64 element,
    # plus the logits, log-probabilities and their exp (3*B*N*V elements),
    # which the formula leaves out.
    cfg = ModelConfig(context_length=64, num_layers=L, hidden_dim=D, num_heads=4,
                      vocab_size=V, batch_size=B, stored_layers=1.0)
    model = ToyTransformer(cfg)
    params = model.init_params(0)
    tokens, targets = tokens_for(cfg, seed=1), tokens_for(cfg, seed=2)

    def loss():
        return loss_from_logits(model.forward(params, tokens, mode=LedgerMode.MEZO)[0], targets)

    loss()  # warm up
    tracemalloc.start()
    try:
        loss()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N = cfg.context_length
    acts = mezo_memory(cfg.replace(bytes_per_param=8.0)).activations_bytes
    assert peak <= acts + 3 * B * N * V * 8


@pytest.mark.parametrize("D,L,V,B", [(64, 4, 64, 4), (128, 4, 256, 8)])
def test_mezo_loss_peak_within_the_largest_block_and_one_tile(D, L, V, B):
    # Shape-derived live sets, in float64 elements, of the MeZO forward's
    # blocks when each buffer dies once the next operation has read it:
    # attention holds x_in, q, k, v and a rotated copy beside one half-width
    # rotary product, then x_in, q4, k4, v4 and the B*H*N*N scores; the FFN
    # x_mid, the normed input or the output, and the B*N*F pre-activation;
    # the head x, its norm and the logits. GELU and the loss's log-sum-exp
    # add one tile of scratch.
    cfg = ModelConfig(context_length=64, num_layers=L, hidden_dim=D, num_heads=4,
                      vocab_size=V, batch_size=B, stored_layers=1.0)
    model = ToyTransformer(cfg)
    params = model.init_params(0)
    tokens, targets = tokens_for(cfg, seed=1), tokens_for(cfg, seed=2)

    def loss():
        return loss_from_logits(model.forward(params, tokens)[0], targets)

    loss()  # warm up
    tracemalloc.start()
    try:
        loss()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N, H, F = cfg.context_length, cfg.num_heads, model.ffn_dim
    act = B * N * D
    attention = max(5.5 * act, 4 * act + B * H * N * N)
    ffn, head = 2 * act + B * N * F, 2 * act + B * N * V
    assert peak <= 8 * (max(attention, ffn, head) + _TILE)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_is_bit_exact(tmp_path, model, params):
    path = tmp_path / "weights.mzfw"
    save_weights(path, CFG, params)
    cfg2, params2 = load_weights(path)
    assert cfg2 == CFG
    assert params2.values.tobytes() == params.values.tobytes()
    assert params2.segments == params.segments


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="checkpoint"):
        load_weights(path)


def test_checkpoint_rejects_every_truncation_bad_magic_and_version(tmp_path):
    cfg = ModelConfig(context_length=4, num_layers=1, hidden_dim=4, num_heads=2,
                      vocab_size=8, batch_size=1)
    path = tmp_path / "w.mzfw"
    save_weights(path, cfg, ToyTransformer(cfg).init_params(0))
    blob = path.read_bytes()
    cut = tmp_path / "cut.mzfw"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_weights(cut)
    for bad in (b"MZFX" + blob[4:], blob[:4] + b"\x02" + blob[5:]):
        cut.write_bytes(bad)
        with pytest.raises(ValueError, match="checkpoint"):
            load_weights(cut)


def test_checkpoint_rejects_segments_that_do_not_fit_the_config(tmp_path):
    path = tmp_path / "w.mzfw"
    save_weights(path, CFG.replace(vocab_size=16), ToyTransformer(CFG).init_params(0))
    with pytest.raises(ValueError, match="embed"):
        load_weights(path)


def _with_config_blob(path, edit) -> None:
    """Rewrite the config blob of the checkpoint at `path` as edit(blob)."""
    data = path.read_bytes()
    version, blob_len = struct.unpack("<II", data[4:12])
    blob = json.dumps(edit(json.loads(data[12:12 + blob_len]))).encode()
    path.write_bytes(data[:4] + struct.pack("<II", version, len(blob)) + blob
                     + data[12 + blob_len:])


@pytest.mark.parametrize("edit, match", [
    (lambda b: {("batch_sz" if k == "batch_size" else k): v for k, v in b.items()},
     r"unknown keys \['batch_sz'\] and lacks keys \['batch_size'\]"),
    (lambda b: {k: v for k, v in b.items() if k != "batch_size"},
     r"unknown keys \[\] and lacks keys \['batch_size'\]"),
    (lambda b: [b], "not a JSON object"),
    (lambda b: {**b, "expansion_factor": "4"}, "checkpoint config is invalid"),
], ids=["renamed", "dropped", "not-an-object", "bad-value"])
def test_checkpoint_rejects_a_config_blob_that_is_not_a_model_config(tmp_path, edit, match):
    path = tmp_path / "w.mzfw"
    save_weights(path, CFG, ToyTransformer(CFG).init_params(0))
    _with_config_blob(path, edit)
    with pytest.raises(ValueError, match=match):
        load_weights(path)
