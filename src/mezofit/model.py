"""Desk-scale decoder-only transformer in plain numpy with exact gradients.

The stack is: token embedding, then per layer {RMS-norm, multi-head causal
self-attention with rotary position encoding, residual; RMS-norm, GELU FFN,
residual}, a final RMS-norm, and an untied LM head. Everything runs in
float64 and the backward pass is hand-written reverse mode, verified against
finite differences in the tests.

A forward pass also fills an ActivationLedger, derived from the input shapes.
In BP mode it counts the per-layer caches the backward pass reads. In MeZO
mode the forward itself retains no layer intermediates; the ledger is the
*modelled* buffer of ceil(stored_layers) layers from the memory formula.
"""
from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from mezofit.memory import ConfigError, ModelConfig, ParamCountMode, param_elements
from mezofit.zo import ParameterVector, keyed_philox, release_philox, splitmix64

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715
_NORM_EPS = 1e-6
_ROPE_BASE = 10000.0


class LedgerMode(str, Enum):
    BP = "bp"
    MEZO = "mezo"


@dataclass(frozen=True)
class ActivationLedger:
    """Element counts of activations retained during one forward pass.

    Computed from shapes. BP mode: what backward reads. MeZO mode: the
    modelled ceil(stored_layers)-layer buffer (the forward keeps none).
    """

    embeddings_elements: int
    attention_proj_elements: int
    attention_scores_elements: int
    ffn_elements: int
    norm_elements: int
    logits_elements: int
    mode: LedgerMode

    def nonscore_elements(self) -> int:
        return (self.embeddings_elements + self.attention_proj_elements
                + self.ffn_elements + self.norm_elements)

    def per_layer_elements(self) -> int:
        """Everything owned by the layer stack (scores included)."""
        return (self.attention_proj_elements + self.attention_scores_elements
                + self.ffn_elements + self.norm_elements)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def _rms_inv(x: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + _NORM_EPS)


def _rmsnorm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    y = x * _rms_inv(x)
    y *= gain
    return y


def _rmsnorm_backward(dy: np.ndarray, x: np.ndarray, gain: np.ndarray):
    r = _rms_inv(x)
    dgain = np.sum(dy * x * r, axis=(0, 1))
    s = np.sum(dy * gain * x, axis=-1, keepdims=True)
    dx = dy * gain * r - x * (r ** 3) * s / x.shape[-1]
    return dx, dgain


def _gelu(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5*u*(1 + tanh(c*(u + a*u*u*u))) as in-place ufuncs, in that order.

    `out` may be `u` itself; the result then overwrites it.
    """
    t = u * u
    t *= _GELU_A
    t *= u
    t += u
    t *= _GELU_C
    np.tanh(t, out=t)
    t += 1.0
    out = np.multiply(u, 0.5, out=out)
    out *= t
    return out


def _gelu_backward(du_out: np.ndarray, u: np.ndarray) -> np.ndarray:
    u2 = u * u
    t = np.tanh(_GELU_C * (u + _GELU_A * u2 * u))
    local = 0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * u2)
    return du_out * local


def _rope_tables(n: int, head_dim: int):
    inv_freq = _ROPE_BASE ** (-np.arange(0, head_dim, 2) / head_dim)
    ang = np.arange(n)[:, None] * inv_freq[None, :]  # (N, head_dim/2)
    return np.cos(ang), np.sin(ang)


def _rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate interleaved pairs of head dims by position-dependent angles.

    x: (B, N, H, dh); cos/sin: (N, dh/2). Non-parametric, orthogonal per pair.
    """
    e, o = x[..., 0::2], x[..., 1::2]
    c = cos[None, :, None, :]
    s = sin[None, :, None, :]
    out = np.empty_like(x)
    out[..., 0::2] = e * c - o * s
    out[..., 1::2] = e * s + o * c
    return out


def _rope_backward(dy: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    de, do = dy[..., 0::2], dy[..., 1::2]
    c = cos[None, :, None, :]
    s = sin[None, :, None, :]
    dx = np.empty_like(dy)
    dx[..., 0::2] = de * c + do * s
    dx[..., 1::2] = -de * s + do * c
    return dx


def loss_from_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy over positions with target >= 0 (-1 ignores)."""
    return _masked_nll(logits, targets)[0]


def _masked_nll(logits, targets):
    """(mean masked NLL, log-probabilities, mask, unmasked count)."""
    if logits.shape[:2] != targets.shape:
        raise ValueError(
            f"logits batch/positions {logits.shape[:2]} do not match targets {targets.shape}")
    mask = targets >= 0
    count = int(mask.sum())
    if count == 0:
        raise ValueError("no unmasked target positions")
    logp = logits - logits.max(axis=-1, keepdims=True)
    logp -= np.log(np.sum(np.exp(logp), axis=-1, keepdims=True))
    picked = np.take_along_axis(
        logp, np.where(mask, targets, 0)[..., None], axis=-1)[..., 0]
    return float(-np.sum(picked, where=mask) / count), logp, mask, count


def _loss_backward(logits, targets):
    loss, logp, mask, count = _masked_nll(logits, targets)
    dlogits = np.exp(logp)
    rows = np.nonzero(mask)
    dlogits[rows[0], rows[1], targets[mask]] -= 1.0
    dlogits *= mask[..., None] / count
    return loss, dlogits


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

class ToyTransformer:
    """Decoder-only transformer bound to one ModelConfig.

    Parameters live in a ParameterVector whose named segments match the
    generic parameter-count formula exactly (norm gains counted on top).
    """

    def __init__(self, cfg: ModelConfig):
        if cfg.kv_heads != cfg.num_heads:
            raise ConfigError("toy model implements full multi-head attention (kv_heads == num_heads)")
        if cfg.num_mlps != 2:
            raise ConfigError("toy model implements a two-matrix FFN (num_mlps == 2)")
        if cfg.head_dim % 2 != 0:
            raise ConfigError("head dimension must be even for rotary encoding")
        ffn = cfg.hidden_dim * cfg.expansion_factor
        if not (np.isfinite(ffn) and abs(ffn - round(ffn)) <= 1e-9):
            raise ConfigError(
                f"hidden_dim * expansion_factor must be a finite integer, got {ffn!r}")
        self.cfg = cfg
        self.ffn_dim = int(round(ffn))
        self._cos, self._sin = _rope_tables(cfg.context_length, cfg.head_dim)
        n = cfg.context_length
        self._neg_mask = np.where(np.tril(np.ones((n, n), dtype=bool)), 0.0, -np.inf)

    # -- parameters ---------------------------------------------------------

    def segment_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        D, V, F = self.cfg.hidden_dim, self.cfg.vocab_size, self.ffn_dim
        shapes: list[tuple[str, tuple[int, ...]]] = [("embed", (V, D))]
        for l in range(self.cfg.num_layers):
            shapes += [
                (f"layer{l}.norm_attn", (D,)),
                (f"layer{l}.wq", (D, D)),
                (f"layer{l}.wk", (D, D)),
                (f"layer{l}.wv", (D, D)),
                (f"layer{l}.wo", (D, D)),
                (f"layer{l}.norm_ffn", (D,)),
                (f"layer{l}.ffn_in", (D, F)),
                (f"layer{l}.ffn_out", (F, D)),
            ]
        shapes += [("norm_final", (D,)), ("head", (V, D))]
        return shapes

    def init_params(self, seed: int) -> ParameterVector:
        """Scaled-normal matrices (scale 1/sqrt(D)), unit norm gains."""
        scale = 1.0 / np.sqrt(self.cfg.hidden_dim)
        arrays = []
        base = splitmix64(seed & ((1 << 64) - 1))
        for idx, (name, shape) in enumerate(self.segment_shapes()):
            if name.endswith(("norm_attn", "norm_ffn", "norm_final")):
                arrays.append((name, np.ones(shape)))
            else:
                gen = keyed_philox(base, idx)
                arrays.append((name, gen.standard_normal(shape) * scale))
                release_philox(gen)
        return ParameterVector.from_arrays(arrays)

    def param_count(self) -> int:
        """Trainable elements: generic projection/FFN/embedding count plus
        the (2L+1)*D norm gains."""
        cfg = self.cfg
        return (param_elements(cfg, ParamCountMode.GENERIC)
                + (2 * cfg.num_layers + 1) * cfg.hidden_dim)

    # -- forward ------------------------------------------------------------

    def forward(self, params: ParameterVector, tokens: np.ndarray,
                mode: LedgerMode = LedgerMode.BP) -> tuple[np.ndarray, ActivationLedger]:
        logits, _, ledger = self._forward_impl(params, tokens, mode)
        return logits, ledger

    def _forward_impl(self, params, tokens, mode):
        cfg = self.cfg
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be (batch, positions), got shape {tokens.shape}")
        B, N = tokens.shape
        if N > cfg.context_length:
            raise ValueError(f"sequence length {N} exceeds context_length {cfg.context_length}")
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
            raise ValueError("token id out of range")
        D, H, F = cfg.hidden_dim, cfg.num_heads, self.ffn_dim
        L, V = cfg.num_layers, cfg.vocab_size
        cos, sin = self._cos[:N], self._sin[:N]
        bp = mode is LedgerMode.BP

        # Each block's temporaries die when it returns; only BP mode keeps
        # the cache backward reads.
        layers = []
        x = params.view("embed", (V, D))[tokens]
        for l in range(L):
            x, attn = self._attention(params, l, x, cos, sin, bp)
            x, ffn = self._ffn(params, l, x, bp)
            if bp:
                layers.append(dict(layer=l, **attn, **ffn))

        x_f = x
        hf = _rmsnorm(x_f, params.segment("norm_final"))
        logits = hf @ params.view("head", (V, D)).T

        # BP retains every layer's cache (above); MeZO retains nothing, and its
        # ledger models the ceil(stored_layers)-layer buffer of the formula.
        kept = L if bp else int(np.ceil(cfg.stored_layers))
        bnd = B * N * D
        ledger = ActivationLedger(
            embeddings_elements=bnd if kept == L else 0,
            attention_proj_elements=kept * 5 * bnd,
            attention_scores_elements=kept * B * H * N * N,
            ffn_elements=kept * (bnd + 2 * B * N * F),
            norm_elements=kept * 2 * bnd + (2 * bnd if bp else 0),
            logits_elements=B * N * V,
            mode=mode,
        )
        caches = dict(layers=layers, x_f=x_f, hf=hf, logits=logits,
                      cos=cos, sin=sin, tokens=tokens)
        return logits, caches, ledger

    def _attention(self, params, l, x_in, cos, sin, bp):
        """x_in + attn(rmsnorm(x_in)) @ wo, and (BP mode) what backward reads."""
        B, N, D = x_in.shape
        H, dh = self.cfg.num_heads, self.cfg.head_dim
        h = _rmsnorm(x_in, params.segment(f"layer{l}.norm_attn"))
        q = h @ params.view(f"layer{l}.wq", (D, D))
        k = h @ params.view(f"layer{l}.wk", (D, D))
        v = h @ params.view(f"layer{l}.wv", (D, D))
        # head-major layout (B, H, N, dh) keeps attention on plain matmuls
        q4 = _rope(q.reshape(B, N, H, dh), cos, sin).transpose(0, 2, 1, 3)
        k4 = _rope(k.reshape(B, N, H, dh), cos, sin).transpose(0, 2, 1, 3)
        v4 = np.ascontiguousarray(v.reshape(B, N, H, dh).transpose(0, 2, 1, 3))
        # softmax in place: the scores buffer becomes the probabilities
        probs = q4 @ k4.transpose(0, 1, 3, 2)
        probs *= 1.0 / np.sqrt(dh)
        probs += self._neg_mask[:N, :N]  # -inf above the diagonal: causal attention
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        ctx = (probs @ v4).transpose(0, 2, 1, 3).reshape(B, N, D)
        out = ctx @ params.view(f"layer{l}.wo", (D, D))
        out += x_in
        cache = dict(x_in=x_in, h=h, q4=q4, k4=k4, v4=v4, probs=probs, ctx=ctx) if bp else {}
        return out, cache

    def _ffn(self, params, l, x_mid, bp):
        """x_mid + gelu(rmsnorm(x_mid) @ w_in) @ w_out, and (BP mode) what
        backward reads. Without BP, the GELU output takes u's buffer."""
        D, F = self.cfg.hidden_dim, self.ffn_dim
        h2 = _rmsnorm(x_mid, params.segment(f"layer{l}.norm_ffn"))
        u = h2 @ params.view(f"layer{l}.ffn_in", (D, F))
        a = _gelu(u, out=None if bp else u)
        out = a @ params.view(f"layer{l}.ffn_out", (F, D))
        out += x_mid
        cache = dict(x_mid=x_mid, h2=h2, u=u, a=a) if bp else {}
        return out, cache

    # -- backward -----------------------------------------------------------

    def backward(self, params: ParameterVector, tokens: np.ndarray,
                 targets: np.ndarray) -> tuple[ParameterVector, float]:
        """Exact reverse-mode gradient of the masked mean cross-entropy."""
        cfg = self.cfg
        D, H, dh = cfg.hidden_dim, cfg.num_heads, cfg.head_dim
        logits, caches, _ = self._forward_impl(params, tokens, LedgerMode.BP)
        loss, dlogits = _loss_backward(logits, np.asarray(targets))

        grad = ParameterVector(np.zeros(len(params)), params.segments)
        B, N = caches["tokens"].shape
        cos, sin = caches["cos"], caches["sin"]
        inv_sqrt_dh = 1.0 / np.sqrt(dh)

        head = params.view("head", (cfg.vocab_size, D))
        hf, x_f = caches["hf"], caches["x_f"]
        V = cfg.vocab_size
        grad.view("head", (V, D))[:] = dlogits.reshape(-1, V).T @ hf.reshape(-1, D)
        dhf = dlogits @ head
        dx, dgain = _rmsnorm_backward(dhf, x_f, params.segment("norm_final"))
        grad.segment("norm_final")[:] = dgain

        F = self.ffn_dim
        for c in reversed(caches["layers"]):
            l = c["layer"]
            # FFN block: x = x_mid + gelu(rmsnorm(x_mid) @ w_in) @ w_out
            dffn_out = dx
            grad.view(f"layer{l}.ffn_out", (F, D))[:] = (
                c["a"].reshape(-1, F).T @ dffn_out.reshape(-1, D))
            da = dffn_out @ params.view(f"layer{l}.ffn_out", (F, D)).T
            du = _gelu_backward(da, c["u"])
            grad.view(f"layer{l}.ffn_in", (D, F))[:] = (
                c["h2"].reshape(-1, D).T @ du.reshape(-1, F))
            dh2 = du @ params.view(f"layer{l}.ffn_in", (D, F)).T
            dx_mid, dgain = _rmsnorm_backward(dh2, c["x_mid"], params.segment(f"layer{l}.norm_ffn"))
            grad.segment(f"layer{l}.norm_ffn")[:] = dgain
            dx = dx + dx_mid  # residual

            # attention block: x = x_in + attn(rmsnorm(x_in)) @ wo
            dattn = dx
            grad.view(f"layer{l}.wo", (D, D))[:] = (
                c["ctx"].reshape(-1, D).T @ dattn.reshape(-1, D))
            dctx = (dattn @ params.view(f"layer{l}.wo", (D, D)).T) \
                .reshape(B, N, H, dh).transpose(0, 2, 1, 3)
            dprobs = dctx @ c["v4"].transpose(0, 1, 3, 2)
            dv4 = c["probs"].transpose(0, 1, 3, 2) @ dctx
            inner = np.sum(dprobs * c["probs"], axis=-1, keepdims=True)
            dscores = c["probs"] * (dprobs - inner)
            dq4 = (dscores @ c["k4"]) * inv_sqrt_dh
            dk4 = (dscores.transpose(0, 1, 3, 2) @ c["q4"]) * inv_sqrt_dh
            dq = _rope_backward(dq4.transpose(0, 2, 1, 3), cos, sin).reshape(B, N, D)
            dk = _rope_backward(dk4.transpose(0, 2, 1, 3), cos, sin).reshape(B, N, D)
            dv = dv4.transpose(0, 2, 1, 3).reshape(B, N, D)
            h2d = c["h"].reshape(-1, D)
            grad.view(f"layer{l}.wq", (D, D))[:] = h2d.T @ dq.reshape(-1, D)
            grad.view(f"layer{l}.wk", (D, D))[:] = h2d.T @ dk.reshape(-1, D)
            grad.view(f"layer{l}.wv", (D, D))[:] = h2d.T @ dv.reshape(-1, D)
            dh_pre = (dq @ params.view(f"layer{l}.wq", (D, D)).T
                      + dk @ params.view(f"layer{l}.wk", (D, D)).T
                      + dv @ params.view(f"layer{l}.wv", (D, D)).T)
            dx_in, dgain = _rmsnorm_backward(dh_pre, c["x_in"], params.segment(f"layer{l}.norm_attn"))
            grad.segment(f"layer{l}.norm_attn")[:] = dgain
            dx = dx + dx_in

        demb = grad.view("embed", (cfg.vocab_size, D))
        np.add.at(demb, caches["tokens"].ravel(), dx.reshape(-1, D))
        return grad, loss


# ---------------------------------------------------------------------------
# ledger verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LedgerReport:
    ok: bool
    problems: tuple[str, ...]
    scores_expected: int
    per_bnld_constant: float


def ledger_check(cfg: ModelConfig, ledger: ActivationLedger) -> LedgerReport:
    """Check the structural laws a ledger must satisfy for this config and
    report the (unasserted) non-score elements per B*L*N*D."""
    B, L, N, D, H = (cfg.batch_size, cfg.num_layers, cfg.context_length,
                     cfg.hidden_dim, cfg.num_heads)
    problems = []
    if min(dataclasses.astuple(ledger)[:6]) < 0:
        raise ValueError("ledger counts must be non-negative")
    scores_expected = B * L * H * N * N
    if ledger.mode is LedgerMode.BP:
        if ledger.attention_scores_elements != scores_expected:
            problems.append(
                f"attention scores: {ledger.attention_scores_elements} != "
                f"B*L*H*N^2 = {scores_expected}")
        if ledger.logits_elements != B * N * cfg.vocab_size:
            problems.append("logits count != B*N*V")
    else:
        cap = int(np.ceil(cfg.stored_layers))
        worth = cap * (scores_expected // L) if L else 0
        if ledger.attention_scores_elements > worth:
            problems.append(
                f"MeZO retained scores {ledger.attention_scores_elements} exceed "
                f"ceil(stored_layers) = {cap} layers' worth {worth}")
    constant = ledger.nonscore_elements() / (B * L * N * D)
    return LedgerReport(not problems, tuple(problems), scores_expected, constant)


def compare_ledger_scaling(cfg_a: ModelConfig, ledger_a: ActivationLedger,
                           cfg_b: ModelConfig, ledger_b: ActivationLedger) -> list[str]:
    """Flags for scaling violations between a base ledger and one taken after
    doubling either the context length or the hidden dimension."""
    flags = []
    if (cfg_b.context_length == 2 * cfg_a.context_length
            and cfg_b.hidden_dim == cfg_a.hidden_dim):
        if ledger_b.attention_scores_elements != 4 * ledger_a.attention_scores_elements:
            flags.append("score storage is not quadratic in context length")
        for name in ("embeddings_elements", "attention_proj_elements",
                     "ffn_elements", "norm_elements", "logits_elements"):
            if getattr(ledger_b, name) != 2 * getattr(ledger_a, name):
                flags.append(f"{name} is not linear in context length")
    elif (cfg_b.hidden_dim == 2 * cfg_a.hidden_dim
          and cfg_b.context_length == cfg_a.context_length):
        if ledger_b.attention_scores_elements != ledger_a.attention_scores_elements:
            flags.append("score storage should not depend on hidden dimension")
        for name in ("attention_proj_elements", "ffn_elements"):
            if getattr(ledger_b, name) != 2 * getattr(ledger_a, name):
                flags.append(f"{name} is not linear in hidden dimension")
    else:
        raise ValueError("configs must differ by exactly one doubling of N or D")
    return flags


# ---------------------------------------------------------------------------
# weight checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"MZFW"
_VERSION = 1


def save_weights(path, cfg: ModelConfig, params: ParameterVector) -> None:
    """Named-segment binary checkpoint; round-trips bit-exactly."""
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(params.segments)))
        for seg in params.segments:
            name = seg.name.encode()
            f.write(struct.pack("<H", len(name)))
            f.write(name)
            f.write(struct.pack("<Q", seg.length))
            f.write(params.segment(seg.name).astype("<f8", copy=False).tobytes())


def _read_exact(f, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise ValueError(f"truncated checkpoint: wanted {n} bytes at offset "
                         f"{f.tell() - len(data)}, found {len(data)}")
    return data


def _config_from_blob(blob) -> ModelConfig:
    """The ModelConfig a checkpoint's JSON blob names; ValueError unless the
    blob holds every ModelConfig field, no other key and values it accepts."""
    if not isinstance(blob, dict):
        raise ValueError("checkpoint config is not a JSON object")
    fields = {f.name for f in dataclasses.fields(ModelConfig)}
    unknown, missing = sorted(blob.keys() - fields), sorted(fields - blob.keys())
    if unknown or missing:
        raise ValueError(f"checkpoint config has unknown keys {unknown} "
                         f"and lacks keys {missing}")
    try:
        return ModelConfig(**blob)
    except TypeError as exc:
        raise ValueError(f"checkpoint config is invalid: {exc}") from None


def load_weights(path) -> tuple[ModelConfig, ParameterVector]:
    """Read a save_weights checkpoint. A short read, bad magic, an unknown
    version, a config blob that is not a full ModelConfig or segments that
    differ from the config's model raise ValueError."""
    with open(path, "rb") as f:
        if _read_exact(f, 4) != _MAGIC:
            raise ValueError("not a mezofit weight checkpoint")
        version, blob_len = struct.unpack("<II", _read_exact(f, 8))
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        cfg = _config_from_blob(json.loads(_read_exact(f, blob_len).decode()))
        expected = [(name, int(np.prod(shape)))
                    for name, shape in ToyTransformer(cfg).segment_shapes()]
        (n_segments,) = struct.unpack("<I", _read_exact(f, 4))
        if n_segments != len(expected):
            raise ValueError(f"checkpoint holds {n_segments} segments, its config needs "
                             f"{len(expected)}")
        arrays = []
        for want in expected:
            (name_len,) = struct.unpack("<H", _read_exact(f, 2))
            name = _read_exact(f, name_len).decode()
            (count,) = struct.unpack("<Q", _read_exact(f, 8))
            if (name, count) != want:
                raise ValueError(f"checkpoint segment {name!r} of {count} values, "
                                 f"its config needs {want[0]!r} of {want[1]}")
            data = np.frombuffer(_read_exact(f, count * 8), dtype="<f8").astype(np.float64)
            arrays.append((name, data))
    return cfg, ParameterVector.from_arrays(arrays)
