"""Desk-scale decoder-only transformer in plain numpy with exact gradients.

The stack is: token embedding, then per layer {RMS-norm, multi-head causal
self-attention with rotary position encoding, residual; RMS-norm, GELU FFN,
residual}, a final RMS-norm, and an untied LM head. Everything runs in
float64 and the backward pass is hand-written reverse mode, verified against
finite differences in the tests.

A forward pass in MeZO mode (the default) keeps nothing past the operation
that reads it: each buffer is dropped once read, the GELU output takes the
buffer of its input, and GELU and the loss's log-sum-exp work through one
`_TILE` of scratch, so the loss never builds the full log-probabilities. Its
peak is then the largest block's live set: in attention, the block input,
the rotated queries and keys, the values and the B*H*N*N scores; in the FFN,
the block input, its normed input or its output, and the B*N*F
pre-activation; at the head, the final norm's input and output and the
logits. In BP mode, which only `backward` asks for, it also returns the
cache the backward pass reads: every layer's inputs, normed inputs, rotated
queries and keys, values, attention probabilities, context, FFN
pre-activation and GELU output, plus the final norm's input and output.

The backward pass frees each layer's cache as it goes and writes its
transients in place (`_gelu_backward` overwrites both of its arguments), in
the float order of the plain expressions, so its gradients are bit for bit
those of an out-of-place pass.
"""
from __future__ import annotations

import dataclasses
import json
import math
import struct
from enum import Enum

import numpy as np

from mezofit.memory import ConfigError, ModelConfig
from mezofit.zo import ParameterVector, PerturbationSeed, generate_noise, splitmix64

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715
_NORM_EPS = 1e-6
_ROPE_BASE = 10000.0
# Elements of scratch that _gelu and the loss's log-sum-exp work through at
# a time: 128 KiB of float64, small beside a layer's activations.
_TILE = 1 << 14


class LedgerMode(str, Enum):
    """What a forward pass keeps. MEZO keeps nothing past each layer; BP
    keeps the cache `backward` reads."""

    BP = "bp"
    MEZO = "mezo"


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def _rms_inv(x: np.ndarray) -> np.ndarray:
    # np.mean's float order (sum, then divide by the count) without its
    # per-call overhead, each later step in place in the one (..., 1) buffer
    r = np.add.reduce(x * x, axis=-1, keepdims=True)
    r /= x.shape[-1]
    r += _NORM_EPS
    np.sqrt(r, out=r)
    return np.divide(1.0, r, out=r)


def _rmsnorm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    y = x * _rms_inv(x)
    y *= gain
    return y


def _rmsnorm_backward(dy: np.ndarray, x: np.ndarray, gain: np.ndarray):
    """Gradients of _rmsnorm, through two scratch buffers in the float order
    of dgain = sum(dy*x*r) and dx = dy*gain*r - x*r**3*sum(dy*gain*x)/D."""
    r = _rms_inv(x)
    t = dy * x
    t *= r
    dgain = np.sum(t, axis=(0, 1))
    dx = dy * gain
    np.multiply(dx, x, out=t)
    s = np.sum(t, axis=-1, keepdims=True)
    dx *= r
    np.multiply(x, r ** 3, out=t)
    t *= s
    t /= x.shape[-1]
    dx -= t
    return dx, dgain


def _gelu(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5*u*(1 + tanh(c*(u + a*u*u*u))) as in-place ufuncs, in that order,
    one `_TILE` of elements at a time through one scratch tile.

    `out` may be `u` itself; the result then overwrites it.
    """
    if out is None:
        out = np.empty_like(u)
    src, dst = u.reshape(-1), out.reshape(-1)
    scratch = np.empty(min(_TILE, src.size))
    for i in range(0, src.size, _TILE):
        x, y = src[i:i + _TILE], dst[i:i + _TILE]
        t = scratch[:x.size]
        np.multiply(x, x, out=t)
        t *= _GELU_A
        t *= x
        t += x
        t *= _GELU_C
        np.tanh(t, out=t)
        t += 1.0
        np.multiply(x, 0.5, out=y)
        y *= t
    return out


def _gelu_backward(da: np.ndarray, u: np.ndarray) -> np.ndarray:
    """da * gelu'(u) written into `da`, overwriting `u` too, through three
    scratch buffers in the float order of 0.5*(1 + t) + 0.5*u*(1 - t*t)*c*
    (1 + 3a*u*u) with t = tanh(c*(u + a*u*u*u))."""
    u2 = u * u
    t = _GELU_A * u2
    t *= u
    t += u
    t *= _GELU_C
    np.tanh(t, out=t)
    u2 *= 3.0 * _GELU_A
    u2 += 1.0
    q = t * t
    np.subtract(1.0, q, out=q)
    u *= 0.5
    u *= q
    u *= _GELU_C
    u *= u2
    t += 1.0
    t *= 0.5
    t += u
    da *= t
    return da


def _rope_tables(n: int, head_dim: int):
    inv_freq = _ROPE_BASE ** (-np.arange(0, head_dim, 2) / head_dim)
    ang = np.arange(n)[:, None] * inv_freq[None, :]  # (N, head_dim/2)
    return np.cos(ang), np.sin(ang)


def _rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate interleaved pairs of head dims by position-dependent angles.

    x: (B, N, H, dh); cos/sin: (N, dh/2). Non-parametric, orthogonal per pair:
    its backward is the rotation by -sin, bit for bit the transposed rotation.
    """
    e, o = x[..., 0::2], x[..., 1::2]
    c = cos[None, :, None, :]
    s = sin[None, :, None, :]
    out = np.empty_like(x)
    oe, oo = out[..., 0::2], out[..., 1::2]
    # e*c - o*s and e*s + o*c, each written into its half of `out`
    np.multiply(e, c, out=oe)
    oe -= o * s
    np.multiply(e, s, out=oo)
    oo += o * c
    return out


def loss_from_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy over positions with target >= 0 (-1 ignores)."""
    return _masked_nll(logits, targets)[0]


def _masked_nll(logits, targets):
    """(mean masked NLL, row maxima, row log-sum-exps, mask, unmasked count).

    Each row's log-sum-exp log(sum(exp(logit - max))) is taken through a
    tile of whole rows, and only the picked entries are formed, as
    (logit - max) - lse: the float order of the full log-probabilities,
    which are never built. The maxima and log-sum-exps are (B, N, 1)."""
    if logits.shape[:2] != targets.shape:
        raise ValueError(
            f"logits batch/positions {logits.shape[:2]} do not match targets {targets.shape}")
    mask = targets >= 0
    count = int(mask.sum())
    if count == 0:
        raise ValueError("no unmasked target positions")
    V = logits.shape[-1]
    rows = logits.reshape(-1, V)
    top = rows.max(axis=-1, keepdims=True)
    lse = np.empty_like(top)
    step = max(1, _TILE // V)
    scratch = np.empty((min(step, len(rows)), V))
    for i in range(0, len(rows), step):
        block = rows[i:i + step]
        t = scratch[:len(block)]
        np.subtract(block, top[i:i + step], out=t)
        np.exp(t, out=t)
        np.sum(t, axis=-1, keepdims=True, out=lse[i:i + step])
    np.log(lse, out=lse)
    picked = np.take_along_axis(rows, np.where(mask, targets, 0).reshape(-1, 1), axis=-1)
    picked -= top
    picked -= lse
    loss = float(-np.sum(picked.reshape(mask.shape), where=mask) / count)
    shape = (*mask.shape, 1)
    return loss, top.reshape(shape), lse.reshape(shape), mask, count


def _loss_backward(logits, targets):
    """(loss, dlogits): the softmax, made from the full log-probabilities
    (logits - max) - lse in place, minus the one-hot targets, over count."""
    loss, top, lse, mask, count = _masked_nll(logits, targets)
    dlogits = logits - top
    dlogits -= lse
    np.exp(dlogits, out=dlogits)
    rows = np.nonzero(mask)
    dlogits[rows[0], rows[1], targets[mask]] -= 1.0
    dlogits *= mask[..., None] / count
    return loss, dlogits


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

class ToyTransformer:
    """Decoder-only transformer bound to one ModelConfig.

    Parameters live in a ParameterVector tiled by `segment_shapes`: the
    embedding, then each layer's `_per_layer` segments, then the final norm
    and the head. Every view of a weight or gradient is read off that layout.
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
        self.ffn_dim = F = int(round(ffn))
        D, V = cfg.hidden_dim, cfg.vocab_size
        # (name, shape) in checkpoint order; a layer's names take the prefix "layer{l}."
        self._per_layer = (("norm_attn", (D,)), ("wq", (D, D)), ("wk", (D, D)),
                           ("wv", (D, D)), ("wo", (D, D)), ("norm_ffn", (D,)),
                           ("ffn_in", (D, F)), ("ffn_out", (F, D)))
        self._ends = (("embed", (V, D)), ("norm_final", (D,)), ("head", (V, D)))
        self._cos, self._sin = _rope_tables(cfg.context_length, cfg.head_dim)
        n = cfg.context_length
        self._neg_mask = np.where(np.tril(np.ones((n, n), dtype=bool)), 0.0, -np.inf)

    # -- parameters ---------------------------------------------------------

    def segment_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        embed, *final = self._ends
        return [embed, *((f"layer{l}.{name}", shape) for l in range(self.cfg.num_layers)
                         for name, shape in self._per_layer), *final]

    def _layer(self, params: ParameterVector, l: int | None = None) -> dict[str, np.ndarray]:
        """Layer l's segments of `params` (weights or gradients), or with no l
        the embedding, final norm and head, as shaped views keyed by short name."""
        table, prefix = (self._ends, "") if l is None else (self._per_layer, f"layer{l}.")
        return {name: params.view(prefix + name, shape) for name, shape in table}

    def init_params(self, seed: int) -> ParameterVector:
        """Scaled-normal matrices (scale 1/sqrt(D)); the 1-D segments, the
        norm gains, are ones."""
        scale = 1.0 / np.sqrt(self.cfg.hidden_dim)
        arrays = []
        base = splitmix64(seed & ((1 << 64) - 1))
        for idx, (name, shape) in enumerate(self.segment_shapes()):
            if len(shape) == 1:
                arrays.append((name, np.ones(shape)))
            else:
                noise = generate_noise(PerturbationSeed(base, idx), math.prod(shape))
                arrays.append((name, noise.reshape(shape) * scale))
        return ParameterVector.from_arrays(arrays)

    def param_count(self) -> int:
        """Trainable elements, norm gains included."""
        return sum(math.prod(shape) for _, shape in self.segment_shapes())

    # -- forward ------------------------------------------------------------

    def forward(self, params: ParameterVector, tokens: np.ndarray,
                mode: LedgerMode = LedgerMode.MEZO) -> tuple[np.ndarray, dict | None]:
        """(logits, cache). In BP mode the cache is what `backward` reads:
        under "layers" one dict of arrays per layer, and the final norm's input
        "x_f" and output "hf". In MeZO mode it is None. The logits are bit for
        bit the same in either mode."""
        cfg = self.cfg
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be (batch, positions), got shape {tokens.shape}")
        N = tokens.shape[1]
        if N > cfg.context_length:
            raise ValueError(f"sequence length {N} exceeds context_length {cfg.context_length}")
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
            raise ValueError("token id out of range")
        cos, sin = self._cos[:N], self._sin[:N]
        bp = LedgerMode(mode) is LedgerMode.BP

        # Each block's temporaries die when it returns; only BP mode keeps
        # the cache backward reads.
        layers = []
        ends = self._layer(params)
        x = ends["embed"][tokens]
        for l in range(cfg.num_layers):
            w = self._layer(params, l)
            x, attn = self._attention(w, x, cos, sin, bp)
            x, ffn = self._ffn(w, x, bp)
            if bp:
                layers.append({**attn, **ffn})

        hf = _rmsnorm(x, ends["norm_final"])
        logits = hf @ ends["head"].T
        return logits, dict(layers=layers, x_f=x, hf=hf) if bp else None

    def _attention(self, w, x_in, cos, sin, bp):
        """x_in + attn(rmsnorm(x_in)) @ wo over one layer's weights `w`, and
        (BP mode) what backward reads.
        Each buffer is dropped once the next operation has read it; in BP
        mode the cache keeps the ones backward reads."""
        B, N, D = x_in.shape
        H, dh = self.cfg.num_heads, self.cfg.head_dim
        h = _rmsnorm(x_in, w["norm_attn"])
        q = h @ w["wq"]
        k = h @ w["wk"]
        v = h @ w["wv"]
        cache = dict(x_in=x_in, h=h) if bp else {}
        del h
        # head-major layout (B, H, N, dh) keeps attention on plain matmuls;
        # each rebinding drops the projection it replaces
        q = _rope(q.reshape(B, N, H, dh), cos, sin).transpose(0, 2, 1, 3)
        k = _rope(k.reshape(B, N, H, dh), cos, sin).transpose(0, 2, 1, 3)
        v = np.ascontiguousarray(v.reshape(B, N, H, dh).transpose(0, 2, 1, 3))
        # softmax in place: the scores buffer becomes the probabilities
        probs = q @ k.transpose(0, 1, 3, 2)
        if bp:
            cache.update(q4=q, k4=k)
        del q, k
        probs *= 1.0 / np.sqrt(dh)
        probs += self._neg_mask[:N, :N]  # -inf above the diagonal: causal attention
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        ctx = probs @ v
        if bp:
            cache.update(v4=v, probs=probs)
        del probs, v
        ctx = ctx.transpose(0, 2, 1, 3).reshape(B, N, D)
        out = ctx @ w["wo"]
        out += x_in
        if bp:
            cache["ctx"] = ctx
        return out, cache

    def _ffn(self, w, x_mid, bp):
        """x_mid + gelu(rmsnorm(x_mid) @ w_in) @ w_out over one layer's weights
        `w`, and (BP mode) what backward reads. Without BP, the normed input
        goes once u exists and the GELU output takes u's buffer."""
        h2 = _rmsnorm(x_mid, w["norm_ffn"])
        u = h2 @ w["ffn_in"]
        cache = dict(x_mid=x_mid, h2=h2) if bp else {}
        del h2
        a = _gelu(u, out=None if bp else u)
        if bp:
            cache.update(u=u, a=a)
        out = a @ w["ffn_out"]
        out += x_mid
        return out, cache

    # -- backward -----------------------------------------------------------

    def backward(self, params: ParameterVector, tokens: np.ndarray,
                 targets: np.ndarray) -> tuple[ParameterVector, float]:
        """Exact reverse-mode gradient of the masked mean cross-entropy.

        Frees each layer's cache as it goes: popped as the layer's backward
        starts, `a` and `u` freed once consumed, the rest at its end. The
        logits and their gradient go once the final norm's gradient exists.
        `_gelu_backward` overwrites its arguments. Each in-place step keeps
        the float order of the plain expression, so gradients are unchanged."""
        cfg = self.cfg
        D, H, dh, F, V = cfg.hidden_dim, cfg.num_heads, cfg.head_dim, self.ffn_dim, cfg.vocab_size
        logits, caches = self.forward(params, tokens, LedgerMode.BP)
        loss, dlogits = _loss_backward(logits, np.asarray(targets))
        del logits

        grad = ParameterVector(np.zeros(len(params)), params.segments)
        tokens = np.asarray(tokens)
        B, N = tokens.shape
        cos, nsin = self._cos[:N], -self._sin[:N]
        inv_sqrt_dh = 1.0 / np.sqrt(dh)

        ends, g_ends = self._layer(params), self._layer(grad)
        g_ends["head"][:] = dlogits.reshape(-1, V).T @ caches.pop("hf").reshape(-1, D)
        dhf = dlogits @ ends["head"]
        dx, g_ends["norm_final"][:] = _rmsnorm_backward(dhf, caches.pop("x_f"), ends["norm_final"])
        del dlogits, dhf

        layers = caches["layers"]
        while layers:
            c = layers.pop()
            w, g = self._layer(params, len(layers)), self._layer(grad, len(layers))
            # FFN block: x = x_mid + gelu(rmsnorm(x_mid) @ w_in) @ w_out
            g["ffn_out"][:] = c.pop("a").reshape(-1, F).T @ dx.reshape(-1, D)
            du = _gelu_backward(dx @ w["ffn_out"].T, c.pop("u"))
            g["ffn_in"][:] = c["h2"].reshape(-1, D).T @ du.reshape(-1, F)
            dh2 = du @ w["ffn_in"].T
            dx_mid, g["norm_ffn"][:] = _rmsnorm_backward(dh2, c["x_mid"], w["norm_ffn"])
            dx += dx_mid  # residual

            # attention block: x = x_in + attn(rmsnorm(x_in)) @ wo
            g["wo"][:] = c["ctx"].reshape(-1, D).T @ dx.reshape(-1, D)
            dctx = (dx @ w["wo"].T).reshape(B, N, H, dh).transpose(0, 2, 1, 3)
            probs = c["probs"]
            dscores = dctx @ c["v4"].transpose(0, 1, 3, 2)  # dprobs, then dscores in place
            dv = (probs.transpose(0, 1, 3, 2) @ dctx).transpose(0, 2, 1, 3).reshape(B, N, D)
            inner = np.sum(dscores * probs, axis=-1, keepdims=True)
            dscores -= inner
            dscores *= probs
            dq4 = dscores @ c["k4"]
            dq4 *= inv_sqrt_dh
            dk4 = dscores.transpose(0, 1, 3, 2) @ c["q4"]
            dk4 *= inv_sqrt_dh
            dq = _rope(dq4.transpose(0, 2, 1, 3), cos, nsin).reshape(B, N, D)
            dk = _rope(dk4.transpose(0, 2, 1, 3), cos, nsin).reshape(B, N, D)
            h2d = c["h"].reshape(-1, D)
            g["wq"][:] = h2d.T @ dq.reshape(-1, D)
            g["wk"][:] = h2d.T @ dk.reshape(-1, D)
            g["wv"][:] = h2d.T @ dv.reshape(-1, D)
            dh_pre = dq @ w["wq"].T
            dh_pre += dk @ w["wk"].T
            dh_pre += dv @ w["wv"].T
            dx_in, g["norm_attn"][:] = _rmsnorm_backward(dh_pre, c["x_in"], w["norm_attn"])
            dx += dx_in
            # nothing of this layer may outlive it into the next one
            del c, w, g, probs, du, dh2, dx_mid, dctx, dscores, inner, dq4, dk4, dq, dk, dv, \
                h2d, dh_pre, dx_in

        np.add.at(g_ends["embed"], tokens.ravel(), dx.reshape(-1, D))
        return grad, loss


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
        expected = [(name, math.prod(shape))
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
