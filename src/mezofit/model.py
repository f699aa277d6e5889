"""Desk-scale decoder-only transformer in plain numpy with exact gradients.

The stack is: token embedding, then per layer {RMS-norm, multi-head causal
self-attention with rotary position encoding, residual; RMS-norm, GELU FFN,
residual}, a final RMS-norm, and an untied LM head. Everything runs in
float64 and the backward pass is hand-written reverse mode, verified against
finite differences in the tests.

MeZO mode (the default) runs the network over blocks of whole sequences
(`_block_rows`) in `ToyTransformer._blocks`, the one loop over blocks, and
drops each buffer once read: GELU writes over its input through the FFN's
normed input, dead by then, whose buffer then takes the FFN output. In BP
mode the batch is one block, and the forward also returns the cache the
backward pass reads (`backward` runs this mode itself; through `forward` it
serves callers that inspect the cache), which holds nothing one elementwise
op rebuilds: the backward pass forms each normed input again from its
norm's input and the GELU output from the pre-activation, in the forward's
float order. `ToyTransformer.peak_bytes` accounts for each call's live set
and peak bytes.
Importing this module on glibc keeps freed heap pages in the process (see
`_LIBC`), so a warm BP step reuses that cache's pages, not fresh ones.

`loss_fn(tokens, targets)` binds one batch: it checks it and forms the target
mask, count and gather index once, and its function reduces each block's
logits to its rows' loss terms as the block ends, the log-sum-exp through one
`_TILE` of scratch. `correct(params, tokens, targets)` counts the targets each
block's argmax hits. Neither builds the (B, N, V) logits. Only the benchmark and
the tests call `forward`, which writes every block into one (B, N, V) array,
and `loss_from_logits`; the bound loss is bit for bit their loss.

The backward pass frees each layer's cache as it goes, allocates the flat
gradient only once the top layer's cache is gone and writes its transients in
place (`_gelu_backward` the GELU output over u through three scratch tiles,
`_rmsnorm_backward` dx over dy), in the float order of the plain expressions,
so its gradients are bit for bit those of an out-of-place pass.
"""
from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import struct
import sys
from enum import Enum
from typing import Callable

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
# A MeZO-mode forward block holds as many whole sequences as keep its widest
# buffer, N*F, H*N*N or N*V per sequence, in 256 KiB of float64, at least one
# and at most batch_size, so an evaluation peaks no higher than a step's loss.
_BLOCK = 1 << 15

# Left dynamic, glibc's thresholds rise only to the largest block freed (at
# step-mid, the 6.8 MB gradient), so each BP step would give its ~25 MB cache
# back to the kernel and fault it in again. Fixing both keeps blocks up to
# 32 MiB (glibc's 64-bit cap; larger arrays, such as a gradient with P above
# about 4.2 M, are still mmapped) in the heap and their freed pages in the
# process. Fixing only the trim threshold would pin the mmap one at 128 KiB.
_LIBC = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
if hasattr(_LIBC, "mallopt"):
    _LIBC.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _LIBC.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


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


def _rmsnorm(x: np.ndarray, gain: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
    """x * r * gain, r = _rms_inv(x) unless given (the backward passes its own)."""
    y = x * (_rms_inv(x) if r is None else r)
    y *= gain
    return y


def _rmsnorm_backward(dy: np.ndarray, x: np.ndarray, gain: np.ndarray, r: np.ndarray):
    """Gradients of _rmsnorm, given r = _rms_inv(x), dx written into `dy` and
    r cubed in place, through one scratch buffer in the float order of
    dgain = sum(dy*x*r) and dx = dy*gain*r - x*r**3*sum(dy*gain*x)/D."""
    t = dy * x
    t *= r
    dgain = np.sum(t, axis=(0, 1))
    dx = np.multiply(dy, gain, out=dy)
    np.multiply(dx, x, out=t)
    s = np.sum(t, axis=-1, keepdims=True)
    dx *= r
    r **= 3
    np.multiply(x, r, out=t)
    t *= s
    t /= x.shape[-1]
    dx -= t
    return dx, dgain


def _gelu(u: np.ndarray, out: np.ndarray | None = None,
          scratch: np.ndarray | None = None) -> np.ndarray:
    """u*0.5*(1 + tanh((u*u*a*u + u)*c)) as in-place ufuncs, in that order,
    one tile of elements at a time through one scratch tile.

    `out` may be `u` itself; the result then overwrites it. `scratch`, a
    contiguous float64 buffer whose contents are dead, is overwritten and is
    the tile; without it a fresh one of min(`_TILE`, u.size) elements is.
    """
    if out is None:
        out = np.empty_like(u)
    src, dst = u.reshape(-1), out.reshape(-1)
    scratch = np.empty(min(_TILE, src.size)) if scratch is None else scratch.reshape(-1)
    n = scratch.size
    for i in range(0, src.size, n):
        x, y = src[i:i + n], dst[i:i + n]
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
    """da * gelu'(u) written into `da` and gelu(u), bit for bit `_gelu`'s,
    into `u`, one `_TILE` of elements at a time through three scratch tiles,
    in the float order of da * (0.5*(1 + t) + 0.5*u*(1 - t*t)*c*(1 + 3a*(u*u)))
    with t = tanh((u*u*a*u + u)*c)."""
    src, dst = u.reshape(-1), da.reshape(-1)
    u2, t, q = np.empty((3, min(_TILE, src.size)))
    for i in range(0, src.size, _TILE):
        x, d = src[i:i + _TILE], dst[i:i + _TILE]
        if x.size < len(u2):  # a short last tile
            u2, t, q = u2[:x.size], t[:x.size], q[:x.size]
        np.multiply(x, x, out=u2)
        np.multiply(u2, _GELU_A, out=t)
        t *= x
        t += x
        t *= _GELU_C
        np.tanh(t, out=t)
        u2 *= 3.0 * _GELU_A
        u2 += 1.0
        np.multiply(t, t, out=q)
        np.subtract(1.0, q, out=q)
        t += 1.0
        x *= 0.5
        q *= x
        q *= _GELU_C
        q *= u2
        x *= t  # gelu(u), as _gelu forms it
        t *= 0.5
        t += q
        d *= t
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
    The maxima and log-sum-exps are (B, N, 1)."""
    if logits.shape[:2] != targets.shape:
        raise ValueError(
            f"logits batch/positions {logits.shape[:2]} do not match targets {targets.shape}")
    V = logits.shape[-1]
    mask, count, gather = _target_index(targets, V, targets.size)
    picked = np.empty((targets.size, 1))
    top, lse = _row_terms(logits.reshape(-1, V), gather, picked)
    shape = (*mask.shape, 1)
    return _mean_nll(picked, mask, count), top.reshape(shape), lse.reshape(shape), mask, count


def _target_index(targets, V: int, run: int):
    """(mask, count, gather) of (B, N) targets over rows of V logits: the mask
    of targets >= 0, its count, and per row the flat index of its target (of
    column 0 where masked) within its run of `run` consecutive rows, as a
    (B*N, 1) column. No unmasked target, or one of V or more, raises
    ValueError."""
    mask = targets >= 0
    count = int(mask.sum())
    if count == 0:
        raise ValueError("no unmasked target positions")
    if targets.max() >= V:
        raise ValueError(f"target id out of range for {V} logits")
    gather = np.arange(mask.size) % run * V + np.where(mask, targets, 0).reshape(-1)
    return mask, count, gather.reshape(-1, 1)


def _lse_tile(rows: int, V: int) -> int:
    """Rows of the loss's log-sum-exp tile over `rows` rows of V logits."""
    return min(max(1, _TILE // V), rows)


def _row_terms(rows, gather, out):
    """(maxima, log-sum-exps) of (R, V) logit rows, each (R, 1), and into the
    (R, 1) `out` the log-probability (logit - max) - lse of the entry each
    row's `gather` index picks from the flat rows.

    Each row's log-sum-exp log(sum(exp(logit - max))) is taken through a tile
    of whole rows, and only the picked entries are formed: the float order of
    the full log-probabilities, which are never built. A row's terms do not
    depend on the rows beside it."""
    V = rows.shape[-1]
    top = np.maximum.reduce(rows, axis=-1, keepdims=True)
    lse = np.empty_like(top)
    step = _lse_tile(len(rows), V)
    scratch = np.empty((step, V))
    for i in range(0, len(rows), step):
        block = rows[i:i + step]
        t = scratch[:len(block)]
        np.subtract(block, top[i:i + step], out=t)
        np.exp(t, out=t)
        np.add.reduce(t, axis=-1, keepdims=True, out=lse[i:i + step])
    np.log(lse, out=lse)
    rows.take(gather, out=out)
    out -= top
    out -= lse
    return top, lse


def _mean_nll(picked, mask, count) -> float:
    """Minus the mean of the (B*N, 1) picked log-probabilities under `mask`."""
    return float(-np.sum(picked.reshape(mask.shape), where=mask) / count)


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


class _Grads(dict):
    """Views of a flat gradient by name: setting a name copies into its view."""

    def __setitem__(self, name, a):
        self[name][:] = a


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

class ToyTransformer:
    """Decoder-only transformer bound to one ModelConfig.

    Parameters live in a ParameterVector tiled by `segment_shapes`: the
    embedding, then each layer's `_per_layer` segments, then the final norm
    and the head. Every view of a weight or gradient comes from `_views`.
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
        under "layers" one dict per layer of "x_in", "q4", "k4", "v4",
        "probs", "ctx", "x_mid" and "u", and the final norm's input "x_f". In
        MeZO mode it is None. The logits are bit for bit the same in either
        mode. Only the benchmark and the tests call it: a run's MeZO losses,
        train-loss probes and evaluations go through `loss_fn` and `correct`."""
        tokens = self._checked(tokens)
        (B, N), bp = tokens.shape, LedgerMode(mode) is LedgerMode.BP
        views = self._views(params)
        if bp or self._block_rows(N) >= B:
            return self._sequences(views, tokens, bp)
        logits = np.empty((B, N, self.cfg.vocab_size))
        for _ in self._blocks(views, tokens, logits):
            pass
        return logits, None

    def loss_fn(self, tokens: np.ndarray,
                targets: np.ndarray) -> Callable[[ParameterVector], float]:
        """The masked mean cross-entropy of `targets` given `tokens`, as a
        function of the parameters: bit for bit
        loss_from_logits(forward(params, tokens)[0], targets).

        The tokens, shapes and targets are checked here, once; the function
        reads the views of a parameter array once and keeps them while it is
        handed that same array (MeZO shifts it in place). It reduces the
        logits of each of `_blocks` to its rows' loss terms as the block ends,
        so no (B, N, V) array exists."""
        tokens, targets = self._checked(tokens, targets), np.asarray(targets)
        (B, N), V = tokens.shape, self.cfg.vocab_size
        mask, count, gather = _target_index(targets, V, self._block_rows(N) * N)
        memo = [None, None]  # the parameter array last seen and its views

        def loss(params: ParameterVector) -> float:
            if memo[0] is not params.values:
                memo[:] = params.values, self._views(params)
            picked = np.empty((B * N, 1))
            for i, logits in self._blocks(memo[1], tokens):
                lo, hi = i * N, (i + len(logits)) * N
                _row_terms(logits.reshape(-1, V), gather[lo:hi], picked[lo:hi])
                del logits  # so no two blocks' logits are alive at once
            return _mean_nll(picked, mask, count)
        return loss

    def correct(self, params: ParameterVector, tokens: np.ndarray, targets: np.ndarray) -> int:
        """Positions whose target (>= 0) is the argmax of its logits in
        forward(params, tokens), counted as each MeZO-mode block ends, so no
        (B, N, V) array exists. The batch is checked as `loss_fn` checks it."""
        tokens, targets = self._checked(tokens, targets), np.asarray(targets)
        n = 0
        for i, logits in self._blocks(self._views(params), tokens):
            n += np.count_nonzero(logits.argmax(-1) == targets[i:i + len(logits)])
            del logits
        return int(n)

    def _checked(self, tokens, targets=None) -> np.ndarray:
        """`tokens` as an array, or ValueError unless it is (batch, positions)
        within the context window with every id in the vocabulary and, given
        `targets`, of their shape."""
        cfg = self.cfg
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be (batch, positions), got shape {tokens.shape}")
        if tokens.shape[1] > cfg.context_length:
            raise ValueError(
                f"sequence length {tokens.shape[1]} exceeds context_length {cfg.context_length}")
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
            raise ValueError("token id out of range")
        if targets is not None and tokens.shape != np.shape(targets):
            raise ValueError(f"tokens {tokens.shape} and targets {np.shape(targets)} differ in shape")
        return tokens

    def _block_rows(self, N: int) -> int:
        """Sequences per MeZO-mode block at N positions (see `_BLOCK`)."""
        cfg = self.cfg
        widest = N * max(self.ffn_dim, cfg.num_heads * N, cfg.vocab_size)
        return max(1, min(cfg.batch_size, _BLOCK // widest))

    def _views(self, params: ParameterVector) -> list[dict[str, np.ndarray]]:
        """`params` (weights or gradients) as shaped views keyed by short name:
        one dict for the embedding, final norm and head, then one per layer."""
        tables = [(self._ends, ""), *((self._per_layer, f"layer{l}.")
                                      for l in range(self.cfg.num_layers))]
        return [{name: params.view(prefix + name, shape) for name, shape in table}
                for table, prefix in tables]

    def _blocks(self, views, tokens, out=None):
        """(first row, logits) of each MeZO-mode block of `tokens` on the weights
        `views`, written into out's rows if given. (B, N, D) @ W is one BLAS
        call per sequence, so the blocks' logits are those of one block."""
        rows = self._block_rows(tokens.shape[1])
        for i in range(0, len(tokens), rows):
            block = None if out is None else out[i:i + rows]
            yield i, self._sequences(views, tokens[i:i + rows], False, block)[0]

    def _sequences(self, views, tokens, bp, out=None):
        """`forward` over one block of whole sequences on the weights of the
        `_views` table `views`, writing the logits into `out` if given."""
        N = tokens.shape[1]
        cos, sin = self._cos[:N], self._sin[:N]
        # The temporaries of _attention and _ffn die when they return; only BP
        # mode keeps the cache backward reads.
        layers = []
        ends = views[0]
        x = ends["embed"][tokens]
        for w in views[1:]:
            x, attn = self._attention(w, x, cos, sin, bp)
            x, ffn = self._ffn(w, x, bp)
            if bp:
                layers.append({**attn, **ffn})

        logits = np.matmul(_rmsnorm(x, ends["norm_final"]), ends["head"].T, out=out)
        return logits, dict(layers=layers, x_f=x) if bp else None

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
        cache = dict(x_in=x_in) if bp else {}
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
        `w`, and (BP mode) what backward reads: x_mid and u. BP mode drops the
        normed input h once u exists (tiling through it saves no BP peak); MeZO
        mode writes GELU over u through h, dead by then, then the output into h."""
        h = _rmsnorm(x_mid, w["norm_ffn"])
        u = h @ w["ffn_in"]
        if bp:
            del h
            out, cache = _gelu(u) @ w["ffn_out"], dict(x_mid=x_mid, u=u)
        else:
            out, cache = np.matmul(_gelu(u, u, h), w["ffn_out"], out=h), {}
        out += x_mid
        return out, cache

    # -- backward -----------------------------------------------------------

    def backward(self, params: ParameterVector, tokens: np.ndarray,
                 targets: np.ndarray) -> tuple[ParameterVector, float]:
        """Exact reverse-mode gradient of the masked mean cross-entropy.

        Rebuilds what the cache does not hold where it is read: each normed
        input from its norm's input, with the r that norm's backward then
        reads, and the GELU output, which `_gelu_backward` leaves in u's
        buffer. Frees each layer's cache as it goes, each array and transient
        after its last read; the logits and their gradient go once the final
        norm's gradient exists. The flat gradient is made once the top layer's
        cache is gone. Each in-place step keeps the float order of the plain
        expression, so gradients are unchanged."""
        cfg = self.cfg
        D, H, dh, F, V = cfg.hidden_dim, cfg.num_heads, cfg.head_dim, self.ffn_dim, cfg.vocab_size
        tokens = self._checked(tokens)
        views = self._views(params)
        logits, caches = self._sequences(views, tokens, True)
        loss, dlogits = _loss_backward(logits, np.asarray(targets))
        del logits

        (ends, *weights), layers = views, caches["layers"]
        B, N = tokens.shape
        cos, nsin = self._cos[:N], -self._sin[:N]
        inv_sqrt_dh = 1.0 / np.sqrt(dh)

        x_f = caches.pop("x_f")
        r = _rms_inv(x_f)
        # held as made until the flat gradient exists; embed=0.0 zeroes its segment
        g = dict(embed=0.0, head=dlogits.reshape(-1, V).T @ _rmsnorm(
            x_f, ends["norm_final"], r).reshape(-1, D))
        dhf = dlogits @ ends["head"]
        dx, g["norm_final"] = _rmsnorm_backward(dhf, x_f, ends["norm_final"], r)
        del dlogits, dhf, x_f, r

        while layers:
            c, w = layers.pop(), weights.pop()
            # FFN block: x = x_mid + gelu(rmsnorm(x_mid) @ w_in) @ w_out
            x_mid, u = c.pop("x_mid"), c.pop("u")
            du = _gelu_backward(dx @ w["ffn_out"].T, u)
            g["ffn_out"] = u.reshape(-1, F).T @ dx.reshape(-1, D)  # u now holds gelu(u)
            del u
            r = _rms_inv(x_mid)
            g["ffn_in"] = _rmsnorm(x_mid, w["norm_ffn"], r).reshape(-1, D).T @ du.reshape(-1, F)
            dh2 = du @ w["ffn_in"].T
            del du
            dx_mid, g["norm_ffn"] = _rmsnorm_backward(dh2, x_mid, w["norm_ffn"], r)
            dx += dx_mid  # residual

            # attention block: x = x_in + attn(rmsnorm(x_in)) @ wo
            g["wo"] = c.pop("ctx").reshape(-1, D).T @ dx.reshape(-1, D)
            dctx = (dx @ w["wo"].T).reshape(B, N, H, dh).transpose(0, 2, 1, 3)
            probs = c.pop("probs")
            dscores = dctx @ c.pop("v4").transpose(0, 1, 3, 2)  # dprobs, then dscores in place
            dv = (probs.transpose(0, 1, 3, 2) @ dctx).transpose(0, 2, 1, 3).reshape(B, N, D)
            del dctx
            inner = np.sum(dscores * probs, axis=-1, keepdims=True)
            dscores -= inner
            dscores *= probs
            del probs, inner
            dq4 = dscores @ c.pop("k4")
            dq4 *= inv_sqrt_dh
            dk4 = dscores.transpose(0, 1, 3, 2) @ c.pop("q4")
            dk4 *= inv_sqrt_dh
            del dscores
            dq = _rope(dq4.transpose(0, 2, 1, 3), cos, nsin).reshape(B, N, D)
            dk = _rope(dk4.transpose(0, 2, 1, 3), cos, nsin).reshape(B, N, D)
            del dq4, dk4
            x_in = c.pop("x_in")
            r = _rms_inv(x_in)
            h2d = _rmsnorm(x_in, w["norm_attn"], r).reshape(-1, D)
            g["wq"] = h2d.T @ dq.reshape(-1, D)
            g["wk"] = h2d.T @ dk.reshape(-1, D)
            g["wv"] = h2d.T @ dv.reshape(-1, D)
            dh_pre = dq @ w["wq"].T
            dh_pre += dk @ w["wk"].T
            dh_pre += dv @ w["wv"].T
            dx_in, g["norm_attn"] = _rmsnorm_backward(dh_pre, x_in, w["norm_attn"], r)
            dx += dx_in
            # nothing of this layer may outlive it into the next one
            del c, w, x_mid, x_in, r, dh2, dx_mid, dq, dk, dv, h2d, dh_pre, dx_in
            if "head" in g:  # the top layer's cache is gone
                grad = ParameterVector(np.empty(len(params)), params.segments)
                grads = self._views(grad)
                into = {**grads[0], **grads.pop()}  # the ends' and top layer's views
                for name in list(g):  # each held array is dropped once copied in
                    into[name][:] = g.pop(name)
            g = _Grads(grads.pop())  # after layer 0, the embedding's, final norm's and head's

        np.add.at(g["embed"], tokens.ravel(), dx.reshape(-1, D))
        return grad, loss

    # -- peak bytes ---------------------------------------------------------

    def peak_bytes(self, entry: str, B: int, N: int) -> int:
        """The tracemalloc peak of one call of `entry` over B sequences of N
        positions, from shapes: "backward", "loss" (a `loss_fn` function),
        "correct" or "forward" (`forward` plus `loss_from_logits`, MeZO
        mode); another name raises ValueError. It models this float64 numpy
        code, numpy's broadcast and reduction scratch included, as the
        largest moment in elements plus a slack for view tables, headers and
        numpy's iterators; `memory_for_mode` stays the paper's model.

        "backward" peaks in the top layer's FFN backward: every layer's cache,
        dx, the head's and final norm's gradients, the (F, D) ffn_out product,
        the B*N*F incoming GELU gradient beside three tiles or that product,
        and the -sin table (a second F*D covers the layer below's, where the
        flat gradient has replaced the top layer's cache). A MeZO block of
        b = min(B, `_block_rows`(N)) sequences holds, in attention, x_in, q,
        k, v, a rotated copy and a half-width rotary product, then x_in, q4,
        k4, v4 and the scores, then x_in, v4, the scores and the softmax's
        row reductions (the rotary and softmax steps each add a numpy buffer
        of at most np.getbufsize() elements); in the FFN, x_mid, its norm and
        the pre-activation; at the head, x and its norm beside the logits:
        one block's for "loss", which adds the log-sum-exp tile, the block's
        row maxima and sums and the B*N terms it keeps, and "correct", which
        adds the argmax and its comparison; all B*N*V for "forward", beside
        every block if several, then the tile and four B*N columns."""
        cfg = self.cfg
        D, H, F, V = cfg.hidden_dim, cfg.num_heads, self.ffn_dim, cfg.vocab_size
        if entry == "backward":
            cache = cfg.num_layers * (6 * B * N * D + B * H * N * N + B * N * F) + B * N * D
            transients = B * N * F + max(3 * min(_TILE, B * N * F), F * D) + N * cfg.head_dim // 2
            # 24 KiB of view tables, layer dicts and headers; 96 B of numpy's dimension cache
            return 8 * (cache + V * D + D + F * D + transients) + 24 * 1024 + 96
        if entry not in ("loss", "correct", "forward"):
            raise ValueError(f"unknown entry {entry!r}: not backward, loss, correct or forward")
        b = min(B, self._block_rows(N))
        act, scores, buf = b * N * D, b * H * N * N, np.getbufsize()
        block = max(5.5 * act + min(buf, act / 2), 4 * act + scores,
                    2 * act + scores + b * H * N + min(buf, scores), 2 * act + b * N * F)
        held = B * N if entry == "loss" else 0
        if entry == "forward":
            logits = B * N * V
            block += 0 if b == B else logits
            last = logits + _lse_tile(B * N, V) * V + 4 * B * N
        else:
            logits = b * N * V
            last = logits + 2 * b * N + (_lse_tile(b * N, V) * V if entry == "loss" else 0)
        # 16 KiB for the view tables, headers and numpy's ufunc iterators
        return int(8 * (max(block, 2 * act + logits, last) + held)) + 16 * 1024


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
    except ConfigError as exc:
        raise ValueError(f"checkpoint config is invalid: {exc}") from None


def load_weights(path) -> tuple[ModelConfig, ParameterVector]:
    """Read a save_weights checkpoint. A short read, bad magic, an unknown
    version, a config blob that is not a full ModelConfig, segments that
    differ from the config's model or bytes after them raise ValueError."""
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
        if f.read(1):
            raise ValueError("checkpoint has bytes after its last segment")
    return cfg, ParameterVector.from_arrays(arrays)
