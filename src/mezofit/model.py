"""Desk-scale decoder-only transformer in plain numpy with exact gradients.

The stack is: token embedding, then per layer {RMS-norm, multi-head causal
self-attention with rotary position encoding, residual; RMS-norm, GELU FFN,
residual}, a final RMS-norm, and an untied LM head. Everything runs in
float64 and the backward pass is hand-written reverse mode, verified against
finite differences in the tests. Attention copies no array to change layout:
heads are `_heads` views, and the rotary step runs in place over whole rows.

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

`loss_fn(tokens, targets)` binds one batch and reduces each block's logits to
its rows' loss terms as the block ends; `correct(params, tokens, targets)`
counts the targets each block's argmax hits. Neither builds the (B, N, V)
logits. Only the benchmark and the tests call `forward`, which writes every
block into one (B, N, V) array, and `loss_from_logits`; the bound loss is bit
for bit their loss. The backward pass runs the blocks in reverse, each block's
backward beside its forward, frees each layer's cache as it goes and writes
every layer's gradient products below the top one into their places in the
flat gradient, its transients in place, all in the float order of the plain
expressions, so its gradients are bit for bit those of an out-of-place pass.
"""
from __future__ import annotations

import ctypes
import math
import sys
from enum import Enum
from typing import Callable

import numpy as np

from mezofit.memory import ConfigError, ModelConfig
from mezofit.zo import ParameterVector, PerturbationSeed, Segment, generate_noise, splitmix64

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


def _rmsnorm_backward(dy: np.ndarray, x: np.ndarray, gain: np.ndarray, r: np.ndarray, out=None):
    """(dx, dgain) of _rmsnorm given r = _rms_inv(x), dx written into `dy`, dgain
    into `out` if given and r cubed in place, through one scratch buffer in the
    float order of dgain = sum(dy*x*r) and dx = dy*gain*r - x*r**3*sum(dy*gain*x)/D."""
    t = dy * x
    t *= r
    dgain = np.add.reduce(t, axis=(0, 1), out=out)
    dx = np.multiply(dy, gain, out=dy)
    np.multiply(dx, x, out=t)
    s = np.add.reduce(t, axis=-1, keepdims=True)
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


def _rope_tables(n: int, head_dim: int, heads: int):
    """Read-only `_rope` tables, (cos, sin, swap) and the inverse (cos, -sin,
    swap): (n, heads*head_dim) cos and signed sine (-sin at even dims, +sin
    at odd), each pair's angle at both its dims, and the pair swap 1, 0, 3, 2, ...."""
    ang = np.arange(n)[:, None] * _ROPE_BASE ** (-np.arange(0, head_dim, 2) / head_dim)
    ang = np.tile(np.repeat(ang, 2, axis=1), heads)
    sin = np.sin(ang)
    sin[:, 0::2] *= -1.0
    cos, nsin, swap = np.cos(ang), -sin, np.arange(heads * head_dim) ^ 1
    for t in (cos, sin, nsin, swap):
        t.flags.writeable = False
    return (cos, sin, swap), (cos, nsin, swap)


def _rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray, swap: np.ndarray) -> np.ndarray:
    """Rotate the head dims' interleaved pairs of the contiguous (..., N, D) `x`
    in place, as x*cos + swap(x)*sin over N rows of `_rope_tables`: bit for
    bit the half-view e*c - o*s and o*c + e*s, as IEEE addition commutes and
    fl(o*(-s)) = -fl(o*s). `swap` is in range; take's "clip" skips a check."""
    n = x.shape[-2]
    sw = x.take(swap, axis=-1, mode="clip")
    x *= cos[:n]
    sw *= sin[:n]
    x += sw
    return x


def _heads(x: np.ndarray, H: int) -> np.ndarray:
    """The (B, H, N, dh) view of a (B, N, D) array; matmul takes it as it is."""
    return x.reshape(*x.shape[:2], H, -1).transpose(0, 2, 1, 3)


def _head_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over heads, written into a fresh (B, N, D) array's `_heads` view."""
    out = np.empty((len(b), a.shape[-2], b.shape[1] * b.shape[-1]))
    np.matmul(a, b, out=_heads(out, b.shape[1]))
    return out


def loss_from_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy over targets >= 0; a target is -1 (ignored) or an id in [0, V)."""
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
    (B*N, 1) column. No unmasked target, or one that `_check_targets`
    refuses, raises ValueError."""
    mask = targets >= 0
    count = int(mask.sum())
    if count == 0:
        raise ValueError("no unmasked target positions")
    _check_targets(targets, V)
    gather = np.arange(mask.size) % run * V + np.where(mask, targets, 0).reshape(-1)
    return mask, count, gather.reshape(-1, 1)


def _check_targets(targets, V: int) -> None:
    """ValueError unless each target is -1 (ignored) or an id in [0, V)."""
    if targets.min() < -1 or targets.max() >= V:
        raise ValueError(f"target id out of range for {V} logits")


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
    top = np.fmax.reduce(rows, axis=-1, keepdims=True)  # max's value on rows without NaN
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
    return float(-np.add.reduce(picked.reshape(mask.shape), axis=None, where=mask) / count)


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

    Only the model knows its parameter layout: `_segments` tiles the flat
    ParameterVector (embedding, layers, final norm, head), and `_views`, the
    one source of weight and gradient views, slices it through `_table`.
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
        D, V, L = cfg.hidden_dim, cfg.vocab_size, cfg.num_layers
        layer = (("norm_attn", (D,)), ("wq", (D, D)), ("wk", (D, D)), ("wv", (D, D)),
                 ("wo", (D, D)), ("norm_ffn", (D,)), ("ffn_in", (D, F)), ("ffn_out", (F, D)))
        # (view table, short name, shape) in segment order; table l + 1 is layer l's
        order = [(0, "embed", (V, D)), *((l + 1, *seg) for l in range(L) for seg in layer),
                 (0, "norm_final", (D,)), (0, "head", (V, D))]
        self._table, segments, pos = [[] for _ in range(L + 1)], [], 0
        for t, name, shape in order:
            size = math.prod(shape)
            self._table[t].append((name, slice(pos, pos + size), shape))
            segments.append(Segment(f"layer{t - 1}.{name}" if t else name, pos, size))
            pos += size
        self._segments = tuple(segments)
        n = cfg.context_length
        self._rot, self._unrot = _rope_tables(n, cfg.head_dim, cfg.num_heads)
        self._neg_mask = np.where(np.tril(np.ones((n, n), dtype=bool)), 0.0, -np.inf)
        self._neg_mask.flags.writeable = False

    # -- parameters ---------------------------------------------------------

    def init_params(self, seed: int) -> ParameterVector:
        """One flat vector, segment by segment: a matrix is the normal stream
        keyed by (seed, its index) times 1/sqrt(D), a norm gain is ones."""
        scale = 1.0 / np.sqrt(self.cfg.hidden_dim)
        base = splitmix64(seed & ((1 << 64) - 1))
        values = np.empty(self.param_count())
        (embed, *final), layers = self._table[0], self._table[1:]
        for idx, (_, part, shape) in enumerate([embed, *(s for t in layers for s in t), *final]):
            out = values[part]
            if len(shape) == 1:
                out[:] = 1.0
            else:
                np.multiply(generate_noise(PerturbationSeed(base, idx), out.size), scale, out=out)
        return ParameterVector(values, self._segments)

    def param_count(self) -> int:
        """Trainable elements, norm gains included."""
        return sum(seg.length for seg in self._segments)

    # -- forward ------------------------------------------------------------

    def forward(self, params: ParameterVector, tokens: np.ndarray,
                mode: LedgerMode = LedgerMode.MEZO) -> tuple[np.ndarray, dict | None]:
        """(logits, cache). In BP mode the cache is what `backward` reads:
        under "layers" one dict per layer of "x_in", "q4", "k4", "v4",
        "probs", "ctx", "x_mid" and "u", and the final norm's input "x_f". In
        MeZO mode it is None. The logits are bit for bit the same in either
        mode. Only the benchmark and the tests call it: a run's MeZO losses,
        train-loss probes and evaluations go through `loss_fn` and `correct`."""
        tokens, _ = self._checked(tokens)
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
        tokens, targets = self._checked(tokens, targets)
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
        """Positions whose target (>= 0) is the argmax of its logits in forward(params,
        tokens), counted as each MeZO-mode block ends, so no (B, N, V) array exists. The
        batch is checked as `loss_fn` checks it, but one with no unmasked target counts 0."""
        tokens, targets = self._checked(tokens, targets)
        _check_targets(targets, self.cfg.vocab_size)
        n = 0
        for i, logits in self._blocks(self._views(params), tokens):
            n += np.count_nonzero(logits.argmax(-1) == targets[i:i + len(logits)])
            del logits
        return int(n)

    def _checked(self, tokens, targets=None) -> tuple[np.ndarray, np.ndarray | None]:
        """(tokens, targets) as arrays, or ValueError unless the tokens are a
        non-empty integer (batch, positions) array within the context window,
        every id in the vocabulary, and `targets`, if given, are integers of
        the same shape."""
        cfg = self.cfg
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be (batch, positions), got shape {tokens.shape}")
        if tokens.shape[1] > cfg.context_length:
            raise ValueError(
                f"sequence length {tokens.shape[1]} exceeds context_length {cfg.context_length}")
        if tokens.size == 0:
            raise ValueError(f"empty batch: tokens of shape {tokens.shape}")
        if tokens.dtype.kind not in "iu":
            raise ValueError(f"token ids must be integers, got dtype {tokens.dtype}")
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
            raise ValueError("token id out of range")
        if targets is not None:
            targets = np.asarray(targets)
            if tokens.shape != targets.shape:
                raise ValueError(f"tokens {tokens.shape} and targets {targets.shape} differ in shape")
            if targets.dtype.kind not in "iu":
                raise ValueError(f"target ids must be integers, got dtype {targets.dtype}")
        return tokens, targets

    def _block_rows(self, N: int) -> int:
        """Sequences per MeZO-mode block at N positions (see `_BLOCK`)."""
        cfg = self.cfg
        widest = N * max(self.ffn_dim, cfg.num_heads * N, cfg.vocab_size)
        return max(1, min(cfg.batch_size, _BLOCK // widest))

    def _views(self, params: ParameterVector) -> list[dict[str, np.ndarray]]:
        """`params` (weights or gradients) as shaped views keyed by short name:
        one dict for the embedding, final norm and head, then one per layer.
        ValueError unless `params` has this model's segments."""
        if params.segments is not self._segments and params.segments != self._segments:
            raise ValueError(f"parameters of {len(params)} values in {len(params.segments)} "
                             "segments are not laid out as this model's segments")
        return [{name: params.values[part].reshape(shape) for name, part, shape in table}
                for table in self._table]

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
        layers, ends = [], views[0]
        x = ends["embed"][tokens]
        for w in views[1:]:
            x, attn = self._attention(w, x, bp)
            x, ffn = self._ffn(w, x, bp)
            if bp:
                layers.append({**attn, **ffn})

        logits = np.matmul(_rmsnorm(x, ends["norm_final"]), ends["head"].T, out=out)
        return logits, dict(layers=layers, x_f=x) if bp else None

    def _attention(self, w, x_in, bp):
        """x_in + attn(rmsnorm(x_in)) @ wo over one layer's weights `w`, and
        (BP mode) what backward reads: q and k rotate in place and q, k, v
        and ctx are `_heads` views. Each buffer is dropped once the next
        operation has read it; in BP mode the cache keeps the ones backward
        reads."""
        N, H, dh = x_in.shape[1], self.cfg.num_heads, self.cfg.head_dim
        h = _rmsnorm(x_in, w["norm_attn"])
        q = _heads(_rope(h @ w["wq"], *self._rot), H)
        k = _heads(_rope(h @ w["wk"], *self._rot), H)
        v = _heads(h @ w["wv"], H)
        del h
        cache = dict(x_in=x_in, q4=q, k4=k, v4=v) if bp else {}
        # softmax in place: the scores buffer becomes the probabilities
        probs = q @ k.transpose(0, 1, 3, 2)
        del q, k
        probs *= 1.0 / np.sqrt(dh)
        probs += self._neg_mask[:N, :N]  # -inf above the diagonal: causal attention
        probs -= np.fmax.reduce(probs, axis=-1, keepdims=True)  # max's value on rows without NaN
        np.exp(probs, out=probs)
        probs /= np.add.reduce(probs, axis=-1, keepdims=True)
        ctx = _head_product(probs, v)
        if bp:
            cache.update(probs=probs, ctx=ctx)
        del probs, v
        out = ctx @ w["wo"]
        out += x_in
        return out, cache

    def _ffn(self, w, x_mid, bp):
        """x_mid + gelu(rmsnorm(x_mid) @ w_in) @ w_out over one layer's weights
        `w`, and (BP mode) what backward reads: x_mid and u. MeZO mode writes
        GELU over u through the normed input h, dead by then, then the output
        into h. BP mode drops h once u exists and gives GELU its own output and
        tile: MeZO's path saves no BP peak there and, bit for bit the same, made
        the train-matched BP backward 4-6% slower (in-process A/Bs, 1 thread)."""
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

        Runs the blocks in reverse from the top, `_ffn_backward` then
        `_attention_backward` per layer; each pops its cache entries and its
        transients die when it returns. Each writes every gradient product
        through `np.matmul(..., out=g.get(name))`, the gains through
        `_rmsnorm_backward`: for the ends and the top layer `g` is a held dict,
        so the products are made fresh and copied in once the flat gradient is
        made, after the top layer's cache is gone; below, `g` is the layer's
        views of the flat gradient, so each product is written into its place.
        In-place steps keep the plain expressions' float order."""
        D, V = self.cfg.hidden_dim, self.cfg.vocab_size
        tokens, targets = self._checked(tokens, targets)
        views = self._views(params)
        logits, caches = self._sequences(views, tokens, True)
        loss, dlogits = _loss_backward(logits, targets)
        del logits

        (ends, *weights), layers = views, caches["layers"]
        x_f = caches.pop("x_f")
        r = _rms_inv(x_f)
        g = dict(head=dlogits.reshape(-1, V).T @ _rmsnorm(x_f, ends["norm_final"], r).reshape(-1, D))
        dx, g["norm_final"] = _rmsnorm_backward(dlogits @ ends["head"], x_f, ends["norm_final"], r)
        del dlogits, x_f, r

        while layers:
            c, w = layers.pop(), weights.pop()
            self._ffn_backward(w, c, dx, g)
            self._attention_backward(w, c, dx, g)
            del c  # its emptied dict, before the flat gradient is made
            if "head" in g:  # the top layer's cache is gone: make the flat gradient
                grad = ParameterVector(np.empty(len(params)), self._segments)
                grads = self._views(grad)
                into = {**grads[0], **grads.pop()}  # the ends' and top layer's views
                for name in list(g):  # each held array is dropped once copied in
                    into[name][:] = g.pop(name)
            g = grads.pop()  # after layer 0, the embedding's, final norm's and head's

        g["embed"][:] = 0.0
        np.add.at(g["embed"], tokens.ravel(), dx.reshape(-1, D))
        return grad, loss

    def _ffn_backward(self, w, c, dx, g):
        """Backward of `_ffn` over one layer's weights `w` and cache `c`: adds the
        block's input gradient to dx in place and writes its weights' gradients
        through `g` (see `backward`). u's buffer takes the GELU output."""
        D, F = self.cfg.hidden_dim, self.ffn_dim
        x_mid, u = c.pop("x_mid"), c.pop("u")
        du = _gelu_backward(dx @ w["ffn_out"].T, u)
        g["ffn_out"] = np.matmul(u.reshape(-1, F).T, dx.reshape(-1, D), out=g.get("ffn_out"))
        del u
        r = _rms_inv(x_mid)
        g["ffn_in"] = np.matmul(_rmsnorm(x_mid, w["norm_ffn"], r).reshape(-1, D).T,
                                du.reshape(-1, F), out=g.get("ffn_in"))
        dh = du @ w["ffn_in"].T
        del du
        dh, g["norm_ffn"] = _rmsnorm_backward(dh, x_mid, w["norm_ffn"], r, g.get("norm_ffn"))
        dx += dh

    def _attention_backward(self, w, c, dx, g):
        """Backward of `_attention` over one layer's weights `w` and cache `c`,
        as `_ffn_backward` is of `_ffn`: dv, dq and dk are written through
        `_heads` views, and dq and dk rotate back in place."""
        D, H = self.cfg.hidden_dim, self.cfg.num_heads
        g["wo"] = np.matmul(c.pop("ctx").reshape(-1, D).T, dx.reshape(-1, D), out=g.get("wo"))
        dctx = _heads(dx @ w["wo"].T, H)
        probs = c.pop("probs")
        dscores = dctx @ c.pop("v4").transpose(0, 1, 3, 2)  # dprobs, then dscores in place
        dv = _head_product(probs.transpose(0, 1, 3, 2), dctx)
        del dctx
        inner = np.add.reduce(dscores * probs, axis=-1, keepdims=True)
        dscores -= inner
        dscores *= probs
        del probs, inner
        inv_sqrt_dh = 1.0 / np.sqrt(self.cfg.head_dim)
        dq = _head_product(dscores, c.pop("k4"))
        dq *= inv_sqrt_dh
        dk = _head_product(dscores.transpose(0, 1, 3, 2), c.pop("q4"))
        dk *= inv_sqrt_dh
        del dscores
        _rope(dq, *self._unrot)
        _rope(dk, *self._unrot)
        x_in = c.pop("x_in")
        r = _rms_inv(x_in)
        h2d = _rmsnorm(x_in, w["norm_attn"], r).reshape(-1, D)
        for name, d in (("wq", dq), ("wk", dk), ("wv", dv)):
            g[name] = np.matmul(h2d.T, d.reshape(-1, D), out=g.get(name))
        dh = dq @ w["wq"].T
        dh += dk @ w["wk"].T
        dh += dv @ w["wv"].T
        dh, g["norm_attn"] = _rmsnorm_backward(dh, x_in, w["norm_attn"], r, g.get("norm_attn"))
        dx += dh

    # -- peak bytes ---------------------------------------------------------

    def peak_bytes(self, entry: str, B: int, N: int) -> int:
        """The tracemalloc peak of one call of `entry` over B sequences of N
        positions, from shapes: "backward", "loss" (a `loss_fn` function),
        "correct" or "forward" (`forward` plus `loss_from_logits`, MeZO
        mode); another name raises ValueError. It models this float64 numpy
        code, numpy's broadcast and reduction scratch included, as the
        largest moment in elements plus a slack for view tables, headers and
        numpy's iterators; `memory_for_mode` stays the paper's model.

        "backward" holds dx and the caches of the layers below the top one
        throughout, beside the largest of three moments: the loss gradient
        (the top layer's cache, the logits, their gradient, five B*N columns
        and a broadcast buffer); the top layer's blocks, whose products are
        held until the flat gradient exists (its cache and the head's and
        final norm's gradients, beside, in the FFN, the GELU gradient and
        three tiles or the (F, D) ffn_out product, and in attention, less the
        cache it has freed, the scores' gradient, its product with the scores,
        dv and the row sums, with the FFN's and wo's gradients); the flat
        gradient of 8*P bytes, beside first the held ends' and top layer's
        gradients and then a lower layer's transients, whose products are
        written into their places. A MeZO block of b = min(B,
        `_block_rows`(N)) sequences holds, in attention, x_in, its norm, q,
        k and `_rope`'s pair-swapped copy or v, then x_in, q, k, v and the
        scores, then x_in, v, the scores and the softmax's row reductions
        (the rotary step's broadcast tables and the softmax each add a numpy
        buffer of at most np.getbufsize() elements); in the FFN, x_mid, its
        norm and the pre-activation; at the head, x and its norm beside the
        logits: one block's for "loss", which adds the log-sum-exp tile, the
        block's row maxima and sums and the B*N terms it keeps, and "correct",
        which adds the argmax and its comparison; all B*N*V for "forward",
        beside every block if several, then the tile and four B*N columns.
        The tile's max-shift broadcasts the row maxima, so "loss" and
        "forward" add a numpy buffer of at most the tile there too."""
        cfg = self.cfg
        D, H, F, V, L = cfg.hidden_dim, cfg.num_heads, self.ffn_dim, cfg.vocab_size, cfg.num_layers
        buf = np.getbufsize()
        if entry == "backward":
            act, scores, ffn = B * N * D, B * H * N * N, B * N * F
            layer = 6 * act + scores + ffn  # one layer's cache
            # each block's transients past its layer's cache
            gelu, attn = ffn + 3 * min(_TILE, ffn), 2 * scores + B * H * N - 2 * act - ffn
            held = V * D + 3 * D + 2 * F * D + 4 * D * D  # the ends' and top layer's, bar embed
            moment = max(layer + 2 * B * N * V + 5 * B * N + min(buf, B * N * V),
                         layer + V * D + D + max(gelu, ffn + F * D, attn + 2 * F * D + D * D + D),
                         self.param_count() + (max(held, gelu, attn) if L > 1 else held))
            # (4 + 5L) KiB of view tables, layer dicts and headers; 96 B of numpy's dimension cache
            return 8 * ((L - 1) * layer + act + moment) + (4 + 5 * L) * 1024 + 96
        if entry not in ("loss", "correct", "forward"):
            raise ValueError(f"unknown entry {entry!r}: not backward, loss, correct or forward")
        b = min(B, self._block_rows(N))
        act, scores = b * N * D, b * H * N * N
        block = max(5 * act + min(buf, act), 4 * act + scores,
                    2 * act + scores + b * H * N + min(buf, scores), 2 * act + b * N * F)
        held = B * N if entry == "loss" else 0
        if entry == "forward":
            logits, tile = B * N * V, _lse_tile(B * N, V) * V
            block += 0 if b == B else logits
            last = logits + tile + min(buf, tile) + 4 * B * N
        else:
            logits, tile = b * N * V, _lse_tile(b * N, V) * V if entry == "loss" else 0
            last = logits + 2 * b * N + tile + min(buf, tile)
        # (12 + L) KiB for the view tables, headers and numpy's ufunc iterators
        return 8 * (max(block, 2 * act + logits, last) + held) + (12 + L) * 1024
