"""Analytic memory models for BP vs. MeZO fine-tuning of decoder-only transformers.

Closed-form byte counts for training a decoder-only transformer either with
backpropagation (optionally with activation checkpointing) or with
memory-efficient zeroth-order optimization (MeZO), plus scaling sweeps over
context length / depth / width and a bisection solver for the largest model
dimension that fits a byte budget.

All functions here are pure; no shared mutable state.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType


class ConfigError(ValueError):
    """A model configuration violates its invariants."""


@functools.cache
def field_types(cls) -> MappingProxyType:
    """Each dataclass field mapped to int or float as its annotation says
    (``int | None`` maps to int); read-only, since every caller shares it."""
    return MappingProxyType({name: int if int in (hint, *typing.get_args(hint)) else float
                             for name, hint in typing.get_type_hints(cls).items()})


class InfeasibleError(ValueError):
    """No admissible axis value fits the memory budget."""


class MemoryMode(str, Enum):
    BP = "bp"
    BP_CHECKPOINTED = "bp-ckpt"
    MEZO = "mezo"


class ParamCountMode(str, Enum):
    # SIMPLIFIED is the 12*L*D^2 + 2*V*D form used by the byte formulas below;
    # GENERIC exposes the kv-head / MLP-count / expansion-factor knobs.
    SIMPLIFIED = "simplified"
    GENERIC = "generic"


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and precision knobs of a decoder-only transformer.

    ``stored_layers`` is the implementation-specific number of layers' worth
    of activations a MeZO runtime keeps buffered (0 <= stored_layers <=
    num_layers, fractions allowed). It only scales ``mezo_memory``'s
    activation term; the desk model's MeZO forward buffers no layer.
    """

    context_length: int
    num_layers: int
    hidden_dim: int
    num_heads: int
    vocab_size: int
    kv_heads: int | None = None  # defaults to num_heads
    num_mlps: int = 2
    expansion_factor: float = 4.0
    batch_size: int = 1
    bytes_per_param: float = 2.0  # FP16
    stored_layers: float = 1.0

    def __post_init__(self) -> None:
        if self.kv_heads is None:
            object.__setattr__(self, "kv_heads", self.num_heads)
        for field, kind in field_types(ModelConfig).items():
            v = getattr(self, field)
            if kind is int and (not isinstance(v, int) or isinstance(v, bool) or v < 1):
                raise ConfigError(f"{field} must be a positive integer, got {v!r}")
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(
                f"hidden_dim must be divisible by num_heads "
                f"({self.hidden_dim} % {self.num_heads} != 0)")
        if not self.bytes_per_param > 0:
            raise ConfigError(f"bytes_per_param must be > 0, got {self.bytes_per_param!r}")
        if not self.expansion_factor > 0:
            raise ConfigError(f"expansion_factor must be > 0, got {self.expansion_factor!r}")
        if not 0 <= self.stored_layers <= self.num_layers:
            raise ConfigError(
                f"stored_layers must lie in [0, num_layers], got "
                f"{self.stored_layers!r} with num_layers={self.num_layers}")

    def replace(self, **changes) -> "ModelConfig":
        return dataclasses.replace(self, **changes)

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads


@dataclass(frozen=True)
class MemoryBreakdown:
    """Itemized training-memory estimate in bytes."""

    weights_bytes: float
    gradients_bytes: float
    embedding_head_bytes: float
    activations_bytes: float
    total_bytes: float
    mode: MemoryMode

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["mode"] = self.mode.value
        return d


def param_elements(cfg: ModelConfig, mode: ParamCountMode = ParamCountMode.SIMPLIFIED) -> int:
    """Trainable-element count (norm gains excluded, they are negligible)."""
    L, D, V = cfg.num_layers, cfg.hidden_dim, cfg.vocab_size
    if ParamCountMode(mode) is ParamCountMode.SIMPLIFIED:
        return 12 * L * D * D + 2 * V * D
    # attention: q and o projections are D x D, k and v shrink with kv_heads
    attn = L * (2 * D * D + 2 * D * (D // cfg.num_heads) * cfg.kv_heads)
    ffn = cfg.num_mlps * L * D * (D * cfg.expansion_factor)
    return int(round(attn + ffn + 2 * V * D))


def activation_bytes(cfg: ModelConfig) -> float:
    """Bytes of cached activations for a full-backprop forward pass."""
    B, L, N, D, H, b = (cfg.batch_size, cfg.num_layers, cfg.context_length,
                        cfg.hidden_dim, cfg.num_heads, cfg.bytes_per_param)
    return B * L * N * D * (2 + 16 * b + (2 * b + 1) * N * H / D)


def bp_memory(cfg: ModelConfig, checkpointed: bool = False) -> MemoryBreakdown:
    """Total training memory under backpropagation with a stateless SGD optimizer.

    Checkpointing rescales the activation term by sqrt(L)/L (real-valued
    square root; the remaining activations are recomputed on the fly).
    """
    b, L, D, V = cfg.bytes_per_param, cfg.num_layers, cfg.hidden_dim, cfg.vocab_size
    weights = 12 * b * L * D * D
    gradients = 12 * b * L * D * D
    embed_head = 4 * b * V * D  # embedding + LM head + their gradients
    acts = activation_bytes(cfg)
    if checkpointed:
        acts = acts * math.sqrt(L) / L
    mode = MemoryMode.BP_CHECKPOINTED if checkpointed else MemoryMode.BP
    return MemoryBreakdown(weights, gradients, embed_head, acts,
                           weights + gradients + embed_head + acts, mode)


def mezo_memory(cfg: ModelConfig) -> MemoryBreakdown:
    """Total training memory under MeZO: no gradients, no head gradients,
    and only stored_layers/num_layers of the activation term buffered."""
    b, L, D, V = cfg.bytes_per_param, cfg.num_layers, cfg.hidden_dim, cfg.vocab_size
    weights = 12 * b * L * D * D
    embed_head = 2 * b * V * D
    acts = (cfg.stored_layers / L) * activation_bytes(cfg)
    return MemoryBreakdown(weights, 0.0, embed_head, acts,
                           weights + embed_head + acts, MemoryMode.MEZO)


def memory_for_mode(cfg: ModelConfig, mode: MemoryMode) -> MemoryBreakdown:
    mode = MemoryMode(mode)
    if mode is MemoryMode.BP:
        return bp_memory(cfg, checkpointed=False)
    if mode is MemoryMode.BP_CHECKPOINTED:
        return bp_memory(cfg, checkpointed=True)
    return mezo_memory(cfg)


def memory_ratio(cfg: ModelConfig, checkpointed: bool = False) -> float:
    """BP-over-MeZO total-memory ratio; larger means greater MeZO savings."""
    return bp_memory(cfg, checkpointed).total_bytes / mezo_memory(cfg).total_bytes


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

class SweepAxis(str, Enum):
    N = "n"  # context length
    L = "l"  # number of layers
    D = "d"  # hidden dimension


AXIS_FIELD = {
    SweepAxis.N: "context_length",
    SweepAxis.L: "num_layers",
    SweepAxis.D: "hidden_dim",
}


@dataclass(frozen=True)
class SweepSpec:
    axis: SweepAxis
    values: tuple[int, ...]
    base: ModelConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if not self.values:
            raise ConfigError("sweep values must be non-empty")
        if any(v < 1 for v in self.values):
            raise ConfigError("sweep values must be positive")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("sweep values must be strictly increasing")


@dataclass(frozen=True)
class SweepPoint:
    axis_value: int
    m_bp: float
    m_mezo: float
    ratio: float


def sweep(spec: SweepSpec, checkpointed: bool = False) -> list[SweepPoint]:
    """Evaluate BP/MeZO totals and their ratio along one axis."""
    field = AXIS_FIELD[spec.axis]
    points = []
    for v in spec.values:
        try:
            cfg = spec.base.replace(**{field: v})
        except ConfigError as exc:
            raise ConfigError(f"axis value {v} for {spec.axis.value}: {exc}") from exc
        mb = bp_memory(cfg, checkpointed).total_bytes
        mz = mezo_memory(cfg).total_bytes
        points.append(SweepPoint(v, mb, mz, mb / mz))
    return points


# ---------------------------------------------------------------------------
# budget solver
# ---------------------------------------------------------------------------

def max_dimension(budget_bytes: float, cfg: ModelConfig, free_axis: SweepAxis,
                  mode: MemoryMode) -> int:
    """Largest value of the free axis whose total memory fits the budget.

    Total memory is strictly increasing in both hidden_dim and num_layers, so
    monotone bisection applies. hidden_dim candidates are restricted to
    multiples of num_heads; num_layers candidates start at
    ceil(stored_layers) so the configuration stays valid.
    """
    free_axis = SweepAxis(free_axis)
    if free_axis is SweepAxis.D:
        step = cfg.num_heads
        vmin = cfg.num_heads
    elif free_axis is SweepAxis.L:
        step = 1
        vmin = max(1, math.ceil(cfg.stored_layers))
    else:
        raise ConfigError(f"free_axis must be d or l, got {free_axis!r}")
    field = AXIS_FIELD[free_axis]

    def total(units: int) -> float:
        return memory_for_mode(cfg.replace(**{field: units * step}), mode).total_bytes

    umin = vmin // step
    if total(umin) > budget_bytes:
        raise InfeasibleError(
            f"budget {budget_bytes:.6g} B is below the memory at the minimum "
            f"admissible {field} = {vmin}")

    # exponential growth to bracket, then bisection on the unit index
    lo, hi = umin, umin * 2
    while total(hi) <= budget_bytes:
        lo, hi = hi, hi * 2
        if hi > 1 << 42:
            raise InfeasibleError("budget brackets no finite axis value")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if total(mid) <= budget_bytes:
            lo = mid
        else:
            hi = mid
    return lo * step
