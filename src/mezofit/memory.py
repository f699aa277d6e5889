"""Analytic memory models for BP vs. MeZO fine-tuning of decoder-only transformers.

Closed-form byte counts for training a decoder-only transformer either with
backpropagation (optionally with activation checkpointing) or with
memory-efficient zeroth-order optimization (MeZO), plus scaling sweeps over
context length / depth / width and a bisection solver for the largest model
dimension that fits a byte budget.

`memory_for_mode` is the one total: every caller names its `MemoryMode`, and
each mode's activation term is `activation_bytes` over the layers it keeps:
L under BP, sqrt(L) under checkpointed BP and stored_layers under MeZO.

All functions here are pure; no shared mutable state.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import operator
import sys
import typing
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType


class ConfigError(ValueError):
    """A model configuration violates its invariants."""


@functools.cache
def field_types(cls) -> MappingProxyType:
    """Each dataclass field annotated int or float (either may be ``| None``) mapped
    to that type, other fields left out; read-only, since every caller shares it."""
    return MappingProxyType({name: kind for name, hint in typing.get_type_hints(cls).items()
                             for kind in (int, float) if hint in (kind, kind | None)})


def shown(v) -> str:
    """repr(v), or the size of an int too long for repr (past 4,300 digits)."""
    try:
        return repr(v)
    except ValueError:
        return f"{'a negative' if v < 0 else 'an'} integer of {v.bit_length()} bits"


def real_setting(name: str, value, positive: bool) -> float:
    """`value` as a Python float, the one rule for a real-valued setting: a bool,
    a value that is not a `numbers.Real` and one whose float is not in [0,
    largest float], or is 0 when `positive`, raise ConfigError naming `name`.
    So a Fraction, a numpy float or a longdouble runs as the float it names."""
    x = value
    if type(value) is not float:  # the common case skips the ABC checks
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        try:
            x = float(value) if real else math.nan
        except OverflowError:  # an int or a Fraction past the largest float
            x = math.nan
    if not ((0.0 < x if positive else 0.0 <= x) and x <= sys.float_info.max):  # NaN fails
        raise ConfigError(f"{name} must be a real number in {'(' if positive else '['}0, "
                          f"{sys.float_info.max!r}], got {shown(value)}")
    return x


def int_setting(name: str, value, lo: int | None = None, hi: float | None = None) -> int:
    """`value` as a Python int, the one rule for an integer setting: a bool, a
    value `operator.index` refuses (a float, a string) and one outside [lo, hi]
    raise ConfigError naming `name`. So a numpy integer runs as the int it names."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or lo is not None and n < lo or hi is not None and n > hi:
        bounds = ("" if lo is None and hi is None else f" >= {lo}" if hi is None
                  else f" <= {hi!r}" if lo is None else f" in [{lo}, {hi!r}]")
        raise ConfigError(f"{name} must be an integer{bounds}, got {shown(value)}")
    return n


def check_field_types(obj, positive: tuple[str, ...] = ()) -> None:
    """Store each `field_types` int field of `obj` as `int_setting` returns it and
    each float field as `real_setting` does (> 0 if in `positive`); either raises
    ConfigError. A None in a field annotated ``| None`` is left as it is."""
    for name, kind in field_types(type(obj)).items():
        v = getattr(obj, name)
        if v is None and typing.get_type_hints(type(obj))[name] is not kind:
            continue
        object.__setattr__(obj, name, real_setting(name, v, name in positive) if kind is float
                           else int_setting(name, v))


class InfeasibleError(ValueError):
    """No admissible axis value fits the memory budget."""


class MemoryMode(str, Enum):
    BP = "bp"
    BP_CHECKPOINTED = "bp-ckpt"
    MEZO = "mezo"


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and precision knobs of a decoder-only transformer.

    ``stored_layers`` is the implementation-specific number of layers' worth
    of activations a MeZO runtime keeps buffered (0 <= stored_layers <=
    num_layers, fractions allowed). It is the layer count of the MeZO
    activation term of ``memory_for_mode``; the desk model's MeZO forward
    buffers no layer. No integer field may exceed the largest float. The desk
    model accepts only ``kv_heads == num_heads`` and ``num_mlps == 2``.
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
        check_field_types(self, positive=("bytes_per_param", "expansion_factor"))
        for field, kind in field_types(ModelConfig).items():
            if kind is int:
                int_setting(field, getattr(self, field), 1, sys.float_info.max)
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(
                f"hidden_dim must be divisible by num_heads "
                f"({self.hidden_dim} % {self.num_heads} != 0)")
        if self.num_heads % self.kv_heads != 0:
            raise ConfigError(f"kv_heads must divide num_heads {self.num_heads}, got {self.kv_heads}")
        if self.stored_layers > self.num_layers:  # real_setting refused a negative one
            raise ConfigError(
                f"stored_layers must lie in [0, num_layers], got "
                f"{shown(self.stored_layers)} with num_layers={self.num_layers}")

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


def _kv_and_ffn(cfg: ModelConfig) -> float:
    """2*k/H + m*e: a layer's keys, values and FFN matrices, in D^2 weights or B*N*D activations."""
    return 2 * cfg.kv_heads / cfg.num_heads + cfg.num_mlps * cfg.expansion_factor


def param_elements(cfg: ModelConfig) -> float:
    """Trainable elements w*L*D^2 + 2*V*D, w = 2 + 2*k/H + m*e (12 by default): query,
    output, the k-of-H-heads key and value, and the m FFN matrices of width e*D per
    layer, then the embedding and head; norm gains are negligible and left out."""
    L, D, V = cfg.num_layers, cfg.hidden_dim, cfg.vocab_size
    return (2 + _kv_and_ffn(cfg)) * L * D * D + 2.0 * V * D


def activation_bytes(cfg: ModelConfig, layers: float | None = None) -> float:
    """Bytes of cached activations for a full-backprop forward pass through
    `layers` layers (all num_layers by default): B*N*D*layers elements times
    2 + b*(6 + 2*k/H + m*e) + (2*b + 1)*N*H/D, a bracket of 16*b by default."""
    B, N, D, H, b = (cfg.batch_size, cfg.context_length, cfg.hidden_dim, cfg.num_heads,
                     cfg.bytes_per_param)
    L = cfg.num_layers if layers is None else layers
    elements = B * N * D
    # an exact int; past float max it cannot meet a float `layers`, and any
    # layers > 0 make the product inf anyway
    if elements > sys.float_info.max:
        return math.inf if L else 0.0
    elements *= L  # still an exact int for int `layers`
    if elements > sys.float_info.max:
        return math.inf
    return elements * (2 + (6 + _kv_and_ffn(cfg)) * b + (2 * b + 1) * N * H / D)


def memory_for_mode(cfg: ModelConfig, mode: MemoryMode) -> MemoryBreakdown:
    """Total training memory in one mode with a stateless SGD optimizer:
    w*b*L*D^2 weight bytes (w as in `param_elements`), as many gradient bytes
    under BP and none under MeZO, 4*b*V*D embedding/head bytes under BP
    (their gradients included) or 2*b*V*D under MeZO, and `activation_bytes`
    over the layers the mode keeps: L, sqrt(L) when checkpointed (real-valued;
    the rest are recomputed on the fly) or stored_layers."""
    mode = MemoryMode(mode)
    b, L, D, V = cfg.bytes_per_param, cfg.num_layers, cfg.hidden_dim, cfg.vocab_size
    bp = mode is not MemoryMode.MEZO
    weights = (2 + _kv_and_ffn(cfg)) * b * L * D * D
    gradients = weights if bp else 0.0
    embed_head = (4 if bp else 2) * b * V * D
    acts = activation_bytes(cfg, {MemoryMode.BP: L, MemoryMode.BP_CHECKPOINTED: math.sqrt(L),
                                  MemoryMode.MEZO: cfg.stored_layers}[mode])
    return MemoryBreakdown(weights, gradients, embed_head, acts,
                           weights + gradients + embed_head + acts, mode)


def mezo_memory(cfg: ModelConfig) -> MemoryBreakdown:
    """`memory_for_mode` under MeZO; kept only for perfbench/workloads.py, which imports it."""
    return memory_for_mode(cfg, MemoryMode.MEZO)


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
class SweepPoint:
    axis_value: int
    m_bp: float
    m_mezo: float
    ratio: float


def sweep(base: ModelConfig, axis: SweepAxis, values,
          checkpointed: bool = False) -> list[SweepPoint]:
    """BP/MeZO totals and their ratio at each of `values` (positive, increasing) along `axis`."""
    values = [int_setting("sweep value", v) for v in values]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("sweep values must be strictly increasing")
    if not values or values[0] < 1:
        raise ConfigError("sweep values must be non-empty and positive")
    field = AXIS_FIELD[SweepAxis(axis)]
    bp_mode = MemoryMode.BP_CHECKPOINTED if checkpointed else MemoryMode.BP
    points = []
    for v in values:
        try:
            cfg = base.replace(**{field: v})
        except ConfigError as exc:
            raise ConfigError(f"axis value {v} for {field}: {exc}") from exc
        mb = memory_for_mode(cfg, bp_mode).total_bytes
        mz = memory_for_mode(cfg, MemoryMode.MEZO).total_bytes
        points.append(SweepPoint(v, mb, mz, mb / mz))
    return points


# ---------------------------------------------------------------------------
# budget solver
# ---------------------------------------------------------------------------

def max_dimension(budget_bytes: float, cfg: ModelConfig, free_axis: SweepAxis,
                  mode: MemoryMode) -> int:
    """Largest value of the free axis whose total memory fits the budget.

    Total memory is strictly increasing in both hidden_dim and num_layers, so
    monotone bisection applies. hidden_dim candidates are restricted to multiples
    of num_heads; num_layers candidates start at ceil(stored_layers) so the
    configuration stays valid. A budget that is not finite raises ConfigError.
    """
    if not math.isfinite(budget_bytes):
        raise ConfigError(f"budget must be a finite number of bytes, got {shown(budget_bytes)}")
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

    # exponential growth to bracket, then bisection on the unit index. The
    # weights alone, w * bytes_per_param * L * D^2 bytes with w > 2, overrun
    # the budget once the axis value passes budget / bytes_per_param, so a
    # unit index above `top` needs no evaluation to bracket.
    top = budget_bytes / cfg.bytes_per_param / step
    lo, hi = umin, umin * 2
    while hi <= top and total(hi) <= budget_bytes:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if total(mid) <= budget_bytes:
            lo = mid
        else:
            hi = mid
    return lo * step
