"""MeZO/SPSA zeroth-order gradient estimation with seed-regenerated noise.

The estimator perturbs the flat parameter vector in place with Gaussian
directions that are never materialized at full length: noise streams come
from a counter-based generator (Philox) keyed by (seed, stream index) and are
replayed chunk by chunk whenever they are needed again. A Philox can be put at
the start of any key's stream by setting its `bit_generator.state`, so
generators are not rebuilt: `keyed_philox` rewinds a spare one from a small
list (building one only when the list is empty) and `release_philox` hands it
back. One rule governs every loan: a draw takes a generator for its first
block and hands it back right after its last, so two live streams never share
one and the estimator holds none while the loss function runs. Only
`generate_noise` and `iter_noise_chunks` borrow here; a walk stopped before
its last block is simply collected, generator and all. The loss may take and
release generators of its own (task batches, for instance).

One `_Stream` walks a direction's noise for all four passes (+shift,
-shift, restore, update). A vector that fits in one chunk keeps its noise for
the three passes of its estimate, so it is drawn once before the update; a
longer one is redrawn from the stream start on every pass. Every pass works in
place through two chunk-sized scratch buffers, allocated once per pass.

The estimator's own bytes at a loss evaluation are one sparse record of the
few coordinates whose float perturbation cannot be undone by arithmetic alone,
10 bytes each at the default chunk (a uint16 chunk-local index and the saved
float64), plus the whole noise vector only when it fits in one chunk. With a
pass's scratch they peak at the kept noise plus two scratch buffers for a
one-chunk vector, and at two chunk buffers plus the record for a longer one.
The record makes the parameter vector come back bit-for-bit after an estimate.
"""
from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from mezofit.memory import ConfigError, check_field_types, shown

DEFAULT_CHUNK = 1 << 16

_MASK64 = (1 << 64) - 1


class NonfiniteLossError(RuntimeError):
    """A loss evaluation produced NaN or Inf; parameters were restored."""


class NonfiniteGradError(RuntimeError):
    """A gradient evaluation produced NaN or Inf; no update was applied."""


# ---------------------------------------------------------------------------
# flat parameters with named segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    name: str
    offset: int
    length: int


@dataclass
class ParameterVector:
    """Flat float64 parameter storage tiled exactly by named segments."""

    values: np.ndarray
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        self.segments = tuple(self.segments)
        names = [s.name for s in self.segments]
        if len(set(names)) != len(names):
            raise ValueError("segment names must be unique")
        pos = 0
        for seg in self.segments:
            if seg.offset != pos or seg.length < 0:
                raise ValueError(
                    f"segments must tile the vector contiguously; "
                    f"segment {seg.name!r} starts at {seg.offset}, expected {pos}")
            pos += seg.length
        if pos != self.values.size:
            raise ValueError(
                f"segments cover {pos} elements but the vector holds {self.values.size}")
        self._by_name = {s.name: s for s in self.segments}

    @classmethod
    def from_arrays(cls, named_arrays: Sequence[tuple[str, np.ndarray]]) -> "ParameterVector":
        segments, chunks, pos = [], [], 0
        for name, arr in named_arrays:
            flat = np.asarray(arr, dtype=np.float64).ravel()
            segments.append(Segment(name, pos, flat.size))
            chunks.append(flat)
            pos += flat.size
        values = np.concatenate(chunks) if chunks else np.empty(0)
        return cls(values, tuple(segments))

    def __len__(self) -> int:
        return self.values.size

    def segment(self, name: str) -> np.ndarray:
        seg = self._by_name[name]
        return self.values[seg.offset:seg.offset + seg.length]

    def view(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        return self.segment(name).reshape(shape)

    def copy(self) -> "ParameterVector":
        return ParameterVector(self.values.copy(), self.segments)


# ---------------------------------------------------------------------------
# deterministic noise streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSeed:
    """Key of one regenerable standard-normal stream."""

    seed: int
    stream_index: int


def splitmix64(x: int) -> int:
    """Standard 64-bit finalizer; used to derive per-step seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def step_seed(master_seed: int, step_index: int) -> int:
    """64-bit seed for one optimizer step; fresh directions for every step."""
    return splitmix64((master_seed & _MASK64) ^ splitmix64(step_index & _MASK64))


# Idle generators, handed back by their owners. Building a Philox costs about
# ten rewinds, because numpy draws a SeedSequence from OS entropy even when
# `key=` is given. The list never holds more generators than were live at
# once, and list.pop gives each one to a single caller.
_SPARE: list[np.random.Generator] = []
_ZEROS = (0, 0, 0, 0)
_KEYED = {"counter": _ZEROS, "key": (0, 0)}  # every rewind's state; only the key changes
_REWIND = {"bit_generator": "Philox", "state": _KEYED, "buffer": _ZEROS,
           "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def keyed_philox(k0: int, k1: int) -> np.random.Generator:
    """A generator at the start of the Philox stream keyed by (k0, k1), each
    an integer (Python or numpy) taken modulo 2^64: the draws of
    Generator(Philox(key=[k0, k1])).

    The caller owns it until it hands it back with `release_philox`, and must
    not use it after that. One never handed back is simply collected."""
    k0, k1 = operator.index(k0), operator.index(k1)
    try:
        gen = _SPARE.pop()
    except IndexError:
        gen = np.random.Generator(np.random.Philox())
    _KEYED["key"] = (k0 & _MASK64, k1 & _MASK64)
    gen.bit_generator.state = _REWIND
    _KEYED["key"] = (0, 0)  # so no key outlives its rewind
    return gen


def release_philox(gen: np.random.Generator) -> None:
    """Hand back a generator from `keyed_philox` once its owner is done."""
    _SPARE.append(gen)


def generate_noise(seed: PerturbationSeed, length: int) -> np.ndarray:
    """The first `length` values of a standard-normal stream, in one draw."""
    if length < 0:
        raise ValueError("length must be >= 0")
    gen = keyed_philox(seed.seed, seed.stream_index)
    noise = gen.standard_normal(length)
    release_philox(gen)
    return noise


def iter_noise_chunks(seed: PerturbationSeed, length: int, chunk: int = DEFAULT_CHUNK,
                      out: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (offset, block) pieces of the stream without holding it whole.

    With `out` (at least min(chunk, length) floats) each block is drawn into
    a view of it, which the next step overwrites. The generator goes back
    before the last block is yielded; an empty stream takes none."""
    if length <= 0:
        return
    gen = keyed_philox(seed.seed, seed.stream_index)
    for start in range(0, length, chunk):
        m = min(chunk, length - start)
        block = gen.standard_normal(m, out=None if out is None else out[:m])
        if start + m == length:
            release_philox(gen)
        yield start, block


# ---------------------------------------------------------------------------
# hyperparameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZOConfig:
    epsilon: float = 1e-3
    learning_rate: float = 1e-3
    num_perturbations: int = 5
    master_seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0 < self.epsilon <= sys.float_info.max:  # NaN fails too
            raise ConfigError(f"epsilon must be finite and > 0, got {shown(self.epsilon)}")
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning_rate must be >= 0, got {shown(self.learning_rate)}")
        if not 1 <= self.num_perturbations <= sys.maxsize:
            raise ConfigError(f"num_perturbations must be an integer in [1, {sys.maxsize}], "
                              f"got {shown(self.num_perturbations)}")


@dataclass(frozen=True)
class StepReport:
    step_index: int
    seeds: tuple[PerturbationSeed, ...]
    projected_gradients: tuple[float, ...]
    losses: tuple[tuple[float, float], ...]  # (loss_plus, loss_minus) per direction


# ---------------------------------------------------------------------------
# exactly-reversible in-place perturbation
# ---------------------------------------------------------------------------
#
# Plain float adds lose low bits, so x + d - d != x for a large fraction of
# coordinates. Each pass below therefore checks invertibility coordinate-wise
# and records the original bits of the (rare) coordinates that fail; the
# next pass takes each chunk's entry out as it replays it, so the old record
# shrinks as the new one grows. It holds a tiny fraction of the vector for
# unit-scale parameters and epsilon ~ 1e-3, indexed in the smallest unsigned
# type that holds chunk - 1.

_Record = dict[int, tuple[np.ndarray, np.ndarray]]  # chunk start -> (local idx, saved values)


class _Stream:
    """One direction's noise, walked from its start by every pass.

    It holds no generator between passes. A vector of one chunk keeps its
    noise, drawn by `generate_noise`, until the shift that restores the base;
    a longer one is walked by `iter_noise_chunks`. `shift` keeps its sign and
    undo record for the next shift to read.
    """

    def __init__(self, seed: PerturbationSeed, size: int, chunk: int):
        self.seed, self.size, self.chunk = seed, size, chunk
        self.kept = generate_noise(seed, size) if size <= chunk else None
        self.sign, self.undo = 0.0, {}

    def shift(self, values: np.ndarray, epsilon: float, sign: float) -> None:
        """values <- fl(base + sign*epsilon*z), where sign is +1, -1 or 0.

        `base` is the unperturbed vector: `values` itself before the first
        shift, afterwards values - last_sign*epsilon*z with the coordinates of
        the last undo record put back, which recovers it exactly. sign = 0
        restores the base only and drops the kept noise. Works in place with
        two chunk-sized scratch buffers: z is drawn into the first unless it
        is kept, and the shifted chunk goes there once z has been scaled.
        """
        record: _Record = {}
        zbuf, d = np.empty((2, min(self.chunk, values.size)))
        walk = (((0, self.kept),) if self.kept is not None
                else iter_noise_chunks(self.seed, self.size, self.chunk, zbuf))
        for start, z in walk:
            m = z.size
            base, dm, up = values[start:start + m], d[:m], zbuf[:m]
            if self.sign:
                base -= np.multiply(z, self.sign * epsilon, out=dm)
                fix = self.undo.pop(start, None)
                if fix is not None:
                    base[fix[0]] = fix[1]
            if sign:
                np.multiply(z, sign * epsilon, out=dm)
                np.add(base, dm, out=up)
                bad = np.nonzero(np.subtract(up, dm, out=dm) != base)[0]
                if bad.size:
                    record[start] = (bad.astype(np.min_scalar_type(self.chunk - 1)), base[bad])
                base[:] = up
        self.sign, self.undo = sign, record
        if not sign:
            self.kept = None


def spsa_directional_derivative(loss_fn: Callable[[ParameterVector], float],
                                theta: ParameterVector,
                                seed: PerturbationSeed,
                                epsilon: float,
                                chunk: int = DEFAULT_CHUNK) -> float:
    """Central-difference directional derivative along a regenerated direction.

    Evaluates the loss at theta + eps*z and theta - eps*z by shifting theta in
    place (z is streamed from `seed`, never stored whole), restores theta
    bit-for-bit, and returns (loss_plus - loss_minus) / (2*eps). Theta is
    restored too when a loss is non-finite or `loss_fn` raises.
    """
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be > 0, got {shown(epsilon)}")
    g, _, _ = _spsa_full(loss_fn, theta, _Stream(seed, len(theta), chunk), epsilon)
    return g


def _spsa_full(loss_fn, theta, stream, epsilon):
    """(g, loss_plus, loss_minus); theta is restored however the losses end,
    a non-finite value or an exception from `loss_fn`."""
    values = theta.values
    stream.shift(values, epsilon, +1.0)
    try:
        loss_plus = float(loss_fn(theta))
        if not np.isfinite(loss_plus):
            raise NonfiniteLossError(f"loss at +epsilon perturbation is {loss_plus}")
        stream.shift(values, epsilon, -1.0)
        loss_minus = float(loss_fn(theta))
    finally:
        stream.shift(values, epsilon, 0.0)
    if not np.isfinite(loss_minus):
        raise NonfiniteLossError(f"loss at -epsilon perturbation is {loss_minus}")
    return (loss_plus - loss_minus) / (2.0 * epsilon), loss_plus, loss_minus


# ---------------------------------------------------------------------------
# optimizer steps
# ---------------------------------------------------------------------------

def mezo_step(loss_fn: Callable[[ParameterVector], float],
              theta: ParameterVector,
              cfg: ZOConfig,
              step_index: int,
              chunk: int = DEFAULT_CHUNK) -> tuple[ParameterVector, StepReport]:
    """One MeZO step: average num_perturbations projected gradients, then
    apply theta <- theta - (lr/n) * sum_i g_i * z_i with every z_i regenerated
    from its seed.

    A non-finite loss raises NonfiniteLossError and a non-finite projected
    gradient raises NonfiniteGradError; either way, and when `loss_fn`
    raises, theta is at its pre-step value, since the update has not begun. If the update itself overflows
    (finite gradients whose scaled sum is not), theta keeps the non-finite
    values written and NonfiniteLossError is raised."""
    if step_index < 0:
        raise ConfigError(f"step_index must be >= 0, got {step_index}")
    sseed = step_seed(cfg.master_seed, step_index)
    n = cfg.num_perturbations
    seeds = tuple(PerturbationSeed(sseed, i) for i in range(n))
    size = theta.values.size

    gs, losses = [], []
    for s in seeds:
        g, lp, lm = _spsa_full(loss_fn, theta, _Stream(s, size, chunk), cfg.epsilon)
        gs.append(g)
        losses.append((lp, lm))
    if not np.all(np.isfinite(gs)):
        raise NonfiniteGradError(f"projected gradients {gs} are not all finite")
    if cfg.learning_rate > 0:
        scale = cfg.learning_rate / n
        zbuf, abuf = np.empty((2, min(chunk, size)))
        walks = [iter_noise_chunks(s, size, chunk, zbuf) for s in seeds]  # in lockstep
        finite = True
        for start, z in walks[0]:
            m = z.size
            acc = np.multiply(z, gs[0], out=abuf[:m])
            for g, walk in zip(gs[1:], walks[1:]):
                acc += np.multiply(next(walk)[1], g, out=zbuf[:m])
            acc *= scale
            part = theta.values[start:start + m]
            part -= acc
            finite = finite and bool(np.isfinite(part).all())
        if not finite:
            raise NonfiniteLossError("parameter vector contains NaN/Inf")

    report = StepReport(step_index, seeds, tuple(gs), tuple(losses))
    return theta, report


def bp_sgd_step(loss_and_grad_fn: Callable[[ParameterVector],
                                           tuple[ParameterVector, float]],
                theta: ParameterVector,
                eta: float) -> ParameterVector:
    """Vanilla SGD: theta <- theta - eta * grad, consuming the gradient buffer.
    `loss_and_grad_fn` returns (gradient, loss) as the toy model's backward does."""
    grad, loss = loss_and_grad_fn(theta)
    if not np.isfinite(loss):
        raise NonfiniteLossError(f"loss is {loss}")
    if grad.values.shape != theta.values.shape:
        raise ValueError("gradient and parameter shapes differ")
    if not np.all(np.isfinite(grad.values)):
        raise NonfiniteGradError("gradient contains NaN/Inf")
    grad.values *= eta
    theta.values -= grad.values
    return theta
